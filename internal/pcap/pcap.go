// Package pcap writes simulated traffic as standard pcap capture files
// (readable by tcpdump/Wireshark). Because the simulator builds real
// frame bytes — Ethernet, IPv4 with checksums, UDP/TCP, VXLAN — captures
// taken on the virtual wire dissect exactly like captures from a
// physical testbed, which makes datapath debugging and demonstration
// concrete: `tcpdump -r run.pcap 'udp port 4789'` shows the overlay's
// encapsulated traffic.
package pcap

import (
	"encoding/binary"
	"fmt"
	"io"

	"falcon/internal/devices"
	"falcon/internal/sim"
	"falcon/internal/skb"
)

// pcap file constants (classic libpcap format, microsecond timestamps).
const (
	magicNumber  = 0xa1b2c3d4
	versionMajor = 2
	versionMinor = 4
	linkTypeEth  = 1
	maxSnapLen   = 65535
)

// Writer streams pcap records to an io.Writer.
type Writer struct {
	w       io.Writer
	snapLen int
	packets uint64
}

// NewWriter writes the pcap global header and returns the writer.
// snapLen of 0 uses the maximum.
func NewWriter(w io.Writer, snapLen int) (*Writer, error) {
	if snapLen <= 0 || snapLen > maxSnapLen {
		snapLen = maxSnapLen
	}
	var hdr [24]byte
	binary.LittleEndian.PutUint32(hdr[0:4], magicNumber)
	binary.LittleEndian.PutUint16(hdr[4:6], versionMajor)
	binary.LittleEndian.PutUint16(hdr[6:8], versionMinor)
	// thiszone, sigfigs: zero.
	binary.LittleEndian.PutUint32(hdr[16:20], uint32(snapLen))
	binary.LittleEndian.PutUint32(hdr[20:24], linkTypeEth)
	if _, err := w.Write(hdr[:]); err != nil {
		return nil, fmt.Errorf("pcap: header: %w", err)
	}
	return &Writer{w: w, snapLen: snapLen}, nil
}

// Packets returns how many records have been written.
func (pw *Writer) Packets() uint64 { return pw.packets }

// WriteFrame records one frame at virtual time t.
func (pw *Writer) WriteFrame(t sim.Time, frame []byte) error {
	capLen := len(frame)
	if capLen > pw.snapLen {
		capLen = pw.snapLen
	}
	var rec [16]byte
	usec := int64(t) / 1000
	binary.LittleEndian.PutUint32(rec[0:4], uint32(usec/1e6))
	binary.LittleEndian.PutUint32(rec[4:8], uint32(usec%1e6))
	binary.LittleEndian.PutUint32(rec[8:12], uint32(capLen))
	binary.LittleEndian.PutUint32(rec[12:16], uint32(len(frame)))
	if _, err := pw.w.Write(rec[:]); err != nil {
		return fmt.Errorf("pcap: record header: %w", err)
	}
	if _, err := pw.w.Write(frame[:capLen]); err != nil {
		return fmt.Errorf("pcap: record body: %w", err)
	}
	pw.packets++
	return nil
}

// Record is one captured frame: its capture timestamp (microsecond
// resolution, the format's native unit) and the frame bytes.
type Record struct {
	T     sim.Time
	Frame []byte
}

// Reader streams records from a classic-format pcap capture.
type Reader struct {
	r       io.Reader
	packets uint64
}

// NewReader validates the pcap global header and returns the reader.
// Only the simulator's own dialect is accepted: classic little-endian
// magic, version 2.4, Ethernet link type, microsecond timestamps.
func NewReader(r io.Reader) (*Reader, error) {
	var hdr [24]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("pcap: global header: %w", err)
	}
	if m := binary.LittleEndian.Uint32(hdr[0:4]); m != magicNumber {
		return nil, fmt.Errorf("pcap: bad magic %#08x (want %#08x)", m, uint32(magicNumber))
	}
	major := binary.LittleEndian.Uint16(hdr[4:6])
	minor := binary.LittleEndian.Uint16(hdr[6:8])
	if major != versionMajor || minor != versionMinor {
		return nil, fmt.Errorf("pcap: unsupported version %d.%d", major, minor)
	}
	if lt := binary.LittleEndian.Uint32(hdr[20:24]); lt != linkTypeEth {
		return nil, fmt.Errorf("pcap: unsupported link type %d", lt)
	}
	return &Reader{r: r}, nil
}

// Packets returns how many records have been read.
func (pr *Reader) Packets() uint64 { return pr.packets }

// Next returns the next record, or io.EOF at a clean end of capture.
// A capture truncated mid-record is an error, not EOF.
func (pr *Reader) Next() (Record, error) {
	var hdr [16]byte
	if _, err := io.ReadFull(pr.r, hdr[:]); err != nil {
		if err == io.EOF {
			return Record{}, io.EOF
		}
		return Record{}, fmt.Errorf("pcap: record header: %w", err)
	}
	secs := binary.LittleEndian.Uint32(hdr[0:4])
	frac := binary.LittleEndian.Uint32(hdr[4:8])
	capLen := binary.LittleEndian.Uint32(hdr[8:12])
	if capLen > maxSnapLen {
		return Record{}, fmt.Errorf("pcap: record length %d exceeds snap limit", capLen)
	}
	frame := make([]byte, capLen)
	if _, err := io.ReadFull(pr.r, frame); err != nil {
		return Record{}, fmt.Errorf("pcap: record body: %w", err)
	}
	pr.packets++
	t := sim.Time(int64(secs)*1e6+int64(frac)) * sim.Microsecond
	return Record{T: t, Frame: frame}, nil
}

// ReadAll drains the capture into memory.
func ReadAll(r io.Reader) ([]Record, error) {
	pr, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	var recs []Record
	for {
		rec, err := pr.Next()
		if err == io.EOF {
			return recs, nil
		}
		if err != nil {
			return nil, err
		}
		recs = append(recs, rec)
	}
}

// Tap attaches the writer to a link: every frame put on the wire is
// recorded at its transmit time. Chain-safe: the link's existing
// Deliver callback is preserved.
func Tap(l *devices.Link, pw *Writer) {
	next := l.Deliver
	l.Deliver = func(s *skb.SKB) {
		// Record at delivery time (the far end of the wire).
		_ = pw.WriteFrame(l.E.Now(), s.Linear())
		if next != nil {
			next(s)
		}
	}
}
