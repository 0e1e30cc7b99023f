package pcap

import (
	"bytes"
	"encoding/binary"
	"testing"

	"falcon/internal/devices"
	"falcon/internal/proto"
	"falcon/internal/sim"
	"falcon/internal/skb"
)

func TestWriterHeader(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewWriter(&buf, 0); err != nil {
		t.Fatal(err)
	}
	h := buf.Bytes()
	if len(h) != 24 {
		t.Fatalf("header len = %d", len(h))
	}
	if binary.LittleEndian.Uint32(h[0:4]) != magicNumber {
		t.Fatal("bad magic")
	}
	if binary.LittleEndian.Uint32(h[20:24]) != linkTypeEth {
		t.Fatal("bad link type")
	}
	if binary.LittleEndian.Uint32(h[16:20]) != maxSnapLen {
		t.Fatal("default snaplen not applied")
	}
}

func TestWriteFrameRecord(t *testing.T) {
	var buf bytes.Buffer
	pw, _ := NewWriter(&buf, 0)
	frame := proto.BuildUDPFrame(proto.MACFromUint64(1), proto.MACFromUint64(2),
		proto.IP4(10, 0, 0, 1), proto.IP4(10, 0, 0, 2), 1, 2, 0, []byte("payload"))
	at := 3*sim.Second + 250*sim.Millisecond
	if err := pw.WriteFrame(at, frame); err != nil {
		t.Fatal(err)
	}
	if pw.Packets() != 1 {
		t.Fatalf("packets = %d", pw.Packets())
	}
	rec := buf.Bytes()[24:]
	if binary.LittleEndian.Uint32(rec[0:4]) != 3 {
		t.Fatalf("ts_sec = %d", binary.LittleEndian.Uint32(rec[0:4]))
	}
	if binary.LittleEndian.Uint32(rec[4:8]) != 250000 {
		t.Fatalf("ts_usec = %d", binary.LittleEndian.Uint32(rec[4:8]))
	}
	if int(binary.LittleEndian.Uint32(rec[8:12])) != len(frame) {
		t.Fatal("caplen mismatch")
	}
	if !bytes.Equal(rec[16:16+len(frame)], frame) {
		t.Fatal("frame bytes corrupted")
	}
}

func TestSnapLenTruncates(t *testing.T) {
	var buf bytes.Buffer
	pw, _ := NewWriter(&buf, 64)
	frame := make([]byte, 512)
	if err := pw.WriteFrame(0, frame); err != nil {
		t.Fatal(err)
	}
	rec := buf.Bytes()[24:]
	if binary.LittleEndian.Uint32(rec[8:12]) != 64 {
		t.Fatal("caplen not truncated")
	}
	if binary.LittleEndian.Uint32(rec[12:16]) != 512 {
		t.Fatal("origlen lost")
	}
	if len(rec) != 16+64 {
		t.Fatalf("record size = %d", len(rec))
	}
}

func TestReaderRoundTrip(t *testing.T) {
	// Write a small capture, read it back, re-write the records: both
	// byte streams must be identical (timestamps are µs-quantized by the
	// format, so write→read→write is exact even though sim.Time is ns).
	var buf bytes.Buffer
	pw, _ := NewWriter(&buf, 0)
	var frames [][]byte
	for i := 0; i < 8; i++ {
		frame := proto.BuildUDPFrame(proto.MACFromUint64(1), proto.MACFromUint64(2),
			proto.IP4(10, 0, 0, 1), proto.IP4(10, 0, 0, 2),
			uint16(4000+i), uint16(5000+i%3), uint16(i), make([]byte, 16+i*32))
		frames = append(frames, frame)
		at := sim.Time(i)*137*sim.Microsecond + sim.Second
		if err := pw.WriteFrame(at, frame); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(frames) {
		t.Fatalf("read %d records, wrote %d", len(recs), len(frames))
	}
	var out bytes.Buffer
	pw2, _ := NewWriter(&out, 0)
	for i, rec := range recs {
		if !bytes.Equal(rec.Frame, frames[i]) {
			t.Fatalf("record %d frame bytes differ", i)
		}
		want := (sim.Second + sim.Time(i)*137*sim.Microsecond) / sim.Microsecond * sim.Microsecond
		if rec.T != want {
			t.Fatalf("record %d time = %d, want %d", i, rec.T, want)
		}
		if err := pw2.WriteFrame(rec.T, rec.Frame); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(out.Bytes(), buf.Bytes()) {
		t.Fatal("write→read→write capture bytes differ")
	}
}

func TestReaderRejectsBadHeader(t *testing.T) {
	bad := make([]byte, 24)
	binary.LittleEndian.PutUint32(bad[0:4], 0xdeadbeef)
	if _, err := NewReader(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad magic accepted")
	}
	var buf bytes.Buffer
	pw, _ := NewWriter(&buf, 0)
	_ = pw.WriteFrame(0, make([]byte, 100))
	// Truncate mid-record: Next must report an error, not clean EOF.
	trunc := buf.Bytes()[:24+16+10]
	if _, err := ReadAll(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated record read as clean EOF")
	}
}

func TestTapRecordsLinkTraffic(t *testing.T) {
	e := sim.New(1)
	l := devices.NewLink(e, 10*devices.Gbps, 0)
	delivered := 0
	l.Deliver = func(s *skb.SKB) { delivered++ }

	var buf bytes.Buffer
	pw, _ := NewWriter(&buf, 0)
	Tap(l, pw)

	for i := 0; i < 5; i++ {
		frame := proto.BuildUDPFrame(proto.MACFromUint64(1), proto.MACFromUint64(2),
			proto.IP4(10, 0, 0, 1), proto.IP4(10, 0, 0, 2), 100, 200, uint16(i), []byte("x"))
		l.Send(skb.New(frame))
	}
	e.Run()

	if delivered != 5 {
		t.Fatalf("tap broke delivery: %d", delivered)
	}
	if pw.Packets() != 5 {
		t.Fatalf("captured %d packets", pw.Packets())
	}
	// The capture must contain parseable frames at the right offsets.
	data := buf.Bytes()[24:]
	for i := 0; i < 5; i++ {
		caplen := int(binary.LittleEndian.Uint32(data[8:12]))
		frame := data[16 : 16+caplen]
		if _, err := proto.ParseFrame(frame); err != nil {
			t.Fatalf("captured frame %d unparsable: %v", i, err)
		}
		data = data[16+caplen:]
	}
	if len(data) != 0 {
		t.Fatal("trailing bytes in capture")
	}
}

// TestTapWritesTailFrameAtFullLength taps a paged frame (headers
// stored, payload a zero tail): the record must read back as the whole
// frame on the wire.
func TestTapWritesTailFrameAtFullLength(t *testing.T) {
	e := sim.New(1)
	l := devices.NewLink(e, 10*devices.Gbps, 0)
	l.Deliver = func(s *skb.SKB) {}
	var buf bytes.Buffer
	pw, _ := NewWriter(&buf, 0)
	Tap(l, pw)

	src, dst := proto.IP4(10, 0, 0, 1), proto.IP4(10, 0, 0, 2)
	want := proto.BuildUDPFrame(proto.MACFromUint64(1), proto.MACFromUint64(2), src, dst, 100, 200, 7, make([]byte, 9000))
	s := skb.New(proto.UDPHeaders(proto.MACFromUint64(1), proto.MACFromUint64(2), src, dst, 100, 200, 7, 9000))
	s.Tail = 9000
	l.Send(s)
	e.Run()

	recs, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || !bytes.Equal(recs[0].Frame, want) {
		t.Fatalf("captured %d records; want the %d B frame", len(recs), len(want))
	}
}
