package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"strings"
)

// profileHz is the CPU profile rate requested for traced repetitions,
// ten times pprof's default. Linux delivers per-thread CPU-time timer
// signals at most once per scheduler tick, so the rate obtained is the
// lower of this and the kernel's tick rate (250 Hz is common): a run's
// traced repetitions then collect a few thousand samples, enough for a
// layer at 2% to keep a stable share.
const profileHz = 1000

// profiler captures one CPU profile into memory.
type profiler struct{ buf bytes.Buffer }

// startProfile starts the process CPU profile at profileHz. Setting the
// rate first makes pprof's own 100 Hz request a no-op (the runtime
// notes this on standard error); shares are unaffected by the period
// the profile header then records.
func startProfile() *profiler {
	p := &profiler{}
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		panic(fmt.Sprintf("start CPU profile: %v", err))
	}
	return p
}

func (p *profiler) stop() []byte {
	pprof.StopCPUProfile()
	return p.buf.Bytes()
}

// repoPrefix marks the simulator's layers: every package under
// internal/ is one layer.
const repoPrefix = "falcon/internal/"

// clusterTypes are the PDES machinery in internal/sim/cluster.go:
// barriers, cross-shard drains and worker hand-off.
var clusterTypes = []string{"sim.(*Cluster)", "sim.(*workerPool)", "sim.(*PostSource)", "sim.(*outQ)"}

// attribution is the sample count charged to each layer.
type attribution struct {
	total   int64
	layer   map[string]int64 // innermost repo frame's package
	cluster int64            // innermost repo frame is cluster machinery
	none    int64            // no repo frame at all (GC, scheduler)
}

// attribute charges every sample of a gzipped pprof profile to the
// innermost falcon/internal/<pkg> frame on its stack.
func (a *attribution) attribute(gz []byte) error {
	p, err := parseProfile(gz)
	if err != nil {
		return err
	}
	for _, s := range p.samples {
		a.total += s.count
		fn, ok := p.innermostRepoFrame(s.locs)
		if !ok {
			a.none += s.count
			continue
		}
		rest := fn[len(repoPrefix):]
		pkg := rest
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			pkg = rest[:i]
		}
		a.layer[pkg] += s.count
		for _, t := range clusterTypes {
			if strings.HasPrefix(rest, t) {
				a.cluster += s.count
				break
			}
		}
	}
	return nil
}

func (a *attribution) frac(n int64) float64 {
	if a.total == 0 {
		return 0
	}
	return float64(n) / float64(a.total)
}

// profile is the subset of profile.proto the attribution reads.
type profile struct {
	strs    []string
	funcs   map[uint64]int64    // function id → name string index
	locs    map[uint64][]uint64 // location id → function ids, innermost first
	samples []sample
}

type sample struct {
	locs  []uint64 // leaf first
	count int64
}

func (p *profile) innermostRepoFrame(locs []uint64) (string, bool) {
	for _, l := range locs {
		for _, f := range p.locs[l] {
			if i := p.funcs[f]; i >= 0 && int(i) < len(p.strs) && strings.HasPrefix(p.strs[i], repoPrefix) {
				return p.strs[i], true
			}
		}
	}
	return "", false
}

// parseProfile decodes the gzipped profile.proto that runtime/pprof
// writes. Only the fields the attribution needs are kept.
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{funcs: map[uint64]int64{}, locs: map[uint64][]uint64{}}
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s sample
			first := true
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					if first {
						vals := appendPacked(nil, v, b)
						if len(vals) > 0 {
							s.count, first = int64(vals[0]), false
						}
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locs[id] = fns
			return err
		case 5: // function
			var id uint64
			name := int64(-1)
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcs[id] = name
			return err
		case 6: // string_table
			p.strs = append(p.strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// fields walks one protobuf message, calling f with each field's
// number and either its varint value or its length-delimited bytes.
func fields(b []byte, f func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := f(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field, packed (data) or not (v).
func appendPacked(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}
