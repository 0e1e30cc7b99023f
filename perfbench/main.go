// Command perfbench is the repository's benchmark: it measures what it
// costs the host to simulate one packet, end to end and layer by layer,
// on four workloads that load different parts of the simulated
// datapath. See README.md for the workloads, the metrics and the
// correctness gate.
//
//	perfbench --workload udp16-falcon --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer ones.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
	"unsafe"

	"falcon/internal/sim"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

const (
	// minReps is the fewest repetitions a run makes, so the
	// determinism check always has a pair to compare.
	minReps = 3
	// minSetups is the fewest set-ups a --trace 0 run times; set-up-only
	// repetitions make up the difference, so setup_s is a median of
	// enough samples to stay put.
	minSetups = 15
	// heapSamples is how many times a repetition's window measures its
	// live heap, at evenly spaced slice boundaries.
	heapSamples = 4
	// eventBudget is the runaway guard on one repetition's engine (per
	// logical process on a cluster), far above any workload's count.
	eventBudget = 2_000_000_000
)

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name: udp16-falcon, udp64k-con, tcp4k-falcon or mesh8-auto")
	seed := fs.Uint64("seed", 1, "workload seed (0 is mapped to 1)")
	seconds := fs.Float64("seconds", 10, "host seconds of measured simulation")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookup(*name)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: need --workload <name> --seconds >0 --trace 0|1:", err)
		return 2
	}
	if *seed == 0 {
		*seed = 1
	}
	g := &gate{w: w, stderr: stderr}
	var out map[string]metric
	if *trace == 0 {
		reps, _ := g.repeat(*seed, *seconds, false)
		setups := each(reps, func(r rep) float64 { return r.setup.Seconds() })
		for len(setups) < minSetups && len(reps) > 0 {
			g.attempted++
			d, err := setupOnly(w, *seed)
			if err != nil {
				g.fail("set-up: %v", err)
				break
			}
			setups = append(setups, d.Seconds())
		}
		out = endToEnd(reps, setups)
	} else {
		// The untraced repetitions give the deterministic counts, the
		// runtime deltas and the base of the tracing overhead; the traced
		// ones, two in three, the CPU profile.
		plain, traced := g.repeat(*seed, *seconds, true)
		out = perLayer(w, plain, traced)
	}
	if w.shards != 0 {
		g.checkSerial(*seed)
	}
	if g.attempted == g.failed {
		fmt.Fprintln(stderr, "perfbench: every repetition failed")
		return 1
	}
	enc, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{g.failed == 0, g.attempted, g.failed, out})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(enc))
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// rep is one repetition: build the bed, warm it up, run the measured
// window slice by slice, drain, check.
type rep struct {
	setup      time.Duration // process CPU time of set-up
	measured   time.Duration // wall time of the window's slices
	slices     []slice
	setupHeap  uint64 // live heap at the end of set-up
	heapGrowth uint64 // highest live heap in the window, less setupHeap

	setupAlloc         uint64 // bytes allocated during set-up
	allocs, allocBytes uint64 // during the measured window
	gcCycles           uint32 // collections the window triggered itself

	res     simResult
	profile []byte // CPU profile of the measured window (traced reps)
}

// slice is one fixed sim-time slice of the window.
type slice struct {
	wall, cpu time.Duration
	pkts      uint64 // segments the applications consumed in it
}

// hostQ is the quantile the per-packet host cost is read at, over
// every slice of a run. On a shared host the speed of a CPU changes in
// steps (by 1.6x on the 2-vCPU machines this benchmark was written on)
// as other tenants come and go, and a run's slices mix the two speeds
// in shares that vary from run to run. The median then jumps between
// them; the 90th percentile reads the slower speed whenever a tenth of
// the run saw it, which held on every run observed, so it stays put.
const hostQ = 0.90

// perSlice returns f of every slice of the repetitions.
func perSlice(reps []rep, f func(slice) (float64, bool)) []float64 {
	var out []float64
	for _, r := range reps {
		for _, s := range r.slices {
			if v, ok := f(s); ok {
				out = append(out, v)
			}
		}
	}
	return out
}

// nsPerPkt is the hostQ quantile over slices of the slice's time, CPU
// or wall, per packet delivered in it.
func nsPerPkt(reps []rep, cpu bool) float64 {
	return quantile(perSlice(reps, func(s slice) (float64, bool) {
		d := s.wall
		if cpu {
			d = s.cpu
		}
		return float64(d.Nanoseconds()) / float64(s.pkts), s.pkts > 0
	}), hostQ)
}

// sliceMs is the q-quantile of the slices' time, CPU or wall, in ms.
func sliceMs(reps []rep, q float64, cpu bool) float64 {
	return quantile(perSlice(reps, func(s slice) (float64, bool) {
		d := s.wall
		if cpu {
			d = s.cpu
		}
		return float64(d.Nanoseconds()) / 1e6, true
	}), q)
}

// gate counts repetitions and failures and holds the digest every
// repetition of the run must reproduce.
type gate struct {
	w                 spec
	stderr            io.Writer
	attempted, failed int
	digest, model     uint64
	haveDigest        bool
}

func (g *gate) fail(format string, a ...any) {
	g.failed++
	fmt.Fprintf(g.stderr, "perfbench: %s: FAIL: %s\n", g.w.name, fmt.Sprintf(format, a...))
}

// repeat runs repetitions until their measured windows add up to
// seconds of wall time, and returns the untraced and the traced ones.
// With profile, every third repetition is left untraced, so the two
// kinds see the same host conditions; without it none is traced.
// Failed repetitions are counted and left out of the metrics.
func (g *gate) repeat(seed uint64, seconds float64, profile bool) (plain, traced []rep) {
	var total time.Duration
	budget := time.Duration(seconds * float64(time.Second))
	for i := 0; len(plain)+len(traced) < minReps || total < budget; i++ {
		g.attempted++
		r, err := measure(g.w, seed, g.w.shards, profile && i%3 != 0)
		if err != nil {
			g.fail("repetition %d: %v", g.attempted, err)
			if g.failed >= minReps {
				break
			}
			continue
		}
		if !g.haveDigest {
			g.digest, g.model, g.haveDigest = r.res.digest(), r.res.modelDigest(), true
		} else if d := r.res.digest(); d != g.digest {
			g.fail("repetition %d: digest %016x differs from %016x", g.attempted, d, g.digest)
			continue
		}
		one := []rep{r}
		fmt.Fprintf(g.stderr, "perfbench: %s rep %d: setup %.3fs cpu, window %.3fs wall, %d pkts, p90 ns/pkt %.0f cpu %.0f wall, slice p95 %.2fms cpu %.2fms wall, traced %t, digest %016x\n",
			g.w.name, g.attempted, r.setup.Seconds(), r.measured.Seconds(), r.res.win.delivered,
			nsPerPkt(one, true), nsPerPkt(one, false), sliceMs(one, 0.95, true), sliceMs(one, 0.95, false),
			r.profile != nil, g.digest)
		if r.profile != nil {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
		total += r.measured
	}
	return plain, traced
}

// checkSerial reruns the workload once on the serial engine: its
// simulated outputs must equal the sharded repetitions' exactly.
func (g *gate) checkSerial(seed uint64) {
	g.attempted++
	r, err := measure(g.w, seed, 1, false)
	switch {
	case err != nil:
		g.fail("serial check: %v", err)
	case !g.haveDigest:
	case r.res.modelDigest() != g.model:
		g.fail("serial digest %016x differs from sharded %016x", r.res.modelDigest(), g.model)
	default:
		fmt.Fprintf(g.stderr, "perfbench: %s serial check: digest %016x matches\n", g.w.name, g.model)
	}
}

// freshHeap collects twice, which empties the sync.Pools (the first
// collection moves their contents to the victim cache, the second frees
// it), so every set-up pays its full allocation, as a fresh bed does.
func freshHeap() {
	runtime.GC()
	runtime.GC()
}

// setUp builds the bed and runs the simulated warmup. It returns the
// process CPU time that took: wall time on a shared host also counts
// whatever the hypervisor stole, which was up to half of it.
func setUp(w spec, seed uint64, shards int) (*bed, time.Duration) {
	c0 := cpuTime()
	b := w.build(seed, shards)
	b.e.SetEventBudget(eventBudget)
	b.e.RunUntil(w.warmup)
	return b, cpuTime() - c0
}

// setupOnly times one more set-up.
func setupOnly(w spec, seed uint64) (d time.Duration, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	freshHeap()
	_, d = setUp(w, seed, w.shards)
	return d, nil
}

// measure runs one repetition. A panic, including a tripped event
// budget, comes back as an error.
func measure(w spec, seed uint64, shards int, traced bool) (r rep, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	freshHeap()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc

	b, setup := setUp(w, seed, shards)
	r.setup = setup

	runtime.ReadMemStats(&ms)
	r.setupAlloc = ms.TotalAlloc - alloc0
	// The heap the bed keeps live, measured exactly by a forced
	// collection at the end of set-up and at heapSamples points of the
	// window, outside the timed slices.
	runtime.GC()
	r.setupHeap = liveHeap()
	runtime.ReadMemStats(&ms)
	mallocs, bytes, gcs := ms.Mallocs, ms.TotalAlloc, ms.NumGC

	b.startWindow()
	before := b.snapshot()
	var prof *profiler
	if traced {
		prof = startProfile()
	}
	r.slices = make([]slice, 0, w.slices)
	every := max(w.slices/heapSamples, 1)
	pkts := b.delivered()
	for k := 1; k <= w.slices; k++ {
		t0, c0 := time.Now(), cpuTime()
		b.e.RunUntil(w.warmup + sim.Time(k)*w.slice)
		s := slice{wall: time.Since(t0), cpu: cpuTime() - c0}
		n := b.delivered()
		s.pkts, pkts = n-pkts, n
		r.slices = append(r.slices, s)
		r.measured += s.wall
		if k%every == 0 {
			runtime.GC()
			live := liveHeap()
			r.heapGrowth = max(r.heapGrowth, live-min(live, r.setupHeap))
		}
	}
	if prof != nil {
		r.profile = prof.stop()
	}
	runtime.ReadMemStats(&ms)
	forced := uint32(w.slices / every)
	r.allocs, r.allocBytes = ms.Mallocs-mallocs, ms.TotalAlloc-bytes
	r.gcCycles = ms.NumGC - gcs - min(forced, ms.NumGC-gcs)

	r.res = b.collect(w, before, b.snapshot())
	return r, b.drain(&r.res)
}

// cpuTime returns the CPU time of all the process's threads, from the
// kernel's per-thread runtime accounting (CLOCK_PROCESS_CPUTIME_ID,
// nanosecond resolution; getrusage rounds to scheduler ticks).
func cpuTime() time.Duration {
	const clockProcessCPUTimeID = 2
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic(fmt.Sprintf("clock_gettime: %v", e))
	}
	return time.Duration(ts.Nano())
}

var liveSample = []metrics.Sample{{Name: "/gc/heap/live:bytes"}}

// liveHeap returns the heap found live by the last garbage collection,
// less the benchmark's own latency log. Unlike HeapInuse at an
// arbitrary instant it does not depend on how far the collector's
// pacing let garbage pile up.
func liveHeap() uint64 {
	metrics.Read(liveSample)
	live := liveSample[0].Value.Uint64()
	for _, v := range latencyBufs {
		live -= min(live, uint64(cap(v))*4)
	}
	return live
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func each(reps []rep, f func(rep) float64) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = f(r)
	}
	return out
}

// endToEnd computes the metrics a user of the simulator sees. Host
// times are CPU times, which leave out what the host stole; the wall
// clock is reported with the per-layer metrics. The simulated results
// are the same in every repetition.
func endToEnd(reps []rep, setups []float64) map[string]metric {
	m := map[string]metric{
		"cpu_ns_per_pkt":   {nsPerPkt(reps, true), "ns"},
		"slice_cpu_ms_p95": {sliceMs(reps, 0.95, true), "ms"},
		"setup_s":          {median(setups), "s"},
		"setup_heap_mb":    {median(each(reps, func(r rep) float64 { return float64(r.setupHeap) / 1e6 })), "MB"},
	}
	if len(reps) > 0 {
		res := reps[0].res
		m["sim_kpps"] = metric{res.kpps(), "kpps"}
		m["sim_p50_us"] = metric{float64(res.p50ns) / 1e3, "us"}
		m["sim_p99_us"] = metric{float64(res.p99ns) / 1e3, "us"}
	}
	return m
}
