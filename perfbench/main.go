// Command perfbench is the repository benchmark. It runs one named
// workload against the partial snapshot object, directly or through the
// snapshotd serving layer hosted in-process, and prints one JSON result
// line: end-to-end metrics from an untraced run (-trace 0), or per-layer
// metrics from a traced run (-trace 1). Every run checks the program's
// outputs and exits 1 if any check fails.
//
//	perfbench -workload serve-mixed -seed 1 -seconds 30 -trace 0 -serve-rate 14000
//
// See README.md for why each workload exists and which end-to-end metric
// each per-layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"partialsnapshot/internal/snapshot"
)

// Every workload drives the object with exactly this many load goroutines
// or connections, and refuses to run on fewer CPUs: an open-loop generator
// or a worker starved of a CPU measures the scheduler, not the program.
const loadWorkers = 2

// components is the object size of every workload.
const components = 64

// setupReps is how many times a run sets its workload up from nothing to
// report setup_s as a median rather than one cold sample.
const setupReps = 21

// warmup runs the workload before every measured window, so lazy set-up,
// heap growth and connection buffers settle before timing starts.
const warmup = 500 * time.Millisecond

type metricDef struct {
	name, unit, better string
}

// endToEnd and perLayer are the metric catalogue; BENCHMARK.json lists the
// same names, units and directions (pinned by a test). allocs_per_op and
// bytes_per_op count the whole process, the load generator included.
var endToEnd = []metricDef{
	{"ops_s", "1/s", "higher"},
	{"allocs_per_op", "count", "lower"},
	{"bytes_per_op", "B", "lower"},
	{"live_heap_mb", "MiB", "lower"},
	{"setup_s", "s", "lower"},
}

// The timing.* figures are the user-visible latencies and CPU cost per op,
// taken from the traced run's untraced half. The shared host's speed swings
// them by more from run to run than any bound a gate could hold, so they
// are reported here, where no bound applies.
var perLayer = []metricDef{
	{"timing.update_p50_us", "us", "lower"},
	{"timing.update_p99_us", "us", "lower"},
	{"timing.scan_p50_us", "us", "lower"},
	{"timing.scan_p99_us", "us", "lower"},
	{"timing.cpu_us_per_op", "us", "lower"},
	{"client.queue_us.p50", "us", "lower"},
	{"client.queue_us.p99", "us", "lower"},
	{"client.lag_us.max", "us", "lower"},
	{"client.rtt_us.p50", "us", "lower"},
	{"client.rtt_us.p99", "us", "lower"},
	{"net.overhead_us.p50", "us", "lower"},
	{"server.update_us.p50", "us", "lower"},
	{"server.update_us.p99", "us", "lower"},
	{"server.scan_us.p50", "us", "lower"},
	{"server.scan_us.p99", "us", "lower"},
	{"server.self_us.mean", "us", "lower"},
	{"server.cache_hit_frac", "ratio", "higher"},
	{"server.recorded_ops", "count", "higher"},
	{"server.recording_closed", "bool", "lower"},
	{"server.rejected", "count", "lower"},
	{"server.internal_errors", "count", "lower"},
	{"snapshot.update_us.p50", "us", "lower"},
	{"snapshot.update_us.p99", "us", "lower"},
	{"snapshot.scan_us.p50", "us", "lower"},
	{"snapshot.scan_us.p99", "us", "lower"},
	{"snapshot.scan_retries_per_scan", "ratio", "lower"},
	{"snapshot.helps_posted_per_update", "ratio", "lower"},
	{"snapshot.helps_adopted_per_scan", "ratio", "lower"},
	{"snapshot.walk_skip_frac", "ratio", "higher"},
	{"snapshot.records_visited_per_walk", "ratio", "lower"},
	{"snapshot.record_reuses_per_scan", "ratio", "lower"},
	{"snapshot.max_help_depth", "count", "lower"},
	{"snapshot.live_announcements_end", "count", "lower"},
	{"spec.check_ms", "ms", "lower"},
	{"spec.checked_ops", "count", "higher"},
	{"workload.next_ns", "ns", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_pause_ms.total", "ms", "lower"},
	{"runtime.gc_pause_ms.max", "ms", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
	{"trace.residual_frac", "ratio", "lower"},
	{"trace.sample_cost_ns", "ns", "lower"},
}

// config is one invocation's settings.
type config struct {
	seed   int64
	window time.Duration
	traced bool
	// rate is the offered load in ops per second: serve-mixed's comes
	// from -serve-rate, an object workload's from its definition.
	rate float64
	// sampleCost is the measured cost of one timed sample (two clock reads),
	// subtracted where a layer's share is computed from sampled timings.
	sampleCost time.Duration
}

// scenario is one named benchmark workload: a set-up probe (timed from
// nothing to the first healthy request or first op, then torn down) and a
// measured window.
type scenario struct {
	name    string
	offered float64 // ops per second; 0 takes -serve-rate
	setup   func(cfg config) error
	run     func(cfg config) (*window, error)
}

func scenarios() []scenario {
	return []scenario{
		{"serve-mixed", 0, setupServe, runServe},
		{"object-partitioned", partitioned.offered(), setupObject(partitioned), runObject(partitioned)},
		{"object-contended", contended.offered(), setupObject(contended), runObject(contended)},
	}
}

// window is what one measured window yields.
type window struct {
	// attempted and failed count every op the window issued, warm-up
	// included; updates and scans count those the object served, the base
	// of the per-op ratios over its lifetime counters.
	attempted, failed int64
	updates, scans    int64
	// slices split the measured window into equal stretches; ops_s and the
	// timing figures are medians over them, so one stretch that a noisy host
	// slowed moves the result by one rank, not by its weight.
	slices []slice
	// update and scan pool the latency samples of all slices, in µs: from
	// the scheduled send time to the reply for serve-mixed, sampled op time
	// for object-*.
	update, scan []float64
	heapGrowth   float64 // bytes
	rt           runtimeDelta
	objStats     map[string]float64 // snapshot.Stats read as untyped JSON
	problems     []string           // failed correctness checks
	// layers holds the per-layer metrics only the workload can compute
	// (traced windows only); absent names those whose counters the program
	// no longer exposes.
	layers map[string]float64
	absent []string
	spans  func(io.Writer) error // writes the window's spans (traced only)
}

// slice is one stretch of a measured window.
type slice struct {
	update, scan []float64 // latency samples, µs
	ops          float64   // completed ops
	dur, cpu     time.Duration
}

// slices is how many stretches a measured window is split into.
const slices = 15

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name: serve-mixed, object-partitioned or object-contended")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer metrics")
	rate := fs.Float64("serve-rate", 0, "serve-mixed offered load, requests per second over all connections")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *scenario
	for _, cand := range scenarios() {
		if cand.name == *name {
			w = &cand
		}
	}
	if w == nil {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	if w.offered == 0 && *rate <= 0 {
		fmt.Fprintf(stderr, "perfbench: %s needs a positive -serve-rate\n", w.name)
		return 2
	}
	if n := min(runtime.NumCPU(), runtime.GOMAXPROCS(0)); n < loadWorkers {
		fmt.Fprintf(stderr, "perfbench: %d load workers need as many CPUs, have %d (NumCPU %d, GOMAXPROCS %d)\n",
			loadWorkers, n, runtime.NumCPU(), runtime.GOMAXPROCS(0))
		return 2
	}

	cfg := config{seed: *seed, window: time.Duration(*seconds) * time.Second,
		traced: *trace == 1, rate: *rate, sampleCost: sampleCost()}
	if w.offered != 0 {
		cfg.rate = w.offered
	}
	stamp(stdout, w.name, cfg)

	res, spans, err := measure(w, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if spans != nil {
		if err := writeSpans(w.name, spans); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// measure runs the workload's windows and assembles the result. An
// untraced run sets up setupReps times and then measures one window; a
// traced run measures an untraced and a traced half-window back to back,
// so the tracing overhead is the difference between the two.
func measure(w *scenario, cfg config) (result, func(io.Writer) error, error) {
	res := result{Metrics: map[string]metric{}}
	var problems []string
	var spans func(io.Writer) error
	if !cfg.traced {
		var setups []float64
		for i := 0; i < setupReps; i++ {
			// Each set-up starts from a collected heap, so no rep pays for
			// the garbage of the ones before it.
			runtime.GC()
			t0 := time.Now()
			if err := w.setup(cfg); err != nil {
				return res, nil, fmt.Errorf("setup: %w", err)
			}
			setups = append(setups, time.Since(t0).Seconds())
		}
		win, err := w.run(cfg)
		if err != nil {
			return res, nil, err
		}
		problems = win.problems
		res.Attempted, res.Failed = win.attempted, win.failed
		values := endToEndMetrics(win, median(setups))
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{values[m.name], m.unit}
		}
	} else {
		half := cfg
		half.window = cfg.window / 2
		half.traced = false
		base, err := w.run(half)
		if err != nil {
			return res, nil, err
		}
		half.traced = true
		traced, err := w.run(half)
		if err != nil {
			return res, nil, err
		}
		problems = append(base.problems, traced.problems...)
		res.Attempted = base.attempted + traced.attempted
		res.Failed = base.failed + traced.failed
		values := perLayerMetrics(base, traced, cfg)
		for _, m := range perLayer {
			if v, ok := values[m.name]; ok {
				res.Metrics[m.name] = metric{v, m.unit}
			}
		}
		spans = traced.spans
	}
	for _, p := range problems {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", p)
	}
	res.Correct = len(problems) == 0
	return res, spans, nil
}

// endToEndMetrics derives the user-visible figures of an untraced window:
// ops_s as the median over the window's slices, the allocation figures
// over the whole window.
func endToEndMetrics(w *window, setupS float64) map[string]float64 {
	ops := w.ops()
	return map[string]float64{
		"ops_s":         sliceMedians(w)["ops_s"],
		"allocs_per_op": ratio(float64(w.rt.mallocs), ops),
		"bytes_per_op":  ratio(float64(w.rt.bytes), ops),
		"live_heap_mb":  w.heapGrowth / (1 << 20),
		"setup_s":       setupS,
	}
}

// ops is how many ops completed in the measured window, which the runtime
// deltas cover.
func (w *window) ops() float64 {
	ops := 0.0
	for _, sl := range w.slices {
		ops += sl.ops
	}
	return ops
}

// sliceMedians computes the per-slice figures of a window and returns the
// median of each over the slices.
func sliceMedians(w *window) map[string]float64 {
	per := map[string][]float64{}
	for _, s := range w.slices {
		upd, scn := sorted(s.update), sorted(s.scan)
		per["ops_s"] = append(per["ops_s"], ratio(s.ops, s.dur.Seconds()))
		per["update_p50_us"] = append(per["update_p50_us"], median(upd))
		per["scan_p50_us"] = append(per["scan_p50_us"], median(scn))
		per["update_p99_us"] = append(per["update_p99_us"], p99(upd))
		per["scan_p99_us"] = append(per["scan_p99_us"], p99(scn))
		per["cpu_us_per_op"] = append(per["cpu_us_per_op"], ratio(us(s.cpu), s.ops))
	}
	out := map[string]float64{}
	for name, vs := range per {
		out[name] = median(vs)
	}
	return out
}

// p99 is the 99th percentile, or the highest one the sample count supports.
func p99(s []float64) float64 { return percentile(s, 0.99) }

// perLayerMetrics combines the traced window's own layer figures with the
// layers every workload shares: the object's counters, the Go runtime and
// the trace itself. A layer a workload does not run through reads 0.
func perLayerMetrics(base, tr *window, cfg config) map[string]float64 {
	out := map[string]float64{}
	for _, m := range perLayer {
		out[m.name] = 0
	}
	st := tr.objStats
	scans, updates := float64(tr.scans), float64(tr.updates)
	absent := map[string]bool{}
	for _, name := range tr.absent {
		absent[name] = true
	}
	counter := func(metric, key string) float64 {
		v, ok := st[key]
		if !ok {
			absent[metric] = true
		}
		return v
	}
	out["snapshot.scan_retries_per_scan"] = ratio(counter("snapshot.scan_retries_per_scan", "scan_retries"), scans)
	out["snapshot.helps_posted_per_update"] = ratio(counter("snapshot.helps_posted_per_update", "helps_posted"), updates)
	out["snapshot.helps_adopted_per_scan"] = ratio(counter("snapshot.helps_adopted_per_scan", "helps_adopted"), scans)
	walks := counter("snapshot.walk_skip_frac", "registry_walks")
	skipped := counter("snapshot.walk_skip_frac", "walks_skipped")
	out["snapshot.walk_skip_frac"] = ratio(skipped, walks+skipped)
	out["snapshot.records_visited_per_walk"] = ratio(counter("snapshot.records_visited_per_walk", "records_visited"), walks)
	out["snapshot.record_reuses_per_scan"] = ratio(counter("snapshot.record_reuses_per_scan", "record_reuses"), scans)
	out["snapshot.max_help_depth"] = counter("snapshot.max_help_depth", "max_help_depth")
	out["snapshot.live_announcements_end"] = counter("snapshot.live_announcements_end", "live_announcements")

	out["runtime.gc_cycles"] = float64(tr.rt.gcCycles)
	out["runtime.gc_pause_ms.total"] = tr.rt.pauseTotal.Seconds() * 1e3
	out["runtime.gc_pause_ms.max"] = tr.rt.pauseMax.Seconds() * 1e3

	for name, v := range sliceMedians(base) {
		if name != "ops_s" {
			out["timing."+name] = v
		}
	}

	all := func(w *window) float64 { return median(append(append([]float64(nil), w.update...), w.scan...)) }
	untracedP50 := all(base)
	out["trace.overhead_frac"] = ratio(all(tr)-untracedP50, untracedP50)
	out["trace.sample_cost_ns"] = float64(cfg.sampleCost.Nanoseconds())

	for name, v := range tr.layers {
		out[name] = v
	}
	for name := range absent {
		delete(out, name)
		fmt.Fprintf(os.Stderr, "perfbench: %s absent: the program no longer exposes its counter\n", name)
	}
	return out
}

// runtimeDelta is the Go runtime's work over a window.
type runtimeDelta struct {
	mallocs, bytes       uint64
	gcCycles             uint32
	pauseTotal, pauseMax time.Duration
}

// runtimeMark is a point-in-time reading of process CPU and the runtime's
// allocation and GC counters.
type runtimeMark struct {
	cpu time.Duration
	ms  runtime.MemStats
}

func markRuntime() runtimeMark {
	var m runtimeMark
	runtime.ReadMemStats(&m.ms)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		m.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return m
}

// heapPoll is how often a heapWatch reads the runtime's metrics, which
// stop nothing; collections come every few tens of milliseconds.
const heapPoll = 2 * time.Millisecond

// heapWatch records the heap each collection finds live while the load
// runs.
type heapWatch struct {
	stop chan struct{}
	done chan []float64
}

func watchHeap() *heapWatch {
	h := &heapWatch{stop: make(chan struct{}), done: make(chan []float64, 1)}
	samples := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/live:bytes"}}
	metrics.Read(samples)
	go func() {
		var live []float64
		last := samples[0].Value.Uint64()
		t := time.NewTicker(heapPoll)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				h.done <- live
				return
			case <-t.C:
			}
			metrics.Read(samples)
			if c := samples[0].Value.Uint64(); c != last {
				last = c
				live = append(live, float64(samples[1].Value.Uint64()))
			}
		}
	}()
	return h
}

// growth stops the watch and returns the median over its collections of
// the live heap, less base: a live set that fills and resets, like the
// server's scan cache, read once would swing with where in its cycle the
// reading fell.
func (h *heapWatch) growth(base float64) float64 {
	close(h.stop)
	live := <-h.done
	if len(live) == 0 {
		live = append(live, lastLiveHeap())
	}
	return median(live) - base
}

// since returns the process CPU and runtime work between from and m. The
// pause maximum covers at most the last 256 cycles, all the runtime keeps;
// the total is exact.
func (m runtimeMark) since(from runtimeMark) (time.Duration, runtimeDelta) {
	d := runtimeDelta{
		mallocs:    m.ms.Mallocs - from.ms.Mallocs,
		bytes:      m.ms.TotalAlloc - from.ms.TotalAlloc,
		gcCycles:   m.ms.NumGC - from.ms.NumGC,
		pauseTotal: time.Duration(m.ms.PauseTotalNs - from.ms.PauseTotalNs),
	}
	for i := uint32(0); i < d.gcCycles && i < uint32(len(m.ms.PauseNs)); i++ {
		p := time.Duration(m.ms.PauseNs[(m.ms.NumGC-i+255)%256])
		d.pauseMax = max(d.pauseMax, p)
	}
	return m.cpu - from.cpu, d
}

// liveHeap collects twice (the second pass also empties the sync.Pool
// victim caches) and returns the bytes the last collection found live.
func liveHeap() float64 {
	runtime.GC()
	runtime.GC()
	return lastLiveHeap()
}

// lastLiveHeap returns the bytes the latest collection found live.
func lastLiveHeap() float64 {
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(sample)
	return float64(sample[0].Value.Uint64())
}

// objectStats reads the object's counters as untyped JSON, so a counter
// the program drops later shows up as absent rather than breaking the
// build.
func objectStats(obj snapshot.Object[int64]) (map[string]float64, error) {
	sr, ok := obj.(snapshot.StatsReader)
	if !ok {
		return map[string]float64{}, nil
	}
	return numericJSON(sr.Stats())
}

// numericJSON round-trips v through JSON and keeps its numeric and boolean
// top-level fields (true reads 1).
func numericJSON(v any) (map[string]float64, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	var fields map[string]any
	if err := json.Unmarshal(raw, &fields); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for k, f := range fields {
		switch x := f.(type) {
		case float64:
			out[k] = x
		case bool:
			if x {
				out[k] = 1
			} else {
				out[k] = 0
			}
		}
	}
	return out, nil
}

// sampleCost measures what timing one operation adds: the median of many
// back-to-back clock-read pairs.
func sampleCost() time.Duration {
	const n = 20001
	costs := make([]float64, n)
	for i := range costs {
		t0 := time.Now()
		costs[i] = float64(time.Since(t0))
	}
	sort.Float64s(costs)
	return time.Duration(costs[n/2])
}

// stamp prints the run's provenance on its own line, ahead of the result.
func stamp(out io.Writer, name string, cfg config) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
			if s.Key == "vcs.modified" && s.Value == "true" {
				commit += "+dirty"
			}
		}
	}
	line, _ := json.Marshal(map[string]any{
		"stamp": map[string]any{
			"workload":       name,
			"seed":           cfg.seed,
			"window_s":       cfg.window.Seconds(),
			"traced":         cfg.traced,
			"offered_rate":   cfg.rate,
			"load_workers":   loadWorkers,
			"num_cpu":        runtime.NumCPU(),
			"gomaxprocs":     runtime.GOMAXPROCS(0),
			"go_version":     runtime.Version(),
			"commit":         commit,
			"sample_cost_ns": cfg.sampleCost.Nanoseconds(),
			"setup_reps":     setupReps,
			"warmup_s":       warmup.Seconds(),
			"components":     components,
			"implementation": string(snapshot.ImplLockFree),
		},
	})
	fmt.Fprintln(out, string(line))
}

// writeSpans writes a traced window's spans under .bench_build/traces in
// the working directory, one file per workload, replaced by each run.
func writeSpans(name string, spans func(io.Writer) error) error {
	dir := ".bench_build/traces"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(dir + "/" + name + ".jsonl")
	if err != nil {
		return err
	}
	if err := spans(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
