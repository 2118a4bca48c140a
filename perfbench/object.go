package main

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"partialsnapshot/internal/snapshot"
	"partialsnapshot/internal/workload"
)

// objectWorkload is an object workload's traffic and its offered load.
type objectWorkload struct {
	shape workload.Config
	// perTick is how many ops each worker is offered at the start of every
	// tick, a multiple of batchLen.
	perTick int64
}

// The object workloads call the object directly from loadWorkers
// goroutines: scans of width 4, updates of width 2, half of each. Each is
// offered about a third of what the two workers complete flat out on the
// tuning host, so the Go runtime and the host's own work find an idle CPU
// instead of preempting a worker.
var (
	partitioned = objectWorkload{workload.Config{Shape: workload.Partitioned, Components: components,
		Workers: loadWorkers, ScanWidth: 4, UpdateWidth: 2, ScanFrac: 0.5}, 1024}
	contended = objectWorkload{workload.Config{Shape: workload.Zipfian, Components: components,
		Workers: loadWorkers, ScanWidth: 4, UpdateWidth: 2, ScanFrac: 0.5}, 512}
)

// tick is the object workloads' pacing period. Every worker starts its
// tick's ops when the tick begins, on a clock all workers share, so their
// bursts overlap and collide on whatever components they share.
const tick = time.Millisecond

// offered is the ops per second an object workload offers over all workers.
func (o objectWorkload) offered() float64 {
	return float64(o.perTick*loadWorkers) / tick.Seconds()
}

// sampleEvery is the object workloads' timing stride: one op in
// sampleEvery per worker is timed, the others run bare. It is prime to
// batchLen, so the timed op moves through every position of a batch
// rather than always being the first op after a draw or a pause.
const sampleEvery = 251

// newObject builds the one object every workload measures: the default
// implementation with no options, 64 components.
func newObject() (snapshot.Object[int64], error) {
	return snapshot.New[int64](snapshot.ImplLockFree, components)
}

func apply(obj snapshot.Object[int64], op workload.Op) error {
	if op.Kind == workload.OpScan {
		_, err := obj.PartialScan(op.Comps)
		return err
	}
	return obj.Update(op.Comps, op.Vals)
}

// batchLen is how many ops a worker draws from its stream before applying
// them. Between batches it looks at the coordinator's slice counter, and a
// traced run times the drawing and the applying of each batch apart: two
// clock reads per batch instead of per op, so the parts add up to the
// worker's wall time without the clock's own cost swamping a 0.2µs op.
const batchLen = 256

// objWorker is one load goroutine's state. It owns every field; the
// coordinator reads them only after the worker has returned.
type objWorker struct {
	stream *workload.Stream
	// last is the last value this worker wrote to each component, 0 if it
	// never wrote it (workload values are never 0).
	last [components]int64

	perTick int64
	pace    *pacer

	ops, failed    int64 // warm-up included
	updates, scans int64
	upd, scn       []float64 // sampled op times, µs
	// drawTime, applyTime and waitTime sum the traced batches' generator
	// and object time and the pauses between ticks over the measured window.
	drawTime, applyTime, waitTime time.Duration
	// cuts marks where each slice began in the worker's counts and samples;
	// the last cut is where the window ended.
	cuts     []cut
	firstErr error

	batch [batchLen]workload.Op
	comps []int // backing store of batch's Comps and Vals
	vals  []int64
}

type cut struct {
	ops      int64
	upd, scn int
	at       time.Time
}

// objectSetup is everything an object workload builds before its first
// measured op: the generator and its streams, the object.
type objectSetup struct {
	workers  []*objWorker
	obj      snapshot.Object[int64]
	heapBase float64
}

// setUpObject builds an object workload from nothing up to its first op, a
// full scan. A probe builds only that; otherwise the workers also get their
// sample and batch buffers, and the live-heap baseline is taken after them
// and before the object.
func setUpObject(ow objectWorkload, cfg config, probe bool) (*objectSetup, error) {
	shape := ow.shape
	shape.Seed = cfg.seed
	gen, err := workload.New(shape)
	if err != nil {
		return nil, err
	}
	s := &objectSetup{workers: make([]*objWorker, loadWorkers)}
	for i := range s.workers {
		s.workers[i] = &objWorker{stream: gen.Stream(i), perTick: ow.perTick}
	}
	if !probe {
		// Pacing bounds how many ops a worker can run in the window, which
		// bounds its samples; a worker running late takes none past this.
		samples := int((int64(cfg.window/tick)+2)*ow.perTick/sampleEvery) + 1
		width := max(gen.Config().ScanWidth, gen.Config().UpdateWidth)
		for _, w := range s.workers {
			w.cuts = make([]cut, 0, slices+1)
			w.upd, w.scn = make([]float64, 0, samples), make([]float64, 0, samples)
			w.comps, w.vals = make([]int, batchLen*width), make([]int64, batchLen*width)
		}
		s.heapBase = liveHeap()
	}
	if s.obj, err = newObject(); err != nil {
		return nil, err
	}
	if _, err := s.obj.Scan(); err != nil {
		return nil, fmt.Errorf("first scan: %w", err)
	}
	return s, nil
}

func setupObject(ow objectWorkload) func(config) error {
	return func(cfg config) error {
		_, err := setUpObject(ow, cfg, true)
		return err
	}
}

func runObject(ow objectWorkload) func(config) (*window, error) {
	return func(cfg config) (*window, error) {
		s, err := setUpObject(ow, cfg, false)
		if err != nil {
			return nil, err
		}
		workers, obj := s.workers, s.obj
		defer func() {
			for _, w := range workers {
				if w.pace != nil {
					w.pace.close()
				}
			}
		}()
		for _, w := range workers {
			if w.pace, err = newPacer(); err != nil {
				return nil, err
			}
		}

		// cur tells the workers which slice is being measured: -1 during
		// warm-up, slices once the window is over.
		var cur atomic.Int32
		cur.Store(-1)
		var wg sync.WaitGroup
		start := time.Now() // tick 0 of every worker
		for _, w := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				w.loop(obj, &cur, start, cfg.traced)
			}()
		}
		time.Sleep(warmup)
		marks := make([]runtimeMark, slices+1)
		stamps := make([]time.Time, slices+1)
		begin := time.Now()
		for i := range marks {
			time.Sleep(time.Until(begin.Add(time.Duration(i) * cfg.window / slices)))
			cur.Store(int32(i))
			stamps[i], marks[i] = time.Now(), markRuntime()
		}
		wg.Wait()

		// The object's live set is its components' latest cells and the
		// registry, the same size at any quiet moment, so one collection
		// with the workers stopped measures it exactly. It runs before the
		// results are assembled, which allocates in proportion to the
		// samples taken.
		win := &window{heapGrowth: liveHeap() - s.heapBase}
		_, win.rt = marks[slices].since(marks[0])
		for i := 0; i < slices; i++ {
			sl := slice{dur: stamps[i+1].Sub(stamps[i])}
			sl.cpu, _ = marks[i+1].since(marks[i])
			for _, w := range workers {
				from, to := w.cuts[i], w.cuts[i+1]
				sl.ops += float64(to.ops - from.ops)
				sl.update = append(sl.update, w.upd[from.upd:to.upd]...)
				sl.scan = append(sl.scan, w.scn[from.scn:to.scn]...)
			}
			win.slices = append(win.slices, sl)
		}
		for _, w := range workers {
			win.attempted += w.ops
			win.failed += w.failed
			win.updates += w.updates
			win.scans += w.scans
			win.update = append(win.update, w.upd...)
			win.scan = append(win.scan, w.scn...)
			if w.firstErr != nil {
				win.problems = append(win.problems, fmt.Sprintf("op failed: %v", w.firstErr))
			}
		}

		win.problems = append(win.problems, checkFinal(obj, workers)...)
		if win.objStats, err = objectStats(obj); err != nil {
			return nil, err
		}
		if v, ok := win.objStats["live_announcements"]; ok && v != 0 {
			win.problems = append(win.problems, fmt.Sprintf("%v announcements still live after the window", v))
		}
		if cfg.traced {
			win.layers = objectLayers(win, workers)
			win.spans = func(out io.Writer) error { return writeObjectSpans(out, workers) }
		}
		return win, nil
	}
}

// loop runs the worker's stream in batches until the window is over,
// perTick ops per tick counted from start, timing one op in sampleEvery
// while measuring. A worker that falls behind runs its batches back to
// back until it has caught up.
func (w *objWorker) loop(obj snapshot.Object[int64], cur *atomic.Int32, start time.Time, traced bool) {
	measured := int32(-1)
	width := len(w.comps) / batchLen
	for {
		for s := cur.Load(); measured < s; {
			measured++
			w.cuts = append(w.cuts, cut{ops: w.ops, upd: len(w.upd), scn: len(w.scn), at: time.Now()})
		}
		if measured == slices {
			return
		}
		if w.ops%w.perTick == 0 {
			w.waitForTick(start.Add(time.Duration(w.ops/w.perTick)*tick), traced && measured >= 0)
		}
		var t0 time.Time
		if traced {
			t0 = time.Now()
		}
		for j := range w.batch {
			op := w.stream.Next()
			b := workload.Op{Kind: op.Kind, Comps: w.comps[j*width : j*width+len(op.Comps)]}
			copy(b.Comps, op.Comps)
			if op.Kind == workload.OpUpdate {
				b.Vals = w.vals[j*width : j*width+len(op.Vals)]
				copy(b.Vals, op.Vals)
			}
			w.batch[j] = b
		}
		var t1 time.Time
		if traced {
			t1 = time.Now()
		}
		for j := range w.batch {
			w.apply(obj, &w.batch[j], measured >= 0 && (w.ops+int64(j))%sampleEvery == 0)
		}
		if traced && measured >= 0 {
			t2 := time.Now()
			w.drawTime += t1.Sub(t0)
			w.applyTime += t2.Sub(t1)
		}
		w.ops += batchLen
	}
}

// waitForTick pauses until due, if it is still ahead. A pacer that fails
// counts as a failed check, and the worker then runs unpaced.
func (w *objWorker) waitForTick(due time.Time, timed bool) {
	t0 := time.Now()
	if w.pace == nil || !t0.Before(due) {
		return
	}
	if err := w.pace.sleep(due.Sub(t0)); err != nil {
		if w.firstErr == nil {
			w.firstErr = fmt.Errorf("pacer: %w", err)
		}
		w.pace.close()
		w.pace = nil
	}
	if timed {
		w.waitTime += time.Since(t0)
	}
}

// apply runs one op, timing it if sampled, and keeps the worker's tallies.
func (w *objWorker) apply(obj snapshot.Object[int64], op *workload.Op, sampled bool) {
	var t0 time.Time
	if sampled {
		t0 = time.Now()
	}
	err := apply(obj, *op)
	if sampled {
		d := us(time.Since(t0))
		if op.Kind == workload.OpScan {
			w.scn = appendCapped(w.scn, d)
		} else {
			w.upd = appendCapped(w.upd, d)
		}
	}
	switch {
	case err != nil:
		w.failed++
		if w.firstErr == nil {
			w.firstErr = err
		}
	case op.Kind == workload.OpScan:
		w.scans++
	default:
		w.updates++
		for i, c := range op.Comps {
			w.last[c] = op.Vals[i]
		}
	}
}

// appendCapped appends within the preallocated capacity only, so sampling
// never grows the heap mid-window.
func appendCapped(s []float64, v float64) []float64 {
	if len(s) == cap(s) {
		return s
	}
	return append(s, v)
}

// checkFinal takes a quiescent full scan and checks that every component
// holds the last value some worker wrote to it (0 if none did). On the
// partitioned shape each component has one writer, so this is exact.
func checkFinal(obj snapshot.Object[int64], workers []*objWorker) []string {
	vals, err := obj.Scan()
	if err != nil {
		return []string{fmt.Sprintf("final scan: %v", err)}
	}
	if len(vals) != components {
		return []string{fmt.Sprintf("final scan returned %d values for %d components", len(vals), components)}
	}
	var problems []string
	for c, v := range vals {
		ok, written := false, false
		for _, w := range workers {
			if w.last[c] != 0 {
				written = true
				ok = ok || v == w.last[c]
			}
		}
		if !written {
			ok = v == 0
		}
		if !ok {
			problems = append(problems, fmt.Sprintf("component %d holds %d, not the last value any worker wrote", c, v))
		}
	}
	return problems
}

// objectLayers derives the object workloads' layer figures: the object's
// sampled op times, the generator's share of each op, and how much of the
// workers' wall time the two leave unexplained.
func objectLayers(win *window, workers []*objWorker) map[string]float64 {
	out := map[string]float64{}
	upd, scn := sorted(win.update), sorted(win.scan)
	out["snapshot.update_us.p50"] = median(upd)
	out["snapshot.update_us.p99"] = p99(upd)
	out["snapshot.scan_us.p50"] = median(scn)
	out["snapshot.scan_us.p99"] = p99(scn)

	var wall, draw, applied, waited time.Duration
	var ops int64
	for _, w := range workers {
		first, last := w.cuts[0], w.cuts[len(w.cuts)-1]
		wall += last.at.Sub(first.at)
		ops += last.ops - first.ops
		draw += w.drawTime
		applied += w.applyTime
		waited += w.waitTime
	}
	out["workload.next_ns"] = ratio(float64(draw), float64(ops))
	out["trace.residual_frac"] = residual(float64(wall), float64(draw), float64(applied), float64(waited))
	return out
}

func writeObjectSpans(out io.Writer, workers []*objWorker) error {
	for i, w := range workers {
		for _, s := range []struct {
			op      string
			samples []float64
		}{{"update", w.upd}, {"scan", w.scn}} {
			sum := 0.0
			for _, v := range s.samples {
				sum += v
			}
			if _, err := fmt.Fprintf(out, `{"layer":"snapshot","worker":%d,"op":%q,"sampled":%d,"total_us":%g}`+"\n",
				i, s.op, len(s.samples), sum); err != nil {
				return err
			}
		}
	}
	return nil
}
