package workload

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"reflect"
	"runtime"
	"testing"
)

func baseConfig(shape Shape) Config {
	return Config{Shape: shape, Components: 16, Workers: 4, ScanFrac: -1, Seed: 1}
}

// TestStreamsAreDeterministic: equal configs produce byte-identical
// per-worker streams — the property that lets exploration failures replay
// from (shape, seed) and the parity suite drive every implementation with
// the same traffic.
func TestStreamsAreDeterministic(t *testing.T) {
	for _, shape := range Shapes() {
		t.Run(string(shape), func(t *testing.T) {
			a, err := New(baseConfig(shape))
			if err != nil {
				t.Fatal(err)
			}
			b, err := New(baseConfig(shape))
			if err != nil {
				t.Fatal(err)
			}
			for w := 0; w < 4; w++ {
				if x, y := a.Ops(w, 50), b.Ops(w, 50); !reflect.DeepEqual(x, y) {
					t.Fatalf("worker %d: same config, different streams", w)
				}
			}
			// Distinct workers draw from distinct rng streams.
			if x, y := a.Ops(0, 50), a.Ops(1, 50); reflect.DeepEqual(x, y) {
				t.Fatal("workers 0 and 1 produced identical streams")
			}
		})
	}
}

// TestOpsAreWellFormed: every generated op respects the shape's pool and
// widths, names no duplicate components, and never writes the reserved
// zero value — across all shapes.
func TestOpsAreWellFormed(t *testing.T) {
	for _, shape := range Shapes() {
		t.Run(string(shape), func(t *testing.T) {
			g, err := New(baseConfig(shape))
			if err != nil {
				t.Fatal(err)
			}
			cfg := g.Config()
			scans, updates := 0, 0
			for w := 0; w < cfg.Workers; w++ {
				for _, op := range g.Ops(w, 200) {
					want := cfg.UpdateWidth
					if op.Kind == OpScan {
						want = cfg.ScanWidth
						scans++
					} else {
						updates++
						if len(op.Vals) != len(op.Comps) {
							t.Fatalf("update has %d values for %d components", len(op.Vals), len(op.Comps))
						}
						for _, v := range op.Vals {
							if v == 0 {
								t.Fatal("generated the reserved zero value")
							}
						}
					}
					if len(op.Comps) != want {
						t.Fatalf("%v op width %d, want %d", op.Kind, len(op.Comps), want)
					}
					seen := map[int]bool{}
					for _, c := range op.Comps {
						if c < 0 || c >= cfg.Components {
							t.Fatalf("component %d out of range [0,%d)", c, cfg.Components)
						}
						if seen[c] {
							t.Fatalf("duplicate component %d in %v", c, op.Comps)
						}
						seen[c] = true
					}
				}
			}
			// Degenerate fractions are pure streams by construction; every
			// other shape must produce a mix.
			wantScans, wantUpdates := cfg.ScanFrac > 0, cfg.ScanFrac < 1
			if (scans > 0) != wantScans || (updates > 0) != wantUpdates {
				t.Fatalf("shape %s (frac %v) generated %d scans / %d updates, want scans=%v updates=%v",
					shape, cfg.ScanFrac, scans, updates, wantScans, wantUpdates)
			}
		})
	}
}

// TestPartitionedStreamsAreDisjoint: worker w's ops stay inside its own
// component range — the structural property the locality tests and
// perfbench's object-partitioned workload rely on.
func TestPartitionedStreamsAreDisjoint(t *testing.T) {
	g, err := New(Config{Shape: Partitioned, Components: 16, Workers: 4, ScanFrac: -1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 4; w++ {
		lo, hi := w*4, (w+1)*4
		for _, op := range g.Ops(w, 100) {
			for _, c := range op.Comps {
				if c < lo || c >= hi {
					t.Fatalf("worker %d touched component %d outside its partition [%d,%d)", w, c, lo, hi)
				}
			}
		}
	}
}

// TestZipfianIsSkewed: the hottest component must absorb a far larger
// share of draws than the uniform rate, and the full pool must still be
// reachable.
func TestZipfianIsSkewed(t *testing.T) {
	g, err := New(Config{Shape: Zipfian, Components: 16, Workers: 1, ScanWidth: 1, UpdateWidth: 1, ScanFrac: -1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 16)
	total := 4000
	s := g.Stream(0)
	for i := 0; i < total; i++ {
		counts[s.Next().Comps[0]]++
	}
	if frac := float64(counts[0]) / float64(total); frac < 0.25 {
		t.Fatalf("component 0 drew %.0f%% of zipfian traffic, want a hot head (>= 25%%; uniform would be ~6%%)", frac*100)
	}
	touched := 0
	for _, n := range counts {
		if n > 0 {
			touched++
		}
	}
	if touched < 8 {
		t.Fatalf("zipfian tail too thin: only %d/16 components ever drawn", touched)
	}
}

// TestShapeDefaultsAndOverrides: unset knobs resolve per shape, explicit
// knobs win.
func TestShapeDefaultsAndOverrides(t *testing.T) {
	g, err := New(Config{Shape: ScanHeavy, Components: 16, Workers: 2, ScanFrac: -1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if cfg := g.Config(); cfg.ScanFrac != 0.9 || cfg.ScanWidth != 8 || cfg.UpdateWidth != 1 {
		t.Fatalf("scan-heavy defaults = %+v", cfg)
	}
	g, err = New(Config{Shape: BatchHeavy, Components: 16, Workers: 2, ScanFrac: -1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if cfg := g.Config(); cfg.ScanFrac != 0.15 || cfg.UpdateWidth != 8 {
		t.Fatalf("batch-heavy defaults = %+v", cfg)
	}
	g, err = New(Config{Shape: BatchHeavy, Components: 16, Workers: 2, UpdateWidth: 3, ScanFrac: 0.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if cfg := g.Config(); cfg.ScanFrac != 0.5 || cfg.UpdateWidth != 3 {
		t.Fatalf("explicit knobs lost: %+v", cfg)
	}
}

// TestValidateRejects: the invalid configs the benchmark CLI and tests
// must not silently accept.
func TestValidateRejects(t *testing.T) {
	bad := []Config{
		{Shape: "nonesuch", Components: 8, Workers: 1, ScanFrac: -1},
		{Shape: Uniform, Components: 0, Workers: 1, ScanFrac: -1},
		{Shape: Uniform, Components: 8, Workers: 0, ScanFrac: -1},
		{Shape: Uniform, Components: 8, Workers: 1, ScanFrac: 1.5},
		{Shape: Uniform, Components: 8, Workers: 1, ScanWidth: 9, ScanFrac: -1},
		{Shape: Uniform, Components: 8, Workers: 1, UpdateWidth: -1, ScanFrac: -1},
		// Partitioned: 4 workers over 8 components leaves pools of 2, too
		// narrow for a scan width of 4.
		{Shape: Partitioned, Components: 8, Workers: 4, ScanWidth: 4, ScanFrac: -1},
		{Shape: Partitioned, Components: 3, Workers: 4, ScanFrac: -1},
	}
	for i, cfg := range bad {
		cfg.Seed = 1
		if _, err := cfg.Validate(); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

// TestValueEncoding: values are nonzero and distinct across (worker, seq).
func TestValueEncoding(t *testing.T) {
	seen := map[int64]bool{}
	for w := 0; w < 8; w++ {
		for s := 0; s < 1000; s++ {
			v := Value(w, s)
			if v == 0 {
				t.Fatalf("Value(%d,%d) = 0, reserved for the initial component value", w, s)
			}
			if seen[v] {
				t.Fatalf("Value(%d,%d) = %d collides", w, s, v)
			}
			seen[v] = true
		}
	}
}

// TestNextReusesBuffers: the hot path the benchmark loop sits on must not
// allocate per operation. The count is not rounded, so an allocation on
// every second call reads as 0.5 and fails.
func TestNextReusesBuffers(t *testing.T) {
	for _, shape := range []Shape{Uniform, Zipfian, Partitioned, UpdateHeavy} {
		g, err := New(baseConfig(shape))
		if err != nil {
			t.Fatal(err)
		}
		s := g.Stream(0)
		if allocs, _ := mallocsPerRun(10_000, func() { s.Next() }); allocs != 0 {
			t.Fatalf("%s Stream.Next allocates %v per op, want 0", shape, allocs)
		}
	}
}

// mallocsPerRun returns the heap allocations and bytes f averages over
// runs calls. Like testing.AllocsPerRun it runs on one P, so no other
// goroutine allocates inside the window; unlike it, it does not truncate
// the averages to integers.
func mallocsPerRun(runs int, f func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs), float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// fingerprint hashes the first n ops of worker w's stream with FNV-64a:
// kind, a zero word, components and values of each op, little-endian.
// The zero word is where a resize amount used to be hashed; keeping it
// keeps the golden values below unchanged.
func fingerprint(g *Generator, w, n int) uint64 {
	h := fnv.New64a()
	var buf []byte
	s := g.Stream(w)
	for i := 0; i < n; i++ {
		op := s.Next()
		buf = append(buf[:0], byte(op.Kind))
		buf = binary.LittleEndian.AppendUint64(buf, 0)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(op.Comps)))
		for _, c := range op.Comps {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(c))
		}
		for _, v := range op.Vals {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
		}
		h.Write(buf)
	}
	return h.Sum64()
}

// TestGoldenStreamFingerprints pins the streams themselves: the first
// 1,000 ops of workers 0 and 1 at Seed 1, per shape. Every seeded test
// runs under these streams, so a change to the generator that moves them
// must update this table on purpose.
func TestGoldenStreamFingerprints(t *testing.T) {
	golden := map[Shape][2]uint64{
		Uniform:     {0x5a95da3bc76d0ecb, 0x1c83f662c83ba5a0},
		Zipfian:     {0x495f74ef8a15d384, 0x901360f4089c7fca},
		Partitioned: {0x49e620309ce618a5, 0x042293213647e369},
		BatchHeavy:  {0x130e5e45bccfdaa6, 0x8b10e93c0e513604},
		ScanHeavy:   {0x2676b2146634de34, 0x17684d97bbba395c},
		UpdateHeavy: {0x92cd4e0ac2b540ed, 0xe5ff9f79f6dbebf4},
	}
	for _, shape := range Shapes() {
		g, err := New(baseConfig(shape))
		if err != nil {
			t.Fatal(err)
		}
		for w := 0; w < 2; w++ {
			got := fingerprint(g, w, 1000)
			if want := golden[shape][w]; got != want {
				t.Errorf("%s worker %d: fingerprint %#016x, want %#016x", shape, w, got, want)
			}
		}
	}
}

// TestZipfianFollowsTheLaw: width-1 zipfian picks draw component k with
// probability (1+k)^-1.2 / Σ_{j=1..n} j^-1.2. Component 0's share over
// 100,000 picks on 16 components must sit within 2 points of the law's
// 1/Σ — the distribution itself, not only its skew.
func TestZipfianFollowsTheLaw(t *testing.T) {
	const n, total = 16, 100_000
	g, err := New(Config{Shape: Zipfian, Components: n, Workers: 1, ScanWidth: 1, UpdateWidth: 1, ScanFrac: -1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for j := 1; j <= n; j++ {
		sum += math.Pow(float64(j), -zipfSkew)
	}
	want := 1 / sum
	hits := 0
	s := g.Stream(0)
	for i := 0; i < total; i++ {
		if s.Next().Comps[0] == 0 {
			hits++
		}
	}
	got := float64(hits) / total
	if math.Abs(got-want) > 0.02 {
		t.Fatalf("component 0 drew %.2f%% of zipfian picks, the law gives %.2f%%", got*100, want*100)
	}
	t.Logf("component 0 drew %.2f%% of zipfian picks, the law gives %.2f%%", got*100, want*100)
}

// streamConfig is the object benchmarks' traffic at 64 components: scans
// of width 4, updates of width 2, half of each, two workers.
func streamConfig(shape Shape) Config {
	return Config{Shape: shape, Components: 64, Workers: 2, ScanWidth: 4, UpdateWidth: 2, ScanFrac: 0.5, Seed: 1}
}

// TestStreamSetupAllocsAndBytes bounds what setting up a stream costs: at
// 64 components, at most 8 allocations and 1 KiB for every shape. A
// source whose seeding allocates or fills a large state table breaks it.
func TestStreamSetupAllocsAndBytes(t *testing.T) {
	const allocBudget, byteBudget = 8, 1024
	for _, shape := range Shapes() {
		g, err := New(streamConfig(shape))
		if err != nil {
			t.Fatal(err)
		}
		var sink *Stream
		i := 0
		allocs, bytes := mallocsPerRun(1000, func() {
			sink = g.Stream(i % 2)
			i++
		})
		runtime.KeepAlive(sink)
		if allocs > allocBudget || bytes > byteBudget {
			t.Errorf("%s Stream: %.1f allocs, %.0f B; budget %d allocs, %d B", shape, allocs, bytes, allocBudget, byteBudget)
		} else {
			t.Logf("%s Stream: %.1f allocs, %.0f B", shape, allocs, bytes)
		}
	}
}

// BenchmarkStream times setting up one stream per shape.
func BenchmarkStream(b *testing.B) {
	for _, shape := range Shapes() {
		b.Run(string(shape), func(b *testing.B) {
			g, err := New(streamConfig(shape))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for b.Loop() {
				g.Stream(0)
			}
		})
	}
}

// BenchmarkStreamNext times the generator's per-op cost per shape.
func BenchmarkStreamNext(b *testing.B) {
	for _, shape := range Shapes() {
		b.Run(string(shape), func(b *testing.B) {
			g, err := New(streamConfig(shape))
			if err != nil {
				b.Fatal(err)
			}
			s := g.Stream(0)
			b.ReportAllocs()
			for b.Loop() {
				s.Next()
			}
		})
	}
}
