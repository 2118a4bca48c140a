// Package workload generates the named operation streams that drive every
// schedule-driven test and benchmark in this repository. One Config names
// a workload shape (how component sets are drawn, how wide operations are,
// the scan/update mix) and yields a deterministic per-worker stream of
// operations, so the same scenario name means the same traffic whether it
// is being model-checked for correctness (internal/snapshot's exploration
// tests), stress-tested under -race, or measured (perfbench's object
// workloads) — correctness search and performance measurement stop
// drifting apart the moment they share the generator.
//
// Every stream draws from its own math/rand/v2 PCG source seeded with the
// pair (Config.Seed, worker): two words of state, seeded in O(1), so
// setting up a stream costs far less than the object it drives.
//
// The package is deliberately ignorant of the snapshot object: it emits
// (kind, components, values) triples and nothing else, so it imports
// neither internal/snapshot nor internal/spec.
package workload

import (
	"fmt"
	"math/rand/v2"
)

// Shape names a workload distribution.
type Shape string

const (
	// Uniform draws every operation's component set uniformly from the
	// whole object — the baseline mixed workload.
	Uniform Shape = "uniform"
	// Zipfian skews component choice toward low component ids with a
	// Zipf(1.2) rank distribution: a few hot components absorb most of
	// the traffic, the contention shape that exercises helping hardest.
	Zipfian Shape = "zipfian"
	// Partitioned pins worker w of W to the component range
	// [w*(n/W), (w+1)*(n/W)): disjoint working sets, the paper's locality
	// workload.
	Partitioned Shape = "partitioned"
	// BatchHeavy is update-dominated traffic of wide multi-component
	// batches — the shape that maximises per-update registry walks and
	// half-applied-batch windows.
	BatchHeavy Shape = "batch-heavy"
	// ScanHeavy is scan-dominated traffic of wide partial scans — the
	// shape that keeps announcements live and forces updaters through the
	// helping path.
	ScanHeavy Shape = "scan-heavy"
	// UpdateHeavy is pure update traffic: no worker ever scans, so no
	// announcement is ever live and every updater's registry consultation
	// reads a nil slot head and skips the walk — the shape that measures
	// the uncontended update fast path.
	UpdateHeavy Shape = "update-heavy"
)

// Shapes lists every named shape, in the order test matrices iterate them.
func Shapes() []Shape {
	return []Shape{Uniform, Zipfian, Partitioned, BatchHeavy, ScanHeavy, UpdateHeavy}
}

// zipfSkew is the rank exponent of the Zipfian shape: rand.NewZipf draws
// rank k with probability proportional to (1+k)^-zipfSkew (larger = hotter
// head).
const zipfSkew = 1.2

// Config describes one workload. Zero ScanWidth/UpdateWidth and negative
// ScanFrac mean "the shape's default"; explicit values override the shape.
type Config struct {
	Shape      Shape `json:"shape"`
	Components int   `json:"components"`
	Workers    int   `json:"workers"`
	// ScanWidth is the number of components each partial scan names
	// (0 = shape default).
	ScanWidth int `json:"scan_width"`
	// UpdateWidth is the number of components each update names
	// (0 = shape default).
	UpdateWidth int `json:"update_width"`
	// ScanFrac is the fraction of operations that are scans, in [0,1];
	// any negative value selects the shape default.
	ScanFrac float64 `json:"scan_frac"`
	// Seed determines every stream: identical configs yield identical
	// per-worker operation sequences.
	Seed int64 `json:"seed"`
}

// shapeDefaults fills unset knobs from the shape's identity.
func (c Config) shapeDefaults() Config {
	def := func(v *int, d int) {
		if *v == 0 {
			if d > c.Components {
				d = c.Components
			}
			if d < 1 {
				d = 1
			}
			*v = d
		}
	}
	switch c.Shape {
	case BatchHeavy:
		def(&c.ScanWidth, 2)
		def(&c.UpdateWidth, c.Components/2)
		if c.ScanFrac < 0 {
			c.ScanFrac = 0.15
		}
	case ScanHeavy:
		def(&c.ScanWidth, c.Components/2)
		def(&c.UpdateWidth, 1)
		if c.ScanFrac < 0 {
			c.ScanFrac = 0.9
		}
	case UpdateHeavy:
		def(&c.ScanWidth, 1)
		def(&c.UpdateWidth, 2)
		if c.ScanFrac < 0 {
			c.ScanFrac = 0
		}
	default:
		def(&c.ScanWidth, 4)
		def(&c.UpdateWidth, 2)
		if c.ScanFrac < 0 {
			c.ScanFrac = 0.5
		}
	}
	return c
}

// Validate resolves shape defaults and rejects impossible configs. The
// returned Config is the resolved one; generators and benchmarks should
// use it, not the input.
func (c Config) Validate() (Config, error) {
	known := false
	for _, s := range Shapes() {
		if c.Shape == s {
			known = true
			break
		}
	}
	if !known {
		return c, fmt.Errorf("workload: unknown shape %q (want one of %v)", c.Shape, Shapes())
	}
	if c.Components <= 0 || c.Workers <= 0 {
		return c, fmt.Errorf("workload: components and workers must be positive, got %d and %d", c.Components, c.Workers)
	}
	if c.ScanWidth < 0 || c.UpdateWidth < 0 {
		return c, fmt.Errorf("workload: widths must be non-negative, got scan %d update %d", c.ScanWidth, c.UpdateWidth)
	}
	c = c.shapeDefaults()
	if c.ScanFrac > 1 {
		return c, fmt.Errorf("workload: scan fraction %v out of range [0,1]", c.ScanFrac)
	}
	pool := c.Components
	if c.Shape == Partitioned {
		pool = c.Components / c.Workers
		if pool < 1 {
			return c, fmt.Errorf("workload: partitioned shape needs at least one component per worker, got %d components for %d workers", c.Components, c.Workers)
		}
	}
	if c.ScanWidth > pool || c.UpdateWidth > pool {
		return c, fmt.Errorf("workload: %s pool of %d components too narrow for widths %d/%d", c.Shape, pool, c.ScanWidth, c.UpdateWidth)
	}
	return c, nil
}

// Kind discriminates generated operations.
type Kind uint8

const (
	// OpUpdate writes Vals[i] to component Comps[i].
	OpUpdate Kind = iota
	// OpScan partially scans Comps.
	OpScan
)

// Op is one generated operation. Comps and Vals alias the stream's
// internal buffers and are overwritten by the next Next call — callers
// that retain an op (history recorders) must Clone it; callers that apply
// it immediately (benchmark loops) incur zero allocations.
type Op struct {
	Kind  Kind
	Comps []int
	Vals  []int64
}

// Clone returns an Op with freshly allocated slices, safe to retain.
func (op Op) Clone() Op {
	out := Op{Kind: op.Kind, Comps: append([]int(nil), op.Comps...)}
	if op.Vals != nil {
		out.Vals = append([]int64(nil), op.Vals...)
	}
	return out
}

// Value encodes (worker, seq) into a written value so that every write in
// a run is globally distinct and nonzero — the precision the spec
// checker's interval analysis relies on (0 is reserved for the initial
// component value).
func Value(worker, seq int) int64 {
	return int64(worker+1)<<40 | int64(seq+1)
}

// Generator produces per-worker operation streams for one validated
// Config.
type Generator struct {
	cfg Config
}

// New validates cfg and returns its generator.
func New(cfg Config) (*Generator, error) {
	resolved, err := cfg.Validate()
	if err != nil {
		return nil, err
	}
	return &Generator{cfg: resolved}, nil
}

// Config returns the resolved configuration (shape defaults filled in).
func (g *Generator) Config() Config { return g.cfg }

// Stream returns worker w's operation stream, drawn from a PCG source
// seeded with (Seed, w). Streams are independent and deterministic:
// stream w of two generators with equal configs yield identical
// sequences, which is what lets the parity suite drive two
// implementations with the same traffic and the exploration tests replay
// a workload from (shape, seed) alone.
func (g *Generator) Stream(worker int) *Stream {
	if worker < 0 || worker >= g.cfg.Workers {
		panic(fmt.Sprintf("workload: worker %d out of range [0,%d)", worker, g.cfg.Workers))
	}
	c := g.cfg
	lo, n := 0, c.Components
	if c.Shape == Partitioned {
		n = c.Components / c.Workers
		lo = worker * n
	}
	pool := make([]int, n)
	for i := range pool {
		pool[i] = lo + i
	}
	rng := rand.New(rand.NewPCG(uint64(c.Seed), uint64(worker)))
	s := &Stream{
		cfg:    c,
		worker: worker,
		rng:    rng,
		pool:   pool,
		comps:  make([]int, max(c.ScanWidth, c.UpdateWidth)),
		vals:   make([]int64, c.UpdateWidth),
	}
	if c.Shape == Zipfian {
		s.zipf = rand.NewZipf(rng, zipfSkew, 1, uint64(n-1))
	}
	return s
}

// Ops returns the first n operations of worker w's stream, cloned and safe
// to retain — the form the exploration and parity tests consume.
func (g *Generator) Ops(worker, n int) []Op {
	s := g.Stream(worker)
	out := make([]Op, n)
	for i := range out {
		out[i] = s.Next().Clone()
	}
	return out
}

// Stream is one worker's deterministic operation sequence.
type Stream struct {
	cfg    Config
	worker int
	rng    *rand.Rand
	zipf   *rand.Zipf
	pool   []int // permutation of the worker's component pool
	comps  []int // reused Op.Comps buffer
	vals   []int64
	seq    int
}

// Next returns the stream's next operation. The returned slices are
// reused; see Op.
func (s *Stream) Next() Op {
	// Degenerate mixes draw no mix decision: a pure-scan (frac >= 1) or
	// pure-update (frac <= 0) stream spends its randomness only on component
	// picks. Mixed streams consume exactly one Float64 per op. Any change to
	// the draws changes every seeded stream, which TestGoldenStreamFingerprints
	// pins.
	if s.cfg.ScanFrac >= 1 || (s.cfg.ScanFrac > 0 && s.rng.Float64() < s.cfg.ScanFrac) {
		return Op{Kind: OpScan, Comps: s.pick(s.cfg.ScanWidth)}
	}
	comps := s.pick(s.cfg.UpdateWidth)
	vals := s.vals[:len(comps)]
	for i := range vals {
		vals[i] = Value(s.worker, s.seq)
		s.seq++
	}
	return Op{Kind: OpUpdate, Comps: comps, Vals: vals}
}

// pick fills the comps buffer with k distinct components from the
// worker's pool, per the shape's distribution.
func (s *Stream) pick(k int) []int {
	if s.zipf != nil {
		return s.pickZipf(k)
	}
	// Partial Fisher–Yates over the persistent pool: O(k), allocation-free,
	// uniform over k-subsets; the pool stays a permutation of itself.
	n := len(s.pool)
	for i := 0; i < k; i++ {
		j := i + s.rng.IntN(n-i)
		s.pool[i], s.pool[j] = s.pool[j], s.pool[i]
	}
	return append(s.comps[:0], s.pool[:k]...)
}

// pickZipf draws k distinct components with Zipf-distributed ranks over
// the pool (rank 0 = the pool's first component, the hottest). Collisions
// redraw a few times and then walk upward from the colliding component,
// which keeps the draw deterministic and terminating while preserving the
// skew.
func (s *Stream) pickZipf(k int) []int {
	comps := s.comps[:0]
	n := len(s.pool)
	lo := s.pool[0] // zipf streams never permute the pool, so it stays sorted
	taken := func(c int) bool {
		for _, x := range comps {
			if x == c {
				return true
			}
		}
		return false
	}
	for len(comps) < k {
		c := lo + int(s.zipf.Uint64())
		for tries := 0; taken(c) && tries < 4; tries++ {
			c = lo + int(s.zipf.Uint64())
		}
		for taken(c) {
			c = lo + (c-lo+1)%n
		}
		comps = append(comps, c)
	}
	return comps
}
