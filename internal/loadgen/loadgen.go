// Package loadgen is snapload's closed-loop HTTP load generator: N
// connection workers replay internal/workload's named shapes against a
// snapshotd instance — the same deterministic streams the parity suite
// model-checks and the bench measures, driven over the wire. Closed loop
// means each worker has exactly one request in flight: throughput is
// paced by the server's latency, and the per-request latency samples feed
// the report's percentile histogram.
package loadgen

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"partialsnapshot/internal/server"
	"partialsnapshot/internal/workload"
)

// Config describes one load run.
type Config struct {
	// BaseURL is the snapshotd instance, e.g. "http://127.0.0.1:8080".
	BaseURL string `json:"base_url"`
	// Conns is the number of closed-loop connection workers.
	Conns int `json:"conns"`
	// Duration is how long the run drives traffic.
	Duration time.Duration `json:"duration_ns"`
	// Scenario is the workload shape name ("mixed" = uniform, or any
	// internal/workload shape).
	Scenario string `json:"scenario"`
	// Components is the object size the workload is generated for; 0 reads
	// it from the server's /stats (it must match the server's object, or
	// the generated ids will draw bad_component rejections).
	Components int `json:"components"`
	// ScanWidth, UpdateWidth and ScanFrac tune the shape (zero values =
	// shape defaults, as everywhere else).
	ScanWidth   int     `json:"scan_width"`
	UpdateWidth int     `json:"update_width"`
	ScanFrac    float64 `json:"scan_frac"`
	// Batch coalesces up to this many consecutive update ops of a worker's
	// stream into one POST /update request (<=1 = no batching). Scans and
	// resizes flush the pending batch first, preserving each worker's
	// program order.
	Batch int `json:"batch,omitempty"`
	// Seed makes the run reproducible.
	Seed int64 `json:"seed"`
	// SkipConformance skips the end-of-run GET /conformance call.
	SkipConformance bool `json:"skip_conformance,omitempty"`
}

// Report is one run's outcome — the BENCH_serving.json payload.
type Report struct {
	Config      Config  `json:"config"`
	GeneratedAt string  `json:"generated_at"`
	ElapsedSec  float64 `json:"elapsed_sec"`

	// Requests counts HTTP round trips; Ops counts logical operations
	// (a batched update request carries several ops).
	Requests  uint64  `json:"requests"`
	Ops       uint64  `json:"ops"`
	UpdateOps uint64  `json:"update_ops"`
	ScanOps   uint64  `json:"scan_ops"`
	ResizeOps uint64  `json:"resize_ops,omitempty"`
	Rejected  uint64  `json:"rejected,omitempty"`
	OpsPerSec float64 `json:"ops_per_sec"`

	// Errors5xx must be zero on a healthy run; Errors4xx counts rejections
	// OTHER than the tolerated resize-race bad_component traffic (which is
	// Rejected).
	Errors5xx uint64 `json:"errors_5xx"`
	Errors4xx uint64 `json:"errors_4xx"`

	// Latency percentiles over every request's wall time, in milliseconds,
	// plus a fixed exponential-bucket histogram for trajectory diffing.
	LatencyP50Ms float64           `json:"latency_p50_ms"`
	LatencyP95Ms float64           `json:"latency_p95_ms"`
	LatencyP99Ms float64           `json:"latency_p99_ms"`
	LatencyMaxMs float64           `json:"latency_max_ms"`
	Histogram    []HistogramBucket `json:"latency_histogram"`

	// Conformance is the server's end-of-run conformance verdict over the
	// whole run (nil when skipped).
	Conformance *server.ConformanceResp `json:"conformance,omitempty"`
}

// HistogramBucket counts requests with latency <= UpToMs (the last bucket
// is unbounded, UpToMs = 0).
type HistogramBucket struct {
	UpToMs float64 `json:"up_to_ms"`
	Count  uint64  `json:"count"`
}

// bucketBounds is the fixed latency histogram shape, in ms.
var bucketBounds = []float64{0.1, 0.2, 0.5, 1, 2, 5, 10, 20, 50, 100, 250}

// Run executes one closed-loop load run. It fails fast on config errors
// and connectivity (a /healthz probe); in-run HTTP errors are counted,
// not fatal, so the report always reflects what the server actually did.
func Run(cfg Config) (Report, error) {
	if cfg.Conns <= 0 {
		return Report{}, fmt.Errorf("loadgen: conns must be positive, got %d", cfg.Conns)
	}
	if cfg.Duration <= 0 {
		return Report{}, fmt.Errorf("loadgen: duration must be positive, got %v", cfg.Duration)
	}
	client := newClient(cfg.Conns)
	if err := probe(client, cfg.BaseURL); err != nil {
		return Report{}, err
	}
	if cfg.Components == 0 {
		n, err := serverComponents(client, cfg.BaseURL)
		if err != nil {
			return Report{}, err
		}
		cfg.Components = n
	}
	shape := workload.Uniform
	if cfg.Scenario != "" && cfg.Scenario != "mixed" {
		found := false
		for _, s := range workload.Shapes() {
			if cfg.Scenario == string(s) {
				shape, found = s, true
			}
		}
		if !found {
			return Report{}, fmt.Errorf("loadgen: unknown scenario %q (want mixed or one of %v)", cfg.Scenario, workload.Shapes())
		}
	}
	gen, err := workload.New(workload.Config{
		Shape:       shape,
		Components:  cfg.Components,
		Workers:     cfg.Conns,
		ScanWidth:   cfg.ScanWidth,
		UpdateWidth: cfg.UpdateWidth,
		ScanFrac:    cfg.ScanFrac,
		Seed:        cfg.Seed,
	})
	if err != nil {
		return Report{}, fmt.Errorf("loadgen: %w", err)
	}
	resolved := gen.Config()
	cfg.ScanWidth, cfg.UpdateWidth = resolved.ScanWidth, resolved.UpdateWidth
	cfg.ScanFrac = resolved.ScanFrac

	tolerateRejects := resolved.Shape.Resizes()
	var stop atomic.Bool
	var wg sync.WaitGroup
	workers := make([]workerState, cfg.Conns)
	start := time.Now()
	for w := 0; w < cfg.Conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			runWorker(&workers[w], client, cfg, gen.Stream(w), &stop, tolerateRejects)
		}(w)
	}
	time.Sleep(cfg.Duration)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)

	rep := Report{Config: cfg, GeneratedAt: time.Now().UTC().Format(time.RFC3339), ElapsedSec: elapsed.Seconds()}
	var all []float64
	for i := range workers {
		ws := &workers[i]
		rep.Requests += ws.requests
		rep.UpdateOps += ws.updates
		rep.ScanOps += ws.scans
		rep.ResizeOps += ws.resizes
		rep.Rejected += ws.rejected
		rep.Errors5xx += ws.errors5xx
		rep.Errors4xx += ws.errors4xx
		all = append(all, ws.latencies...)
	}
	rep.Ops = rep.UpdateOps + rep.ScanOps + rep.ResizeOps
	rep.OpsPerSec = float64(rep.Ops) / rep.ElapsedSec
	rep.LatencyP50Ms, rep.LatencyP95Ms, rep.LatencyP99Ms, rep.LatencyMaxMs = percentiles(all)
	rep.Histogram = histogram(all)

	if !cfg.SkipConformance {
		cr, err := fetchConformance(client, cfg.BaseURL)
		if err != nil {
			return rep, err
		}
		rep.Conformance = cr
	}
	return rep, nil
}

// workerState is one connection worker's tallies; padded out by the slice
// header distance, contended never (each worker owns its element).
type workerState struct {
	requests, updates, scans, resizes uint64
	rejected, errors5xx, errors4xx    uint64
	latencies                         []float64
}

// runWorker replays one stream until stop, batching consecutive updates.
func runWorker(ws *workerState, client *http.Client, cfg Config, stream *workload.Stream, stop *atomic.Bool, tolerateRejects bool) {
	batchMax := cfg.Batch
	if batchMax < 1 {
		batchMax = 1
	}
	var pending []server.OneOp
	flush := func() {
		if len(pending) == 0 {
			return
		}
		n := uint64(len(pending))
		var body any
		if len(pending) == 1 {
			body = server.UpdateReq{IDs: pending[0].IDs, Vals: pending[0].Vals}
		} else {
			body = server.UpdateReq{Ops: pending}
		}
		if ws.do(client, cfg.BaseURL+"/update", body, tolerateRejects) == http.StatusOK {
			ws.updates += n
		}
		pending = pending[:0]
	}
	for !stop.Load() {
		op := stream.Next()
		switch op.Kind {
		case workload.OpUpdate:
			pending = append(pending, server.OneOp{
				IDs:  append([]int(nil), op.Comps...),
				Vals: append([]int64(nil), op.Vals...),
			})
			if len(pending) >= batchMax {
				flush()
			}
		case workload.OpScan:
			flush()
			if ws.do(client, cfg.BaseURL+"/scan",
				server.ScanReq{IDs: append([]int(nil), op.Comps...)}, tolerateRejects) == http.StatusOK {
				ws.scans++
			}
		case workload.OpGrow:
			flush()
			// A 409 is tolerated on resizing shapes: the generator's single
			// churner never conflicts with itself, but other clients growing
			// the same daemon can take it to the server's component cap.
			if ws.do(client, cfg.BaseURL+"/grow", server.ResizeReq{Delta: op.Delta}, tolerateRejects) == http.StatusOK {
				ws.resizes++
			}
		}
	}
	flush()
}

// do sends one JSON POST, times it, and classifies the status.
func (ws *workerState) do(client *http.Client, url string, body any, tolerateRejects bool) int {
	data, err := json.Marshal(body)
	if err != nil {
		ws.errors4xx++
		return 0
	}
	t0 := time.Now()
	resp, err := client.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		// Transport errors during shutdown are the run winding down; count
		// them as 5xx so a sick server can never report a clean run.
		ws.errors5xx++
		return 0
	}
	ws.requests++
	ws.latencies = append(ws.latencies, float64(time.Since(t0).Microseconds())/1000)
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusOK:
	case resp.StatusCode >= 500:
		ws.errors5xx++
	case tolerateRejects && (resp.StatusCode == http.StatusBadRequest || resp.StatusCode == http.StatusConflict):
		ws.rejected++
	default:
		ws.errors4xx++
	}
	return resp.StatusCode
}

func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        conns + 8,
			MaxIdleConnsPerHost: conns + 8,
			IdleConnTimeout:     90 * time.Second,
		},
	}
}

func probe(client *http.Client, base string) error {
	resp, err := client.Get(base + "/healthz")
	if err != nil {
		return fmt.Errorf("loadgen: server unreachable: %w", err)
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("loadgen: /healthz returned %d", resp.StatusCode)
	}
	return nil
}

func serverComponents(client *http.Client, base string) (int, error) {
	resp, err := client.Get(base + "/stats")
	if err != nil {
		return 0, fmt.Errorf("loadgen: reading /stats: %w", err)
	}
	defer resp.Body.Close()
	var st server.StatsResp
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return 0, fmt.Errorf("loadgen: decoding /stats: %w", err)
	}
	if st.Components <= 0 {
		return 0, fmt.Errorf("loadgen: server reports %d components", st.Components)
	}
	return st.Components, nil
}

func fetchConformance(client *http.Client, base string) (*server.ConformanceResp, error) {
	resp, err := client.Get(base + "/conformance")
	if err != nil {
		return nil, fmt.Errorf("loadgen: reading /conformance: %w", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("loadgen: conformance check FAILED (%d): %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	var cr server.ConformanceResp
	if err := json.Unmarshal(body, &cr); err != nil {
		return nil, fmt.Errorf("loadgen: decoding /conformance: %w", err)
	}
	if !cr.OK {
		return nil, errors.New("loadgen: conformance response not OK")
	}
	return &cr, nil
}

func percentiles(ms []float64) (p50, p95, p99, max float64) {
	if len(ms) == 0 {
		return 0, 0, 0, 0
	}
	sorted := append([]float64(nil), ms...)
	sort.Float64s(sorted)
	at := func(q float64) float64 {
		i := int(q * float64(len(sorted)-1))
		return sorted[i]
	}
	return at(0.50), at(0.95), at(0.99), sorted[len(sorted)-1]
}

func histogram(ms []float64) []HistogramBucket {
	out := make([]HistogramBucket, len(bucketBounds)+1)
	for i, b := range bucketBounds {
		out[i].UpToMs = b
	}
	for _, v := range ms {
		placed := false
		for i, b := range bucketBounds {
			if v <= b {
				out[i].Count++
				placed = true
				break
			}
		}
		if !placed {
			out[len(bucketBounds)].Count++
		}
	}
	return out
}
