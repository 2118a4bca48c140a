package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"partialsnapshot/internal/workload"
)

func ramp(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n       int
		q, want float64
		comment string
	}{
		{1000, 0.99, 990, "exactly ten beyond: the p99 itself"},
		{1000, 0.5, 500, "nearest-rank median"},
		{500, 0.99, 490, "five beyond: fall back to p98"},
		{11, 0.5, 1, "the only rank with ten beyond"},
		{10, 0.5, 0, "no rank has ten beyond"},
	} {
		if got := percentile(ramp(tc.n), tc.q); got != tc.want {
			t.Errorf("%s: percentile(n=%d, q=%v) = %v, want %v", tc.comment, tc.n, tc.q, got, tc.want)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v, want 0", got)
	}
}

func TestPoissonScheduleIsSeeded(t *testing.T) {
	const rate, dur = 10000.0, 10 * time.Second
	a := poissonSchedule(7, rate, dur)
	if !reflect.DeepEqual(a, poissonSchedule(7, rate, dur)) {
		t.Fatal("the same seed gave two schedules")
	}
	if reflect.DeepEqual(a, poissonSchedule(8, rate, dur)) {
		t.Fatal("different seeds gave the same schedule")
	}
	for i, d := range a {
		if d >= dur || (i > 0 && d < a[i-1]) {
			t.Fatalf("send %d at %v: out of order or past the window", i, d)
		}
	}
	// A Poisson count over rate*dur = 1e5 expected arrivals has sd ~316.
	if want := rate * dur.Seconds(); math.Abs(float64(len(a))-want) > 5*math.Sqrt(want) {
		t.Fatalf("%d sends, want about %v", len(a), want)
	}
}

func TestRatioWithZeroBase(t *testing.T) {
	for _, tc := range []struct{ num, den, want float64 }{
		{0, 0, 0},
		{5, 0, 0},
		{1, 4, 0.25},
	} {
		if got := ratio(tc.num, tc.den); got != tc.want {
			t.Errorf("ratio(%v, %v) = %v, want %v", tc.num, tc.den, got, tc.want)
		}
	}
}

func TestResidual(t *testing.T) {
	if got := residual(100, 60, 30); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("parts explaining 90 of 100 leave %v, want 0.1", got)
	}
	if got := residual(100, 60, 50); math.Abs(got+0.1) > 1e-12 {
		t.Errorf("parts overshooting by 10 leave %v, want -0.1", got)
	}
	if got := residual(0, 1); got != 0 {
		t.Errorf("an empty total leaves %v, want 0", got)
	}
}

func TestCheckScanReply(t *testing.T) {
	ids := []int{3, 1, 7}
	for reply, wantOK := range map[string]bool{
		`{"ids":[3,1,7],"vals":[0,5,9]}`:               true,
		`{"ids":[3,1,7],"vals":[0,5,9],"cached":true}`: true,
		`{"ids":[3,1,7],"vals":[0,5]}`:                 false,
		`{"ids":[1,3,7],"vals":[0,5,9]}`:               false,
		`not json`:                                     false,
	} {
		if got := checkScanReply(ids, []byte(reply)) == ""; got != wantOK {
			t.Errorf("checkScanReply(%s) ok = %v, want %v", reply, got, wantOK)
		}
	}
}

func TestEncodeOp(t *testing.T) {
	scan := encodeOp(nil, workload.Op{Kind: workload.OpScan, Comps: []int{4, 2}})
	upd := encodeOp(nil, workload.Op{Kind: workload.OpUpdate, Comps: []int{4, 2}, Vals: []int64{9, -1}})
	if string(scan) != `{"ids":[4,2]}` || string(upd) != `{"ids":[4,2],"vals":[9,-1]}` {
		t.Fatalf("encoded %s and %s", scan, upd)
	}
}

func TestCheckFinalConvictsALostWrite(t *testing.T) {
	obj, err := newObject()
	if err != nil {
		t.Fatal(err)
	}
	a, b := &objWorker{}, &objWorker{}
	a.last[0], b.last[0] = 11, 12
	a.last[1] = 21
	for _, w := range []struct {
		c int
		v int64
	}{{0, 11}, {0, 12}, {1, 21}} {
		if err := obj.Update([]int{w.c}, []int64{w.v}); err != nil {
			t.Fatal(err)
		}
	}
	if p := checkFinal(obj, []*objWorker{a, b}); len(p) != 0 {
		t.Fatalf("a consistent object failed the check: %v", p)
	}
	if err := obj.Update([]int{2}, []int64{99}); err != nil {
		t.Fatal(err)
	}
	if p := checkFinal(obj, []*objWorker{a, b}); len(p) != 1 || !strings.Contains(p[0], "component 2") {
		t.Fatalf("an untracked write to component 2 gave %v", p)
	}
}

// TestObjectPacing pins what the object workloads' pacing relies on: a
// worker checks the clock only between batches, so a tick must hold whole
// batches, and the timed op must not sit at one position of every batch.
func TestObjectPacing(t *testing.T) {
	for _, ow := range []objectWorkload{partitioned, contended} {
		if ow.perTick <= 0 || ow.perTick%batchLen != 0 {
			t.Errorf("%s: %d ops per tick is not a whole number of %d-op batches", ow.shape.Shape, ow.perTick, batchLen)
		}
	}
	gcd, b := sampleEvery, batchLen
	for b != 0 {
		gcd, b = b, gcd%b
	}
	if gcd != 1 {
		t.Errorf("sampleEvery %d and batchLen %d share the factor %d", sampleEvery, batchLen, gcd)
	}
}

// TestCatalogueMatchesBenchmarkJSON pins BENCHMARK.json, which names them
// for anyone running the benchmark, to the workloads and metrics this
// program reports.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, s := range scenarios() {
		want = append(want, s.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, want)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program reports %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, program has %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
