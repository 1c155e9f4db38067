package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"regexp"
	"slices"
	"testing"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, ok := percentile(xs, 90); !ok || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90 with 10 samples beyond", v, ok)
	}
	if _, ok := percentile(xs, 99); ok {
		t.Error("p99 of 100 samples has 1 beyond; want it absent")
	}
	if _, ok := percentile(xs[:19], 50); ok {
		t.Error("p50 of 19 samples has 9 beyond; want it absent")
	}
	if label, _, ok := tail(xs[:20]); ok {
		t.Errorf("tail of 20 samples = %s; want none", label)
	}
	big := make([]float64, 1000)
	for i := range big {
		big[i] = float64(i)
	}
	if label, _, ok := tail(big); !ok || label != "p99" {
		t.Errorf("tail of 1000 samples = %q, %v; want p99", label, ok)
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

func TestMetricNames(t *testing.T) {
	seen := make(map[string]bool)
	check := func(d metricDef) {
		if !metricName.MatchString(d.Name) || len(d.Name) > 64 {
			t.Errorf("metric name %q breaks [A-Za-z0-9_.-]+", d.Name)
		}
		if seen[d.Name] {
			t.Errorf("metric %q declared twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %q: better = %q", d.Name, d.Better)
		}
	}
	for _, d := range endToEnd {
		check(d)
	}
	for _, d := range perLayer {
		check(d.metricDef)
		if !slices.ContainsFunc(endToEnd, func(e metricDef) bool { return e.Name == d.Moves }) {
			t.Errorf("%s moves undeclared end-to-end metric %q", d.Name, d.Moves)
		}
	}
}

func TestDigestMismatchCountsFailed(t *testing.T) {
	c := counts{Simulations: 3, Misses: 3}
	ref := roundOut{hashes: []string{"a", "b", "c"}, errs: make([]error, 3), moved: moved{counts: c}}
	var r report
	r.check("same", ref, ref)
	if r.Attempted != 4 || r.Failed != 0 {
		t.Fatalf("matching batch: attempted %d failed %d; want 4, 0", r.Attempted, r.Failed)
	}
	bad := roundOut{hashes: []string{"a", "x", ""}, errs: []error{nil, nil, errors.New("boom")}, moved: moved{counts: c}}
	r.check("bad", bad, ref)
	if r.Attempted != 8 || r.Failed != 2 {
		t.Fatalf("one mismatch, one error: attempted %d failed %d; want 8, 2", r.Attempted, r.Failed)
	}
	moved := ref
	moved.counts.Hits++
	r.check("moved", moved, ref)
	if r.Failed != 3 {
		t.Fatalf("moved counters: failed %d; want 3", r.Failed)
	}
	if s := result(&r, false); s.Correct || s.Failed != 3 || s.Attempted != 12 {
		t.Fatalf("result = %+v; want incorrect with 3 of 12 failed", s)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 50}, // overlaps a
		{ID: 4, Parent: 2, Name: "c", Start: 15, End: 20},
	}
	self := selfTimes(spans)
	for id, want := range map[uint64]int64{1: 60, 2: 25, 3: 20, 4: 5} {
		if got := int64(self[id]); got != want {
			t.Errorf("self time of span %d = %d; want %d", id, got, want)
		}
	}
}

func TestSharesFromTraces(t *testing.T) {
	raw := []byte(`File: rsepbench
Type: cpu
-----------+-------------------------------------------------------
      30ms   rsepsim/internal/cache.(*Cache).Access
             rsepsim/internal/pipeline.(*Core).issue
             rsepsim/internal/pipeline.(*Core).step
-----------+-------------------------------------------------------
      10ms   rsepsim/internal/workload.(*Gen).Next
             rsepsim/internal/pipeline.(*Core).fetch
-----------+-------------------------------------------------------
      60ms   runtime.memmove
             rsepsim/internal/ckpt.(*Writer).Slice
             rsepsim/internal/pipeline.(*Core).Checkpoint
-----------+-------------------------------------------------------
`)
	got, err := sharesFromTraces(raw)
	if err != nil {
		t.Fatal(err)
	}
	for k, want := range map[string]float64{
		"cache.share": 0.3, "workload.share": 0.1, "runtime.share": 0.6, "ckpt.share": 0.6,
		"pipeline.share.issue": 0.3, "pipeline.share.fetch": 0.1, "pipeline.share.commit": 0,
	} {
		if math.Abs(got[k]-want) > 1e-9 {
			t.Errorf("%s = %v; want %v", k, got[k], want)
		}
	}
}

// benchmarkJSON is the part of BENCHMARK.json the program must agree with.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestBenchmarkJSONMatchesDeclarations(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, program %s: %s", i, b.Workloads[i], w.name, w.why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		if got := b.EndToEnd[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, program %+v", i, got, d)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program %d", len(b.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if got := b.PerLayer[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, program %+v", i, got, d.metricDef)
		}
	}
}

// runShort runs one workload for the shortest window: its set-ups and a
// single round.
func runShort(t *testing.T, name string, traced bool) *report {
	t.Helper()
	w, err := lookupWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	r, err := execute(w, options{workload: name, seed: pinnedSeed, seconds: 0.001, trace: traced,
		root: t.TempDir(), par: parallelism})
	if err != nil {
		t.Fatal(err)
	}
	if r.Failed != 0 || r.Attempted == 0 {
		t.Fatalf("%s: attempted %d, failed %d: %v", name, r.Attempted, r.Failed, r.Checks)
	}
	if r.Digest != pinned[name] {
		t.Fatalf("%s: reference digest %s, pinned %s", name, r.Digest, pinned[name])
	}
	return r
}

func TestEachWorkloadEmitsItsEndToEndMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range append(workloads, unlisted...) {
		t.Run(w.name, func(t *testing.T) {
			s := result(runShort(t, w.name, false), false)
			if len(s.Metrics) != len(endToEnd) {
				t.Fatalf("emitted %d metrics, declared %d", len(s.Metrics), len(endToEnd))
			}
			for _, d := range endToEnd {
				v, ok := s.Metrics[d.Name]
				if !ok || v.Unit != d.Unit || !(v.Value > 0) || math.IsInf(v.Value, 0) {
					t.Errorf("%s = %+v, present %v; want a positive value in %s", d.Name, v, ok, d.Unit)
				}
			}
		})
	}
}

// TestTracedSlicedRunKeepsTheSchedulerBehaviour guards the traced run's
// fidelity where it is easiest to lose: the store wrapper must keep sliced
// jobs resuming and checkpointing, so the traced rounds' digests and
// counters equal the untraced ones (execute counts any difference failed).
func TestTracedSlicedRunKeepsTheSchedulerBehaviour(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a traced workload")
	}
	r := runShort(t, "sliced-extend", true)
	if r.Traced == 0 || r.Counts.SlicesResumed == 0 || r.Counts.SlicesRun == 0 {
		t.Fatalf("traced rounds %d, counters %+v; want resumed and simulated slices", r.Traced, r.Counts)
	}
	s := result(r, true)
	if len(s.Metrics) != len(perLayer) || s.Metrics["store.put_ckpt_ms"].Value <= 0 {
		t.Fatalf("traced metrics %d (declared %d), store.put_ckpt_ms %v",
			len(s.Metrics), len(perLayer), s.Metrics["store.put_ckpt_ms"])
	}
}
