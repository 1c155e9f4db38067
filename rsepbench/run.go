package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"slices"
	"time"

	"rsepsim/internal/metrics"
)

// options are one run's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // repository root: sources, and .bench_build for data
	par      int
}

// report is everything one run measured and checked.
type report struct {
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Checks    []string  `json:"checks"`
	Digest    string    `json:"digest"`
	Jobs      int       `json:"jobs_per_batch"`
	Setups    []float64 `json:"setup_cpu_s"`
	Rounds    int       `json:"rounds"`
	Traced    int       `json:"traced_rounds"`
	Counts    counts    `json:"counts_per_batch"`
	// Batch CPU and wall times: min, quartiles, max, and the highest
	// percentile with enough samples beyond it.
	CPU      []float64 `json:"batch_cpu_ms_quartiles"`
	CPUTail  string    `json:"batch_cpu_tail,omitempty"`
	Wall     []float64 `json:"batch_wall_ms_quartiles"`
	WallTail string    `json:"batch_wall_tail,omitempty"`
	// StealShare is the share of the window's wall time the hypervisor
	// stole from the machine's CPUs, which wall times include.
	StealShare float64            `json:"host_steal_share"`
	Metrics    map[string]float64 `json:"-"`
}

// fail records a failed check.
func (r *report) fail(format string, args ...any) {
	r.Failed++
	r.Checks = append(r.Checks, "FAIL: "+fmt.Sprintf(format, args...))
}

// jobHash is the canonical digest of one job's result: SHA-256 of its JSON
// encoding, the form the store keeps.
func jobHash(st *metrics.Stats) string {
	h := sha256.New()
	if err := st.EncodeJSON(h); err != nil {
		panic(err) // Stats holds only numbers
	}
	return hex.EncodeToString(h.Sum(nil))
}

// batchDigest folds a batch's job digests, in result order, into one.
func batchDigest(hashes []string) string {
	h := sha256.New()
	for _, s := range hashes {
		fmt.Fprintln(h, s)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// roundOut is one batch's outcome.
type roundOut struct {
	hashes []string // "" for a job that failed
	stats  []*metrics.Stats
	errs   []error
	moved
	dur time.Duration // wall time
	cpu time.Duration // process CPU time
}

// runRound prepares, times and finishes one batch; with t non-nil it also
// records the batch's root span.
func runRound(inst instance, t *tracer) (roundOut, error) {
	if err := inst.prepare(); err != nil {
		return roundOut{}, fmt.Errorf("preparing a batch: %w", err)
	}
	var root uint64
	if t != nil {
		root = t.begin(inst.rootSpan(), "", true)
	}
	start, cpu0 := time.Now(), cpuTime()
	stats, errs := inst.batch(context.Background())
	dur, cpu := time.Since(start), cpuTime()-cpu0
	if t != nil {
		t.end(root)
	}
	m, err := inst.finish(t != nil)
	if err != nil {
		return roundOut{}, fmt.Errorf("finishing a batch: %w", err)
	}
	out := roundOut{stats: stats, errs: errs, moved: m, dur: dur, cpu: cpu}
	for i, st := range stats {
		h := ""
		if errs[i] == nil && st != nil {
			h = jobHash(st)
		}
		out.hashes = append(out.hashes, h)
	}
	return out, nil
}

// check compares a batch to the reference: each job's digest, then the
// batch's counters. Each job and the counter set count as one operation.
func (r *report) check(label string, got roundOut, ref roundOut) {
	for i, h := range got.hashes {
		r.Attempted++
		switch {
		case got.errs[i] != nil:
			r.fail("%s: job %d: %v", label, i, got.errs[i])
		case h != ref.hashes[i]:
			r.fail("%s: job %d digest %.12s, reference %.12s", label, i, h, ref.hashes[i])
		}
	}
	r.Attempted++
	if got.counts != ref.counts {
		r.fail("%s: counters %+v, reference %+v", label, got.counts, ref.counts)
	}
}

// execute runs one workload: its set-ups with their digest checks, the timed
// window, and in a traced run the traced window, profile and layer probe.
func execute(w workloadDef, o options) (*report, error) {
	r := &report{Metrics: make(map[string]float64)}
	data := filepath.Join(o.root, ".bench_build", "rsepbench", "data",
		fmt.Sprintf("%s-%d-%d", w.name, o.seed, os.Getpid()))
	defer os.RemoveAll(data)
	tr := &tracing{}

	var inst instance
	var ref roundOut
	for i := range w.setups {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, err
			}
		}
		e := &env{dir: filepath.Join(data, fmt.Sprintf("setup-%d", i)), seed: o.seed, par: o.par, tr: tr}
		// Each set-up starts from a collected heap with its free memory
		// returned to the OS, as in a fresh process, so that it neither
		// collects nor reuses what the previous set-up left behind.
		debug.FreeOSMemory()
		cpu0 := cpuTime()
		var err error
		if inst, err = w.setup(e); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		r.Setups = append(r.Setups, (cpuTime() - cpu0).Seconds())
		out, err := runRound(inst, nil)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			ref = out
			r.Jobs = len(out.hashes)
			r.Counts = out.counts
			r.Digest = batchDigest(out.hashes)
			for j, h := range out.hashes {
				r.Attempted++
				if h == "" {
					r.fail("reference batch: job %d: %v", j, out.errs[j])
				}
			}
			if want, ok := pinned[w.name]; ok && o.seed == pinnedSeed {
				r.Attempted++
				if r.Digest != want {
					r.fail("reference digest %.12s, pinned for seed %d: %.12s", r.Digest, pinnedSeed, want)
				} else {
					r.Checks = append(r.Checks, fmt.Sprintf("ok: reference digest equals the one pinned for seed %d", pinnedSeed))
				}
			}
			continue
		}
		before := r.Failed
		r.check(fmt.Sprintf("set-up %d", i+1), out, ref)
		if r.Failed == before {
			r.Checks = append(r.Checks, fmt.Sprintf("ok: set-up %d reproduces the reference digest and counters", i+1))
		}
	}
	defer inst.close()

	window := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		window /= 2
	}
	runtime.GC() // the window starts from a collected heap too
	var plain, wall []float64
	jobsDone := 0
	var busy time.Duration
	failedBefore := r.Failed
	steal0, start := stealTime(), time.Now()
	for time.Since(start) < window {
		out, err := runRound(inst, nil)
		if err != nil {
			return nil, err
		}
		r.check(fmt.Sprintf("round %d", r.Rounds+1), out, ref)
		r.Rounds++
		plain = append(plain, ms(out.cpu))
		wall = append(wall, ms(out.dur))
		jobsDone += len(out.hashes)
		busy += out.cpu
	}
	r.StealShare = ratio(float64(stealTime()-steal0), float64(time.Since(start)))
	if r.Failed == failedBefore {
		r.Checks = append(r.Checks, fmt.Sprintf("ok: %d rounds match the reference digest and counters", r.Rounds))
	}

	r.Metrics["setup_s"] = median(r.Setups)
	r.Metrics["batch_cpu_p50_ms"] = median(plain)
	r.Metrics["jobs_per_cpu_s"] = float64(jobsDone) / busy.Seconds()
	r.Metrics["max_rss_mb"] = maxRSSMB()
	r.CPU, r.CPUTail = quartiles(plain), tailText(plain)
	r.Wall, r.WallTail = quartiles(wall), tailText(wall)
	if !o.trace {
		return r, nil
	}
	return r, traced(w, o, r, inst, ref, tr, window, plain, data)
}

// traced runs the traced window on the same set-up, then derives the
// per-layer metrics from its spans, counters, CPU profile and a direct probe
// of the layers the batches went through.
func traced(w workloadDef, o options, r *report, inst instance, ref roundOut,
	tr *tracing, window time.Duration, plain []float64, data string) error {
	t := newTracer()
	profPath := filepath.Join(data, "cpu.pprof")
	pf, err := os.Create(profPath)
	if err != nil {
		return err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if err := pprof.StartCPUProfile(pf); err != nil {
		pf.Close()
		return err
	}
	tr.p.Store(t)
	var tracedMs, written, read []float64
	failedBefore := r.Failed
	var roundErr error
	for start := time.Now(); time.Since(start) < window; {
		out, err := runRound(inst, t)
		if err != nil {
			roundErr = err
			break
		}
		r.check(fmt.Sprintf("traced round %d", r.Traced+1), out, ref)
		r.Traced++
		tracedMs = append(tracedMs, ms(out.cpu))
		written = append(written, float64(out.written))
		read = append(read, float64(out.read))
	}
	tr.p.Store(nil)
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&ms1)
	if err := pf.Close(); err != nil {
		return err
	}
	if roundErr != nil {
		return roundErr
	}
	if r.Failed == failedBefore {
		r.Checks = append(r.Checks, fmt.Sprintf("ok: %d traced rounds give the untraced digest and counters", r.Traced))
	}

	m := r.Metrics
	for _, d := range endToEnd {
		delete(m, d.Name) // a traced run prints only the per-layer metrics
	}
	spans := t.snapshot()
	spanMetrics(m, spans, inst.rootSpan())
	m["store.bytes_written"] = median(written)
	m["trace.overhead_ms"] = median(tracedMs) - median(plain)

	c := ref.counts
	m["runner.simulations"] = float64(c.Simulations)
	m["runner.store_hits"] = float64(c.Hits)
	m["runner.slices_run"] = float64(c.SlicesRun)
	m["runner.slices_resumed"] = float64(c.SlicesResumed)
	m["store.hit_ratio"] = ratio(float64(c.Hits), float64(c.Hits+c.Misses))
	simMetrics(m, ref.stats)

	n := float64(r.Traced)
	m["runtime.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6 / n
	m["runtime.alloc_bytes_per_job"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (n * float64(r.Jobs))
	m["serve.bytes_per_batch"] = median(read)

	shares, err := profileShares(profPath)
	if err != nil {
		return fmt.Errorf("reading the CPU profile: %w", err)
	}
	for k, v := range shares {
		m[k] = v
	}

	pr := probeLayers(m, inst.jobs(), ref.hashes)
	r.Attempted += pr.attempted
	for _, msg := range pr.failures {
		r.fail("%s", msg)
	}
	if len(pr.failures) == 0 {
		r.Checks = append(r.Checks, fmt.Sprintf("ok: %d direct pipeline runs reproduce their jobs' digests", pr.attempted))
	}

	spanPath := filepath.Join(o.root, ".bench_build", "rsepbench",
		fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, o.seed))
	if err := t.write(spanPath); err != nil {
		return err
	}
	r.Checks = append(r.Checks, fmt.Sprintf("spans: %d written to %s", len(spans), spanPath))
	for _, d := range perLayer {
		if _, ok := m[d.Name]; !ok {
			return fmt.Errorf("traced run computed no %s", d.Name)
		}
	}
	for k := range m {
		if !slices.ContainsFunc(perLayer, func(d layerDef) bool { return d.Name == k }) {
			return fmt.Errorf("traced run computed undeclared metric %s", k)
		}
	}
	return nil
}

// tailText names the highest percentile of xs with enough samples beyond
// it, or nothing.
func tailText(xs []float64) string {
	label, v, ok := tail(xs)
	if !ok {
		return ""
	}
	return fmt.Sprintf("%s %.3f ms over %d batches", label, v, len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// simMetrics derives the exact per-layer figures from one batch's results.
func simMetrics(m map[string]float64, stats []*metrics.Stats) {
	var agg metrics.Stats
	var ipcs []float64
	for _, st := range stats {
		agg.Merge(st)
		ipcs = append(ipcs, st.IPC())
	}
	pki := func(n uint64) float64 { return ratio(float64(n)*1000, float64(agg.Committed)) }
	m["cache.l1d_mpki"] = pki(agg.L1DMisses)
	m["cache.l2_mpki"] = pki(agg.L2Misses)
	m["cache.l3_mpki"] = pki(agg.L3Misses)
	m["dram.reads_pki"] = pki(agg.DRAMReads)
	m["dram.avg_latency_cycles"] = ratio(float64(agg.DRAMLatencySum), float64(agg.DRAMReads))
	m["branch.mpki"] = pki(agg.BranchMispredicts)
	m["rsep.coverage"] = ratio(float64(agg.CoveredTotal()), float64(agg.Eligible))
	m["rsep.accuracy"] = agg.DistAccuracy()
	m["rsep.validation_uops_pki"] = pki(agg.ValidationUops)
	m["sim.ipc_hmean"] = metrics.HarmonicMean(ipcs)
}
