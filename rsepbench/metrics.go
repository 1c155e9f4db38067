package main

import (
	"math"
	"sort"
)

// metricDef declares one reported metric as BENCHMARK.json lists it.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd is what a user of the simulator sees, emitted by every untraced
// run of every workload. The timings are CPU time of the process (user plus
// system), not wall time: on a shared virtual machine the hypervisor steals
// a varying share of wall time, in bursts that outlast any window a run can
// afford, and Linux leaves that steal out of CPU time. Wall-clock figures
// and the steal share go into the run record beside them.
var endToEnd = []metricDef{
	// Set-up a user pays before the first batch: opening or populating the
	// store, starting the server, building the first cores. Median over the
	// set-ups one run repeats for its digest check.
	{"setup_s", "s", "lower"},
	// Median CPU time of one batch, from submission to the last result.
	{"batch_cpu_p50_ms", "ms", "lower"},
	// Jobs resolved per CPU second over the whole timed window (total jobs
	// over total batch CPU time), so slow rounds count in full.
	{"jobs_per_cpu_s", "1/s", "higher"},
	// Peak resident set of the process.
	{"max_rss_mb", "MB", "lower"},
}

// layerDef declares a per-layer metric of the traced run, with the
// end-to-end metric it should move and the workloads where it does — the
// map a perf change cites when it names the layer it moved.
type layerDef struct {
	metricDef
	Moves string
	On    string
}

const (
	onAll     = "all"
	onSweeps  = "sweep-mem, sweep-compute"
	onCompute = "sweep-compute"
	onMem     = "sweep-mem"
	onSliced  = "sliced-extend"
	onDaemon  = "sliced-extend, serve-warm"
)

// perLayer lists the traced run's metrics by module. Metrics marked exact in
// their comment come from simulated statistics and repeat bit for bit; *.share
// is the fraction of CPU-profile samples in that module or stage.
var perLayer = []layerDef{
	// runner: per-job wait from batch submission to execution start, per-job
	// execution, and per-batch scheduler and store counts (exact).
	{metricDef{"runner.queue_wait_ms", "ms", "lower"}, "batch_cpu_p50_ms", onAll},
	{metricDef{"runner.exec_ms", "ms", "lower"}, "batch_cpu_p50_ms", onAll},
	{metricDef{"runner.simulations", "count", "lower"}, "batch_cpu_p50_ms", onAll},
	{metricDef{"runner.store_hits", "count", "higher"}, "batch_cpu_p50_ms", onAll},
	{metricDef{"runner.slices_run", "count", "lower"}, "batch_cpu_p50_ms", onSliced},
	{metricDef{"runner.slices_resumed", "count", "higher"}, "batch_cpu_p50_ms", onSliced},

	// workload: instruction generation alone, timed around workload.New's
	// generator.
	{metricDef{"workload.gen_ns_per_inst", "ns", "lower"}, "jobs_per_cpu_s", onSweeps},
	{metricDef{"workload.share", "ratio", "lower"}, "jobs_per_cpu_s", onSweeps},

	// pipeline: pipeline.New, ResetFor and Run timed directly; the skipped
	// cycle share is exact.
	{metricDef{"pipeline.run_ns_per_inst", "ns", "lower"}, "jobs_per_cpu_s", onSweeps},
	{metricDef{"pipeline.ns_per_sim_cycle", "ns", "lower"}, "jobs_per_cpu_s", onSweeps},
	{metricDef{"pipeline.new_ms", "ms", "lower"}, "setup_s", onSweeps},
	{metricDef{"pipeline.resetfor_ms", "ms", "lower"}, "jobs_per_cpu_s", onSweeps},
	{metricDef{"pipeline.skipped_cycle_share", "ratio", "higher"}, "jobs_per_cpu_s", onMem},
	{metricDef{"pipeline.share.fetch", "ratio", "lower"}, "jobs_per_cpu_s", onSweeps},
	{metricDef{"pipeline.share.rename", "ratio", "lower"}, "jobs_per_cpu_s", onCompute},
	{metricDef{"pipeline.share.issue", "ratio", "lower"}, "jobs_per_cpu_s", onCompute},
	{metricDef{"pipeline.share.complete", "ratio", "lower"}, "jobs_per_cpu_s", onSweeps},
	{metricDef{"pipeline.share.commit", "ratio", "lower"}, "jobs_per_cpu_s", onSweeps},
	{metricDef{"pipeline.share.fastforward", "ratio", "lower"}, "jobs_per_cpu_s", onMem},

	// cache and dram: exact miss and traffic rates, and profile shares.
	{metricDef{"cache.l1d_mpki", "1/kinst", "lower"}, "jobs_per_cpu_s", onMem},
	{metricDef{"cache.l2_mpki", "1/kinst", "lower"}, "jobs_per_cpu_s", onMem},
	{metricDef{"cache.l3_mpki", "1/kinst", "lower"}, "jobs_per_cpu_s", onMem},
	{metricDef{"dram.reads_pki", "1/kinst", "lower"}, "jobs_per_cpu_s", onMem},
	{metricDef{"dram.avg_latency_cycles", "cycles", "lower"}, "jobs_per_cpu_s", onMem},
	{metricDef{"cache.share", "ratio", "lower"}, "jobs_per_cpu_s", onMem},
	{metricDef{"dram.share", "ratio", "lower"}, "jobs_per_cpu_s", onMem},

	// branch, predictor, rsep, vpred: exact rates and profile shares.
	{metricDef{"branch.mpki", "1/kinst", "lower"}, "jobs_per_cpu_s", onCompute},
	{metricDef{"rsep.coverage", "ratio", "higher"}, "jobs_per_cpu_s", onCompute},
	{metricDef{"rsep.accuracy", "ratio", "higher"}, "jobs_per_cpu_s", onCompute},
	{metricDef{"rsep.validation_uops_pki", "1/kinst", "lower"}, "jobs_per_cpu_s", onCompute},
	{metricDef{"sim.ipc_hmean", "inst/cycle", "higher"}, "jobs_per_cpu_s", onCompute},
	{metricDef{"branch.share", "ratio", "lower"}, "jobs_per_cpu_s", onCompute},
	{metricDef{"predictor.share", "ratio", "lower"}, "jobs_per_cpu_s", onCompute},
	{metricDef{"rsep.share", "ratio", "lower"}, "jobs_per_cpu_s", onCompute},
	{metricDef{"vpred.share", "ratio", "lower"}, "jobs_per_cpu_s", onCompute},

	// ckpt: Core.Checkpoint and NewFromCheckpoint timed directly.
	{metricDef{"ckpt.bytes", "bytes", "lower"}, "max_rss_mb", onSliced},
	{metricDef{"ckpt.write_ms", "ms", "lower"}, "batch_cpu_p50_ms", onSliced},
	{metricDef{"ckpt.restore_ms", "ms", "lower"}, "batch_cpu_p50_ms", onSliced},
	{metricDef{"ckpt.share", "ratio", "lower"}, "jobs_per_cpu_s", onSliced},

	// store: median call durations, bytes written per batch and the hit
	// ratio of whole-job lookups.
	{metricDef{"store.get_us", "us", "lower"}, "batch_cpu_p50_ms", onDaemon},
	{metricDef{"store.put_ms", "ms", "lower"}, "batch_cpu_p50_ms", onSweeps},
	{metricDef{"store.get_slice_us", "us", "lower"}, "batch_cpu_p50_ms", onSliced},
	{metricDef{"store.put_slice_ms", "ms", "lower"}, "batch_cpu_p50_ms", onSliced},
	{metricDef{"store.get_ckpt_ms", "ms", "lower"}, "batch_cpu_p50_ms", onSliced},
	{metricDef{"store.put_ckpt_ms", "ms", "lower"}, "batch_cpu_p50_ms", onSliced},
	{metricDef{"store.bytes_written", "bytes", "lower"}, "batch_cpu_p50_ms", onSliced},
	{metricDef{"store.hit_ratio", "ratio", "higher"}, "batch_cpu_p50_ms", onAll},

	// serve: handler time, the client's round trip minus the handler, and
	// response bytes per batch.
	{metricDef{"serve.handler_ms", "ms", "lower"}, "batch_cpu_p50_ms", onDaemon},
	{metricDef{"serve.client_ms", "ms", "lower"}, "batch_cpu_p50_ms", onDaemon},
	{metricDef{"serve.bytes_per_batch", "bytes", "lower"}, "batch_cpu_p50_ms", onDaemon},

	// Go runtime: GC pause per batch, allocation per job, profile share.
	{metricDef{"runtime.gc_pause_ms", "ms", "lower"}, "batch_cpu_p50_ms", onAll},
	{metricDef{"runtime.alloc_bytes_per_job", "bytes", "lower"}, "max_rss_mb", onAll},
	{metricDef{"runtime.share", "ratio", "lower"}, "batch_cpu_p50_ms", onAll},

	// Tracing overhead: traced batch_cpu_p50_ms minus the untraced one, both
	// measured in the traced run.
	{metricDef{"trace.overhead_ms", "ms", "lower"}, "batch_cpu_p50_ms", onAll},
}

// median returns the middle of xs (the mean of the two middles for an even
// count), or NaN for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: fewer make a tail figure that one stray sample decides.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of xs, and ok=false
// when fewer than minBeyond samples lie above it.
func percentile(xs []float64, p float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	rank = max(1, min(rank, n))
	if n-rank < minBeyond {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], true
}

// tail returns the highest of p99, p90 and p75 that percentile reports,
// with its label.
func tail(xs []float64) (label string, v float64, ok bool) {
	for _, p := range []struct {
		label string
		p     float64
	}{{"p99", 99}, {"p90", 90}, {"p75", 75}} {
		if v, ok := percentile(xs, p.p); ok {
			return p.label, v, true
		}
	}
	return "", 0, false
}

// quartiles returns the minimum, quartiles and maximum of xs.
func quartiles(xs []float64) []float64 {
	if len(xs) == 0 {
		return nil
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(q float64) float64 { return s[int(q*float64(len(s)-1))] }
	return []float64{s[0], at(0.25), median(s), at(0.75), s[len(s)-1]}
}
