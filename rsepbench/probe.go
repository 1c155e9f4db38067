package main

import (
	"bytes"
	"fmt"
	"time"

	"rsepsim/internal/pipeline"
	"rsepsim/internal/runner"
	"rsepsim/internal/workload"
)

// probeJobs bounds how many of a batch's jobs the layer probe re-runs.
const probeJobs = 6

type probeOutcome struct {
	attempted int
	failures  []string
}

// probeLayers re-runs up to probeJobs of the batch's jobs by calling the
// layers directly — workload.New's generator, pipeline.New, Run,
// Checkpoint, NewFromCheckpoint and ResetFor — timing each call, and checks
// that each direct run reproduces the job's reference digest.
func probeLayers(m map[string]float64, jobs []runner.Job, ref []string) probeOutcome {
	var out probeOutcome
	var gen, newMs, run, perCycle, skipped, ckptBytes, write, restore, reset []float64
	stride := max(1, len(jobs)/probeJobs)
	for i := 0; i < len(jobs) && len(gen) < probeJobs; i += stride {
		j := jobs[i]
		out.attempted++
		prof, err := workload.ByName(j.Bench)
		if err != nil {
			out.failures = append(out.failures, fmt.Sprintf("probe: job %d: %v", i, err))
			continue
		}
		cfg := j.Config.Clone()
		cfg.Seed = j.Seed
		insts := j.Warmup + j.Measure

		g := workload.New(prof, j.Seed)
		start := time.Now()
		for range insts {
			g.Next()
		}
		gen = append(gen, float64(time.Since(start))/float64(insts))

		src := workload.New(prof, j.Seed)
		start = time.Now()
		core := pipeline.New(cfg, src)
		newMs = append(newMs, ms(time.Since(start)))

		// The runner's protocol: warm up, clear the counters, measure.
		start = time.Now()
		core.Run(j.Warmup)
		core.ResetStats()
		core.Run(j.Measure)
		d := time.Since(start)
		st := *core.Stats()
		run = append(run, float64(d)/float64(insts))
		perCycle = append(perCycle, float64(d)/float64(core.Cycle()))
		skipped = append(skipped, ratio(float64(st.SkippedCycles), float64(st.Cycles)))
		if h := jobHash(&st); h != ref[i] {
			out.failures = append(out.failures, fmt.Sprintf("probe: job %d (%s): direct run digest %.12s, batch %.12s", i, j.Bench, h, ref[i]))
		}

		var buf bytes.Buffer
		start = time.Now()
		if err := core.Checkpoint(&buf); err != nil {
			out.failures = append(out.failures, fmt.Sprintf("probe: job %d checkpoint: %v", i, err))
			continue
		}
		write = append(write, ms(time.Since(start)))
		ckptBytes = append(ckptBytes, float64(buf.Len()))

		src = workload.New(prof, j.Seed)
		start = time.Now()
		if _, err := pipeline.NewFromCheckpoint(cfg, src, &buf); err != nil {
			out.failures = append(out.failures, fmt.Sprintf("probe: job %d restore: %v", i, err))
			continue
		}
		restore = append(restore, ms(time.Since(start)))

		src = workload.New(prof, j.Seed)
		start = time.Now()
		if !core.ResetFor(cfg, src) {
			out.failures = append(out.failures, fmt.Sprintf("probe: job %d: ResetFor refused its own configuration", i))
			continue
		}
		reset = append(reset, ms(time.Since(start)))
	}
	m["workload.gen_ns_per_inst"] = median(gen)
	m["pipeline.new_ms"] = median(newMs)
	m["pipeline.run_ns_per_inst"] = median(run)
	m["pipeline.ns_per_sim_cycle"] = median(perCycle)
	m["pipeline.skipped_cycle_share"] = median(skipped)
	m["pipeline.resetfor_ms"] = median(reset)
	m["ckpt.bytes"] = median(ckptBytes)
	m["ckpt.write_ms"] = median(write)
	m["ckpt.restore_ms"] = median(restore)
	return out
}
