package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"strings"
	"time"
)

// leafModules maps a package prefix to the module whose share counts the
// samples whose innermost frame lies in it.
var leafModules = []struct{ prefix, module string }{
	{"rsepsim/internal/workload.", "workload"},
	{"rsepsim/internal/cache.", "cache"},
	{"rsepsim/internal/dram.", "dram"},
	{"rsepsim/internal/branch.", "branch"},
	{"rsepsim/internal/predictor.", "predictor"},
	{"rsepsim/internal/rsep.", "rsep"},
	{"rsepsim/internal/vpred.", "vpred"},
	{"runtime.", "runtime"},
	{"internal/runtime/", "runtime"},
}

// stageFrames maps a pipeline stage to the Core method that runs it; a
// stage's share counts the samples with that method anywhere on the stack.
var stageFrames = map[string]string{
	"fetch":       "rsepsim/internal/pipeline.(*Core).fetch",
	"rename":      "rsepsim/internal/pipeline.(*Core).rename",
	"issue":       "rsepsim/internal/pipeline.(*Core).issue",
	"complete":    "rsepsim/internal/pipeline.(*Core).complete",
	"commit":      "rsepsim/internal/pipeline.(*Core).commit",
	"fastforward": "rsepsim/internal/pipeline.(*Core).fastForward",
}

// isCkptFrame reports whether a frame serializes or restores core state.
func isCkptFrame(f string) bool {
	return strings.HasPrefix(f, "rsepsim/internal/ckpt.") ||
		strings.HasPrefix(f, "rsepsim/internal/pipeline.(*Core).Checkpoint") ||
		strings.HasPrefix(f, "rsepsim/internal/pipeline.(*Core).Restore") ||
		strings.HasPrefix(f, "rsepsim/internal/pipeline.NewFromCheckpoint")
}

// profileShares aggregates a CPU profile with `go tool pprof -traces` into
// the per-layer *.share metrics.
func profileShares(path string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	raw, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	return sharesFromTraces(raw)
}

// sharesFromTraces parses pprof's -traces text: blocks separated by dashed
// lines, each a sample weight and its stack, innermost frame first.
func sharesFromTraces(raw []byte) (map[string]float64, error) {
	out := map[string]float64{"ckpt.share": 0}
	for _, lm := range leafModules {
		out[lm.module+".share"] = 0
	}
	for stage := range stageFrames {
		out["pipeline.share."+stage] = 0
	}
	var total float64
	var weight float64
	var stack []string
	flush := func() {
		if len(stack) == 0 {
			return
		}
		total += weight
		for _, lm := range leafModules {
			if strings.HasPrefix(stack[0], lm.prefix) {
				out[lm.module+".share"] += weight
				break
			}
		}
		seen := make(map[string]bool)
		ckpt := false
		for _, f := range stack {
			for stage, frame := range stageFrames {
				if f == frame && !seen[stage] {
					seen[stage] = true
					out["pipeline.share."+stage] += weight
				}
			}
			ckpt = ckpt || isCkptFrame(f)
		}
		if ckpt {
			out["ckpt.share"] += weight
		}
		stack = stack[:0]
	}
	inBlock := false
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inBlock = true
			continue
		}
		if !inBlock || strings.TrimSpace(line) == "" {
			continue
		}
		fields := strings.Fields(line)
		if len(stack) == 0 {
			d, err := time.ParseDuration(fields[0])
			if err != nil || len(fields) < 2 {
				return nil, fmt.Errorf("pprof traces: unexpected sample line %q", line)
			}
			weight = float64(d)
			stack = append(stack, fields[1])
			continue
		}
		stack = append(stack, fields[0])
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if total == 0 {
		return nil, fmt.Errorf("pprof traces: no samples")
	}
	for k := range out {
		out[k] /= total
	}
	return out, nil
}
