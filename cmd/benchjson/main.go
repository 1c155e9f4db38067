// Command benchjson turns `go test -bench` output into the BENCH_PIPELINE.json
// record kept at the repository root, so the simulator's throughput
// trajectory is tracked across PRs. It reads benchmark output on stdin,
// takes the median over repeated -count runs, and derives simulated
// instructions per second for benchmarks that report an insts/op metric.
//
// Usage:
//
//	go test -run XXX -bench 'BenchmarkPipeline' -benchtime 3x -count 5 . | benchjson -o BENCH_PIPELINE.json
//	go test -bench . -benchtime 1x . | benchjson            # JSON on stdout
//
// The recorded commit defaults to `git rev-parse HEAD`, so a locally
// regenerated file carries correct provenance without remembering -commit.
//
// With -gate it additionally compares allocs/op and B/op (and, for the
// checkpoint benchmarks, the ckpt_bytes/op blob size) against a committed
// baseline report and exits non-zero on a regression beyond -gate-tolerance
// (default 5%); time is not gated by default because shared runners make it
// too noisy, but -gate-time adds a deliberately generous ns/op gate (default
// +25%, -gate-time-tolerance) that lets noise through while hard-failing
// order-of-magnitude regressions. A gate whose baseline records a commit
// that is not an ancestor of HEAD is refused outright — such a baseline
// belongs to a different history and comparing against it proves nothing:
//
//	go test -run XXX -bench ... -benchmem . | benchjson -gate BENCH_PIPELINE.json > /dev/null
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

type result struct {
	Name        string  `json:"name"`
	Runs        int     `json:"runs"`
	NsPerOp     float64 `json:"ns_per_op"`                   // median over runs
	InstsPerOp  float64 `json:"insts_per_op,omitempty"`      // simulated instructions per iteration
	InstsPerSec float64 `json:"insts_per_sec,omitempty"`     // derived throughput
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`     // present with -benchmem
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`      // present with -benchmem
	CkptBytes   float64 `json:"ckpt_bytes_per_op,omitempty"` // checkpoint blob size, checkpoint benchmarks only
}

type report struct {
	Commit     string   `json:"commit,omitempty"`
	GoVersion  string   `json:"go_version,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	Benchmarks []result `json:"benchmarks"`
}

func median(v []float64) float64 {
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// headCommit returns `git rev-parse HEAD`, or "" outside a work tree.
func headCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// checkAncestry refuses a baseline whose recorded commit is definitively not
// an ancestor of HEAD — it describes a different history, so gating against
// it is meaningless (the provenance bug this replaces: a stale commit stamp
// silently comparing against numbers from nowhere). Indeterminate cases (no
// git, unstamped baseline, unknown hash on a shallow clone) warn and proceed.
func checkAncestry(baseCommit string) error {
	if baseCommit == "" {
		fmt.Fprintln(os.Stderr, "benchjson: warning: baseline records no commit; gating anyway")
		return nil
	}
	err := exec.Command("git", "merge-base", "--is-ancestor", baseCommit, "HEAD").Run()
	if err == nil {
		return nil
	}
	if ee, ok := err.(*exec.ExitError); ok && ee.ExitCode() == 1 {
		return fmt.Errorf("baseline commit %s is not an ancestor of HEAD; regenerate the baseline", baseCommit)
	}
	fmt.Fprintf(os.Stderr, "benchjson: warning: cannot verify baseline commit %s (%v); gating anyway\n", baseCommit, err)
	return nil
}

// gate compares the fresh results against a committed baseline report and
// returns the list of violations: any benchmark present in both whose
// allocs/op, B/op or checkpoint size grew by more than tol. Allocation counts are
// deterministic, so they gate hard; ns/op gates only when timeTol > 0 —
// generously, to catch order-of-magnitude regressions without tripping on
// shared-runner noise.
func gate(fresh []result, baselinePath string, tol, timeTol float64) ([]string, error) {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return nil, err
	}
	var base report
	if err := json.Unmarshal(raw, &base); err != nil {
		return nil, fmt.Errorf("%s: %w", baselinePath, err)
	}
	if err := checkAncestry(base.Commit); err != nil {
		return nil, err
	}
	byName := map[string]result{}
	for _, b := range base.Benchmarks {
		byName[b.Name] = b
	}
	var bad []string
	for _, r := range fresh {
		b, ok := byName[r.Name]
		if !ok {
			continue // new benchmark: nothing to regress against
		}
		check := func(metric string, old, new, limit float64) {
			if old > 0 && new > old*(1+limit) {
				bad = append(bad, fmt.Sprintf("%s: %s %.0f -> %.0f (+%.1f%%, limit +%.0f%%)",
					r.Name, metric, old, new, (new/old-1)*100, limit*100))
			}
		}
		check("allocs/op", b.AllocsPerOp, r.AllocsPerOp, tol)
		check("B/op", b.BytesPerOp, r.BytesPerOp, tol)
		check("ckpt_bytes/op", b.CkptBytes, r.CkptBytes, tol)
		if timeTol > 0 {
			check("ns/op", b.NsPerOp, r.NsPerOp, timeTol)
		}
	}
	return bad, nil
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	commit := flag.String("commit", "", "commit hash to record (default: git rev-parse HEAD)")
	gateFile := flag.String("gate", "", "baseline JSON to gate against: exit 1 if allocs/op or B/op regresses beyond -gate-tolerance")
	gateTol := flag.Float64("gate-tolerance", 0.05, "fractional regression allowed by -gate")
	gateTime := flag.Bool("gate-time", false, "with -gate, also gate ns/op (within -gate-time-tolerance)")
	gateTimeTol := flag.Float64("gate-time-tolerance", 0.25, "fractional ns/op regression allowed by -gate-time")
	flag.Parse()

	if *commit == "" {
		*commit = headCommit()
	}
	// benchjson runs with the same toolchain that ran the benchmarks.
	rep := report{Commit: *commit, GoVersion: runtime.Version()}
	type agg struct {
		ns, insts, allocs, bytes, ckpt []float64
	}
	byName := map[string]*agg{}
	var order []string

	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		f := strings.Fields(line)
		if len(f) < 4 {
			continue
		}
		name := strings.SplitN(f[0], "-", 2)[0] // strip -GOMAXPROCS suffix
		a := byName[name]
		if a == nil {
			a = &agg{}
			byName[name] = a
			order = append(order, name)
		}
		// f[1] is the iteration count; then value/unit pairs follow.
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				continue
			}
			switch f[i+1] {
			case "ns/op":
				a.ns = append(a.ns, v)
			case "insts/op":
				a.insts = append(a.insts, v)
			case "allocs/op":
				a.allocs = append(a.allocs, v)
			case "B/op":
				a.bytes = append(a.bytes, v)
			case "ckpt_bytes/op":
				a.ckpt = append(a.ckpt, v)
			}
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}

	for _, name := range order {
		a := byName[name]
		if len(a.ns) == 0 {
			continue
		}
		r := result{Name: name, Runs: len(a.ns), NsPerOp: median(a.ns)}
		if len(a.insts) > 0 {
			r.InstsPerOp = median(a.insts)
			if r.NsPerOp > 0 {
				r.InstsPerSec = r.InstsPerOp / (r.NsPerOp * 1e-9)
			}
		}
		if len(a.allocs) > 0 {
			r.AllocsPerOp = median(a.allocs)
		}
		if len(a.bytes) > 0 {
			r.BytesPerOp = median(a.bytes)
		}
		if len(a.ckpt) > 0 {
			r.CkptBytes = median(a.ckpt)
		}
		rep.Benchmarks = append(rep.Benchmarks, r)
	}
	if len(rep.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}

	if *gateFile != "" {
		timeTol := 0.0
		if *gateTime {
			timeTol = *gateTimeTol
		}
		bad, err := gate(rep.Benchmarks, *gateFile, *gateTol, timeTol)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson: gate:", err)
			os.Exit(1)
		}
		for _, line := range bad {
			fmt.Fprintln(os.Stderr, "benchjson: regression:", line)
		}
		if len(bad) > 0 {
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchjson: gate vs %s passed (tolerance +%.0f%%)\n", *gateFile, *gateTol*100)
	}
}
