// Command rsepbench is rsepsim's end-to-end benchmark. One run sets up one
// named workload, times its batch over and over for a given number of
// seconds, checks every job's result against the reference digest its first
// set-up produced, and prints the metrics as the last line of its output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (metrics.go: endToEnd).
// With -trace 1 the run times an untraced half window, then a traced half
// window with spans around every call into a module and a CPU profile, and
// prints the per-layer metrics (perLayer) instead.
//
// Run it through run.sh from the repository root, which builds it from the
// checkout's sources:
//
//	bash rsepbench/run.sh --workload sweep-mem --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"rsepsim/internal/version"
)

// Every run executes in one shape, whatever the machine: one P, so that the
// process's CPU time is the time of one thread of work, and runner
// parallelism 1, so that a batch's jobs run one after another.
const (
	procs       = 1
	parallelism = 1
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("rsepbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "seed the job set is derived from")
	seconds := fs.Float64("seconds", 30, "length of the timed window")
	trace := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run")
	root := fs.String("root", ".", "repository root; data goes under its .bench_build")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "rsepbench: bad arguments (workload %q, seconds %v, trace %d); workloads: %s\n",
			*name, *seconds, *trace, workloadNames())
		return 2
	}
	runtime.GOMAXPROCS(min(procs, runtime.NumCPU()))
	o := options{workload: w.name, seed: *seed, seconds: *seconds, trace: *trace == 1,
		root: *root, par: parallelism}

	prov := provenance(o)
	r, err := execute(w, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rsepbench: %s: %v\n", w.name, err)
		return 1
	}
	rec, _ := json.MarshalIndent(struct {
		Provenance map[string]any `json:"provenance"`
		*report
	}{prov, r}, "", "  ")
	fmt.Println(string(rec))
	line, err := json.Marshal(result(r, o.trace))
	if err != nil {
		fmt.Fprintf(os.Stderr, "rsepbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range append(workloads, unlisted...) {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summary struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// result is the run's last output line: exactly the declared metrics of the
// run's kind, each with its unit.
func result(r *report, traced bool) summary {
	defs := endToEnd
	if traced {
		defs = nil
		for _, d := range perLayer {
			defs = append(defs, d.metricDef)
		}
	}
	s := summary{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed,
		Metrics: make(map[string]value)}
	for _, d := range defs {
		s.Metrics[d.Name] = value{r.Metrics[d.Name], d.Unit}
	}
	return s
}

// provenance records the execution shape a result was measured under.
func provenance(o options) map[string]any {
	p := map[string]any{
		"commit":      version.String(),
		"workload":    o.workload,
		"seed":        o.seed,
		"seconds":     o.seconds,
		"trace":       o.trace,
		"go_version":  runtime.Version(),
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"parallelism": o.par,
		"cpu_model":   cpuModel(),
		"store_fs":    fsType(o.root),
	}
	if sum, err := sourceDigest(o.root); err == nil {
		p["source_sha256"] = sum
	}
	return p
}
