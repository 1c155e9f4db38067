package main

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"rsepsim/internal/config"
	"rsepsim/internal/experiments"
	"rsepsim/internal/metrics"
	"rsepsim/internal/pipeline"
	"rsepsim/internal/rsep"
	"rsepsim/internal/runner"
	"rsepsim/internal/serve"
	"rsepsim/internal/store"
	"rsepsim/internal/workload"
)

// env is what one set-up of a workload is built from.
type env struct {
	dir  string // this set-up's directory on the real disk
	seed int64
	par  int // runner parallelism
	tr   *tracing
}

// counts are the scheduler and store counters one batch moved. Traced and
// untraced batches of a workload must move them identically.
type counts struct {
	Simulations   uint64 `json:"simulations"`
	SlicesRun     uint64 `json:"slices_run"`
	SlicesResumed uint64 `json:"slices_resumed"`
	Hits          uint64 `json:"store_hits"`
	Misses        uint64 `json:"store_misses"`
	Stale         uint64 `json:"store_stale"`
}

func snapshotCounts(s *runner.Scheduler) counts {
	st, c := s.Status(), s.Results().Counters()
	return counts{st.Simulations, st.SlicesRun, st.SlicesResumed, c.Hits, c.Misses, c.Stale}
}

// moved is what one batch did besides its results.
type moved struct {
	counts  counts
	written int64 // bytes the batch left in the store (when sized)
	read    int64 // response bytes a client read
}

func (c counts) sub(o counts) counts {
	return counts{c.Simulations - o.Simulations, c.SlicesRun - o.SlicesRun,
		c.SlicesResumed - o.SlicesResumed, c.Hits - o.Hits, c.Misses - o.Misses, c.Stale - o.Stale}
}

// instance is one set-up of a workload: the state a user has paid for,
// ready to run the workload's batch again and again.
type instance interface {
	// jobs is the batch's job set, in result order.
	jobs() []runner.Job
	// rootSpan names the span around one batch: the module the benchmark
	// calls into.
	rootSpan() string
	// prepare readies the next batch (a fresh or reset store); untimed.
	prepare() error
	// batch runs the job set once; this is what a round times. It returns
	// one Stats or one error per job.
	batch(ctx context.Context) ([]*metrics.Stats, []error)
	// finish collects what the batch moved — with sized set, also the bytes
	// it left in the store; untimed.
	finish(sized bool) (moved, error)
	close() error
}

// workloadDef is one named traffic shape of the benchmark.
type workloadDef struct {
	name string
	why  string
	// setups is how many times one run sets the workload up: the first
	// set-up yields the reference digest, the others must reproduce it, and
	// setup_s is their median.
	setups int
	setup  func(e *env) (instance, error)
}

// Job sizes. Each round re-runs a fixed job set; the sizes keep one round
// short enough that a timed window holds many of them.
const (
	sweepWarmup   = 10_000
	sweepMeasure  = 20_000
	slicedWarmup  = 10_000
	slicedChunk   = 10_000 // measured instructions per slice
	slicedPrefix  = 3      // slices already in the store
	slicedExtend  = 3      // slices each round adds
	serveWarmup   = 2_000
	serveMeasure  = 3_000
	serveSegments = 1
)

var workloads = []workloadDef{
	{
		name:   "sweep-mem",
		why:    "cold-store Figure 6 batch on memory-bound profiles: the cache hierarchy, DRAM model and fast-forward do the host work",
		setups: 5,
		setup:  sweepSetup([]string{"mcf", "libquantum", "omnetpp"}),
	},
	{
		name:   "sliced-extend",
		why:    "daemon extends sliced jobs from a stored prefix: checkpoint restore and write, fsynced store puts, the serve path",
		setups: 3,
		setup:  slicedSetup,
	},
}

// unlisted workloads run by name but are not in BENCHMARK.json: on a shared
// host their timings drift too far between runs to gate on. Over ten 30-40 s
// runs, sweep-compute's batch CPU time spread by up to a fifth (interquartile
// range over median), and serve-warm's by up to a quarter, its batches
// moving between about 9 and 15 ms for seconds at a time.
var unlisted = []workloadDef{
	{
		name:   "sweep-compute",
		why:    "cold-store Figure 6 batch on compute-bound profiles: issue, rename and the predictors do the host work, caches idle",
		setups: 5,
		setup:  sweepSetup([]string{"hmmer", "dealII", "namd"}),
	},
	{
		name:   "serve-warm",
		why:    "resubmits a full Figure 6 job set to an in-process daemon over loopback: scheduler lookups, store gets, NDJSON only",
		setups: 3,
		setup:  serveSetup,
	},
}

func lookupWorkload(name string) (workloadDef, error) {
	for _, w := range append(workloads, unlisted...) {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// figure6Configs mirrors experiments.Figure6: the baseline, then RSEP with
// ideal validation, issue-twice locking the FU, issue-twice on any FU, and
// issue-twice with commit sampling at start_train 15 and 63.
func figure6Configs() []*config.Config {
	base := config.TableI()
	ideal := rsep.Ideal()
	lockFU := ideal
	lockFU.Validation = rsep.ValidateIssue2xSameFU
	anyFU := ideal
	anyFU.Validation = rsep.ValidateIssue2xAnyFU
	samp15 := anyFU
	samp15.Sampling = true
	samp15.TAGE.StartTrainThreshold = 15
	samp63 := anyFU
	samp63.Sampling = true
	samp63.TAGE.StartTrainThreshold = 63
	return []*config.Config{
		base,
		base.WithRSEP(ideal),
		base.WithRSEP(lockFU),
		base.WithRSEP(anyFU),
		base.WithRSEP(samp15),
		base.WithRSEP(samp63),
	}
}

// baseSeed maps the benchmark seed to the first workload-generator seed, so
// a seed changes every instruction stream but never the profiles or sizes.
func baseSeed(seed int64) int64 { return 1000 + 16*seed }

// openStore opens a disk store under dir and layers the memory tier over it,
// the way the commands mount ~/.cache/rsepsim.
func openStore(dir string) (*store.Disk, *store.Tiered, error) {
	disk, err := store.Open(dir)
	if err != nil {
		return nil, nil, err
	}
	return disk, store.NewTiered(disk, false), nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return n, err
}

// sweep runs one cold-store Figure 6 batch per round through
// experiments.SweepContext: a fresh store directory each round, so every job
// simulates and puts one fsynced envelope.
type sweep struct {
	e       *env
	benches []string
	cfgs    []*config.Config
	round   int
	dir     string
	disk    *store.Disk
	sched   *runner.Scheduler
}

func sweepSetup(benches []string) func(e *env) (instance, error) {
	return func(e *env) (instance, error) {
		s := &sweep{e: e, benches: benches, cfgs: figure6Configs()}
		// What a user pays before the first result: the store, then the
		// first cores of the sweep's configurations.
		if err := s.prepare(); err != nil {
			return nil, err
		}
		prof, err := workload.ByName(benches[0])
		if err != nil {
			return nil, err
		}
		for _, cfg := range s.cfgs {
			c := cfg.Clone()
			c.Seed = baseSeed(e.seed)
			pipeline.New(c, workload.New(prof, c.Seed))
		}
		return s, nil
	}
}

func (s *sweep) options() experiments.Options {
	return experiments.Options{
		Benchmarks:  s.benches,
		Segments:    1,
		Warmup:      sweepWarmup,
		Measure:     sweepMeasure,
		BaseSeed:    baseSeed(s.e.seed),
		Parallelism: s.e.par,
		Runner:      s.sched,
	}
}

func (s *sweep) jobs() []runner.Job {
	o := s.options()
	var jobs []runner.Job
	for _, b := range o.Benchmarks {
		for _, cfg := range s.cfgs {
			jobs = append(jobs, runner.Job{Bench: b, Config: cfg, Seed: o.BaseSeed,
				Warmup: o.Warmup, Measure: o.Measure})
		}
	}
	return jobs
}

func (s *sweep) rootSpan() string { return "experiments.sweep" }

func (s *sweep) prepare() error {
	if s.sched != nil {
		return nil // set-up already prepared the first batch
	}
	s.round++
	s.dir = filepath.Join(s.e.dir, fmt.Sprintf("store-%d", s.round))
	disk, tiered, err := openStore(s.dir)
	if err != nil {
		return err
	}
	opt := runner.SchedulerOptions{
		Parallelism: s.e.par,
		Store:       &timedStore{inner: tiered, tr: s.e.tr},
	}
	if t := s.e.tr.get(); t != nil {
		// Sweep jobs are monolithic, so a timing executor around the
		// default one changes nothing the scheduler does.
		opt.Executor = func(ctx context.Context, j runner.Job) (*metrics.Stats, error) {
			id := t.begin("runner.exec", jobTag(j.Bench, j.Seed, j.Config.SeedlessHash()), false)
			defer t.end(id)
			return runner.Simulate(ctx, j)
		}
	}
	s.disk, s.sched = disk, runner.NewScheduler(opt)
	return nil
}

func (s *sweep) batch(ctx context.Context) ([]*metrics.Stats, []error) {
	res, err := experiments.SweepContext(ctx, s.cfgs, s.options())
	n := len(s.benches) * len(s.cfgs)
	stats, errs := make([]*metrics.Stats, n), make([]error, n)
	for i := range n {
		if err != nil {
			errs[i] = err
			continue
		}
		st := res[i/len(s.cfgs)][i%len(s.cfgs)].Stats
		stats[i] = &st
	}
	return stats, errs
}

func (s *sweep) finish(sized bool) (moved, error) {
	m := moved{counts: snapshotCounts(s.sched)}
	var err error
	if sized {
		m.written, err = dirBytes(s.dir)
	}
	err = errors.Join(err, s.disk.Err(), os.RemoveAll(s.dir))
	s.sched, s.disk = nil, nil
	return m, err
}

func (s *sweep) close() error { return nil }

// daemon is an in-process rsepd over loopback: a serve.Server on a
// scheduler backed by one store, and one serve.Client submitting to it.
type daemon struct {
	disk   *store.Disk
	sched  *runner.Scheduler
	srv    *serve.Server
	hs     *http.Server
	served chan error
	hc     *http.Client
	client *serve.Client
	read   atomic.Int64 // response bytes the client has read
	before moved
}

// startDaemon serves st, whose persistent tier is disk, on a loopback port.
func startDaemon(e *env, disk *store.Disk, st interface {
	runner.Store
	runner.SliceStore
}) (*daemon, error) {
	d := &daemon{disk: disk}
	d.sched = runner.NewScheduler(runner.SchedulerOptions{
		Parallelism: e.par,
		Store:       &timedStore{inner: st, tr: e.tr},
	})
	d.srv = serve.NewServer(serve.Options{Sched: d.sched, Disk: disk})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d.hs = &http.Server{Handler: timedHandler(d.srv.Handler(), e.tr)}
	d.served = make(chan error, 1)
	go func() { d.served <- d.hs.Serve(ln) }()
	d.hc = &http.Client{Transport: countingTransport{serve.NewTransport(), &d.read}}
	if d.client, err = serve.NewClientWith("http://"+ln.Addr().String(), d.hc); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

func (d *daemon) rootSpan() string { return "serve.client" }

// mark starts a batch's counter and byte deltas.
func (d *daemon) mark() {
	d.before = moved{counts: snapshotCounts(d.sched), read: d.read.Load()}
}

func (d *daemon) run(ctx context.Context, jobs []runner.Job, par int) ([]*metrics.Stats, []error) {
	return splitResults(d.client.RunBatch(ctx, runner.Batch{Jobs: jobs, Parallelism: par}))
}

// delta is what the batch since mark moved.
func (d *daemon) delta() moved {
	return moved{
		counts: snapshotCounts(d.sched).sub(d.before.counts),
		read:   d.read.Load() - d.before.read,
	}
}

// close stops the server and waits for its accept loop to return.
func (d *daemon) close() error {
	d.srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	d.hc.CloseIdleConnections()
	return err
}

// splitResults spreads a batch's results into per-job stats and errors.
func splitResults(res []runner.Result, err error) ([]*metrics.Stats, []error) {
	stats, errs := make([]*metrics.Stats, len(res)), make([]error, len(res))
	for i, r := range res {
		stats[i], errs[i] = r.Stats, r.Err
		if r.Stats == nil && r.Err == nil {
			errs[i] = err
		}
	}
	return stats, errs
}

// sliced submits, to a daemon, sliced jobs that extend a stored prefix of
// slicedPrefix slices by slicedExtend more: each job resumes the prefix
// slices from the store, restores the prefix's final checkpoint, simulates
// and checkpoints the new slices, and puts every new slice and checkpoint.
// Between rounds the store is reset to the prefix. The daemon mounts the
// disk store without a memory tier, so nothing of one round survives into
// the next but what the reset leaves on disk.
type sliced struct {
	*daemon
	e      *env
	prefix []runner.Job
	ext    []runner.Job
	dir    string
	keep   map[string]bool // the prefix's files
	kept   int64           // their bytes
}

// slicedBenches mixes a memory-bound and a compute-bound stream; each runs
// one configuration.
var slicedBenches = []string{"mcf", "hmmer"}

func slicedSetup(e *env) (instance, error) {
	s := &sliced{e: e, dir: filepath.Join(e.dir, "store")}
	cfg := config.TableI().WithRSEP(rsep.Realistic())
	for i, b := range slicedBenches {
		j := runner.Job{Bench: b, Config: cfg, Seed: baseSeed(e.seed) + int64(i), Warmup: slicedWarmup}
		p, x := j, j
		p.Measure, p.Slices = slicedPrefix*slicedChunk, slicedPrefix
		x.Measure, x.Slices = (slicedPrefix+slicedExtend)*slicedChunk, slicedPrefix+slicedExtend
		s.prefix, s.ext = append(s.prefix, p), append(s.ext, x)
	}
	// What a user pays before extending: the daemon, and the prefix in its
	// store.
	disk, err := store.Open(s.dir)
	if err != nil {
		return nil, err
	}
	if s.daemon, err = startDaemon(e, disk, disk); err != nil {
		return nil, err
	}
	_, errs := s.run(context.Background(), s.prefix, e.par)
	if err := errors.Join(append(errs, disk.Err())...); err != nil {
		s.close()
		return nil, fmt.Errorf("storing the prefix: %w", err)
	}
	s.keep = make(map[string]bool)
	err = filepath.WalkDir(s.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			s.keep[path] = true
			s.kept += info.Size()
		}
		return err
	})
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *sliced) jobs() []runner.Job { return s.ext }

// prepare resets the store to the prefix. The scheduler has no custom
// Executor: one would turn sliced execution off.
func (s *sliced) prepare() error {
	s.mark()
	return filepath.WalkDir(s.dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() && !s.keep[path] {
			err = os.Remove(path)
		}
		return err
	})
}

func (s *sliced) batch(ctx context.Context) ([]*metrics.Stats, []error) {
	return s.run(ctx, s.ext, s.e.par)
}

func (s *sliced) finish(sized bool) (moved, error) {
	m := s.delta()
	var err error
	if sized {
		m.written, err = dirBytes(s.dir)
		m.written -= s.kept
	}
	return m, errors.Join(err, s.disk.Err())
}

// served resubmits one Figure 6 job set, in a closed loop, to a daemon whose
// store the first submission populated.
type served struct {
	*daemon
	e   *env
	all []runner.Job
}

func serveSetup(e *env) (instance, error) {
	s := &served{e: e}
	for _, b := range workload.Names() {
		for _, cfg := range figure6Configs() {
			for seg := range serveSegments {
				s.all = append(s.all, runner.Job{Bench: b, Config: cfg,
					Seed: baseSeed(e.seed) + int64(seg), Warmup: serveWarmup, Measure: serveMeasure})
			}
		}
	}
	disk, tiered, err := openStore(filepath.Join(e.dir, "store"))
	if err != nil {
		return nil, err
	}
	if s.daemon, err = startDaemon(e, disk, tiered); err != nil {
		return nil, err
	}
	// The first submission populates the store; every later one is warm.
	if _, errs := s.batch(context.Background()); errors.Join(errs...) != nil {
		s.close()
		return nil, fmt.Errorf("populating the store: %w", errors.Join(errs...))
	}
	return s, nil
}

func (s *served) jobs() []runner.Job { return s.all }

func (s *served) prepare() error {
	s.mark()
	return nil
}

func (s *served) batch(ctx context.Context) ([]*metrics.Stats, []error) {
	return s.run(ctx, s.all, s.e.par)
}

func (s *served) finish(bool) (moved, error) {
	return s.delta(), s.disk.Err()
}
