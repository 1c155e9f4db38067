package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rsepsim/internal/metrics"
	"rsepsim/internal/runner"
)

// span is one call the benchmark made into a module. Spans of one batch
// share Batch; Parent is the span that was open around the call (0 for a
// batch's root).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Batch  uint64 `json:"batch"`
	Name   string `json:"name"`
	Job    string `json:"job,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. The benchmark runs one
// batch at a time, so a stack of open container spans (the batch root, a
// server handler) names the parent of every call made meanwhile.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	open  []uint64 // ids of open container spans, innermost last
	batch uint64
	next  uint64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span under the innermost open container. A container span
// becomes the parent of the spans begun until it ends; a root container
// also starts a new batch.
func (t *tracer) begin(name, job string, container bool) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	s := span{ID: t.next, Name: name, Job: job, Start: t.now()}
	if len(t.open) == 0 {
		if container {
			t.batch = s.ID
		}
	} else {
		s.Parent = t.open[len(t.open)-1]
	}
	s.Batch = t.batch
	if container {
		t.open = append(t.open, s.ID)
	}
	t.spans = append(t.spans, s)
	return s.ID
}

// end closes span id.
func (t *tracer) end(id uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	end := t.now()
	for i := len(t.spans) - 1; i >= 0; i-- {
		if t.spans[i].ID == id {
			t.spans[i].End = end
			break
		}
	}
	// A handler may still be closing when the client's root span ends, so
	// a span leaves the stack wherever it sits.
	for i := len(t.open) - 1; i >= 0; i-- {
		if t.open[i] == id {
			t.open = append(t.open[:i], t.open[i+1:]...)
			break
		}
	}
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's duration minus the part of it that its
// children cover, keyed by span id.
func selfTimes(spans []span) map[uint64]time.Duration {
	kids := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered, reach := int64(0), s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, reach), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = time.Duration(s.End-s.Start-covered) * time.Nanosecond
	}
	return self
}

// tracing switches span recording on and off for the store wrapper and the
// handler wrapper, which stay installed either way so that turning tracing
// on changes nothing about what the scheduler is handed.
type tracing struct{ p atomic.Pointer[tracer] }

func (t *tracing) get() *tracer { return t.p.Load() }

// timedStore wraps the store a scheduler is given and records a span around
// every call. It implements runner.SliceStore as well as runner.Store: the
// scheduler type-asserts that interface to decide whether sliced jobs read
// and write slices and checkpoints, so a wrapper without it would silently
// turn sliced-extend into a cold re-simulation.
type timedStore struct {
	inner interface {
		runner.Store
		runner.SliceStore
	}
	tr *tracing
}

var (
	_ runner.Store      = (*timedStore)(nil)
	_ runner.SliceStore = (*timedStore)(nil)
)

// around opens a span for one call and returns its closer; untraced, it
// costs a pointer load.
func (s *timedStore) around(name, bench string, seed int64, cfgHash string) func() {
	t := s.tr.get()
	if t == nil {
		return func() {}
	}
	id := t.begin(name, jobTag(bench, seed, cfgHash), false)
	return func() { t.end(id) }
}

func jobTag(bench string, seed int64, cfgHash string) string {
	return fmt.Sprintf("%s/%d/%.12s", bench, seed, cfgHash)
}

func (s *timedStore) Get(k runner.Key) (*metrics.Stats, bool) {
	defer s.around("store.get", k.Bench, k.Seed, k.ConfigHash)()
	return s.inner.Get(k)
}

func (s *timedStore) Put(k runner.Key, st *metrics.Stats, simTime time.Duration) {
	defer s.around("store.put", k.Bench, k.Seed, k.ConfigHash)()
	s.inner.Put(k, st, simTime)
}

func (s *timedStore) Counters() runner.Counters { return s.inner.Counters() }

func (s *timedStore) GetSlice(k runner.SliceKey) (*metrics.Stats, bool) {
	defer s.around("store.get_slice", k.Bench, k.Seed, k.ConfigHash)()
	return s.inner.GetSlice(k)
}

func (s *timedStore) PutSlice(k runner.SliceKey, st *metrics.Stats) {
	defer s.around("store.put_slice", k.Bench, k.Seed, k.ConfigHash)()
	s.inner.PutSlice(k, st)
}

func (s *timedStore) GetCheckpoint(k runner.CheckpointKey) ([]byte, bool) {
	defer s.around("store.get_ckpt", k.Bench, k.Seed, k.ConfigHash)()
	return s.inner.GetCheckpoint(k)
}

func (s *timedStore) PutCheckpoint(k runner.CheckpointKey, blob []byte) {
	defer s.around("store.put_ckpt", k.Bench, k.Seed, k.ConfigHash)()
	s.inner.PutCheckpoint(k, blob)
}

// timedHandler records a container span around every request the server
// handles, so the store calls it makes nest under it.
func timedHandler(h http.Handler, tr *tracing) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t := tr.get()
		if t == nil {
			h.ServeHTTP(w, r)
			return
		}
		id := t.begin("serve.handler", "", true)
		defer t.end(id)
		h.ServeHTTP(w, r)
	})
}

// countingTransport counts the response bytes the client reads.
type countingTransport struct {
	inner http.RoundTripper
	n     *atomic.Int64
}

func (c countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := c.inner.RoundTrip(r)
	if err == nil {
		resp.Body = countingBody{resp.Body, c.n}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// spanMetrics derives the per-layer timings from the traced batches' spans:
// median store call durations, the server handler and the client's own
// share of a round trip, and per-job queue wait and execution. A job's
// execution is its runner.exec span where the executor could be wrapped,
// else the stretch from its first to its last slice or checkpoint access
// (sliced jobs, whose executor must stay the default).
func spanMetrics(m map[string]float64, spans []span, root string) {
	byName := make(map[string][]float64)
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], float64(s.dur()))
	}
	med := func(name string, unit time.Duration) float64 {
		if len(byName[name]) == 0 {
			return 0
		}
		return median(byName[name]) / float64(unit)
	}
	m["store.get_us"] = med("store.get", time.Microsecond)
	m["store.put_ms"] = med("store.put", time.Millisecond)
	m["store.get_slice_us"] = med("store.get_slice", time.Microsecond)
	m["store.put_slice_ms"] = med("store.put_slice", time.Millisecond)
	m["store.get_ckpt_ms"] = med("store.get_ckpt", time.Millisecond)
	m["store.put_ckpt_ms"] = med("store.put_ckpt", time.Millisecond)
	m["serve.handler_ms"] = med("serve.handler", time.Millisecond)

	self := selfTimes(spans)
	roots := make(map[uint64]span)
	var clientSelf []float64
	for _, s := range spans {
		if s.Parent == 0 && s.Name == root {
			roots[s.ID] = s
			if root == "serve.client" {
				clientSelf = append(clientSelf, ms(self[s.ID]))
			}
		}
	}
	m["serve.client_ms"] = 0
	if len(clientSelf) > 0 {
		m["serve.client_ms"] = median(clientSelf)
	}

	type interval struct{ start, end int64 }
	jobs := make(map[[2]string]*interval) // (batch, job) -> execution
	widen := func(key [2]string, s span) {
		iv := jobs[key]
		if iv == nil {
			jobs[key] = &interval{s.Start, s.End}
			return
		}
		iv.start, iv.end = min(iv.start, s.Start), max(iv.end, s.End)
	}
	exec := len(byName["runner.exec"]) > 0
	for _, s := range spans {
		key := [2]string{fmt.Sprint(s.Batch), s.Job}
		switch {
		case exec && s.Name == "runner.exec":
			widen(key, s)
		case !exec && (s.Name == "store.get_slice" || s.Name == "store.get_ckpt" ||
			s.Name == "store.put_slice" || s.Name == "store.put_ckpt"):
			widen(key, s)
		}
	}
	var wait, run []float64
	for _, s := range spans {
		r, ok := roots[s.Batch]
		iv := jobs[[2]string{fmt.Sprint(s.Batch), s.Job}]
		if !ok || iv == nil || s.Start != iv.start {
			continue
		}
		wait = append(wait, ms(time.Duration(iv.start-r.Start)))
		run = append(run, ms(time.Duration(iv.end-iv.start)))
		iv.start = -1 // count each job once
	}
	m["runner.queue_wait_ms"], m["runner.exec_ms"] = 0, 0
	if len(run) > 0 {
		m["runner.queue_wait_ms"], m["runner.exec_ms"] = median(wait), median(run)
	}
}
