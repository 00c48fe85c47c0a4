package main

import (
	"context"
	"net/http"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cdas/internal/crowd"
	"cdas/internal/engine"
	"cdas/internal/enum"
	"cdas/internal/exec"
	"cdas/internal/jobs"
	"cdas/internal/jobstore"
	"cdas/internal/standing"
	"cdas/internal/stats"
	"cdas/internal/tsa"
)

// span is one timed call at a layer boundary. Spans of one job share
// its name as their identifier; Parent names the span that caused it.
type span struct {
	Name   string    `json:"name"`
	Job    string    `json:"job,omitempty"`
	Parent string    `json:"parent,omitempty"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

func (s span) ms() float64 { return float64(s.End.Sub(s.Start)) / float64(time.Millisecond) }

// tracer records spans and counts around calls into the stack's public
// seams: the HTTP handler, the dispatcher's runner, the budget-charge
// hook, the mark store, the crowd platform, the result publishers and
// the store's failpoint hook. It is installed only in traced
// iterations and keeps everything in memory until the run ends.
type tracer struct {
	mu        sync.Mutex
	spans     []span
	committed map[string]time.Time // submit commit seen by the controller wrapper
	donePub   map[string]time.Time // first "done" publish per job

	fsyncs      atomic.Int64
	checkpoints atomic.Int64
	assignments atomic.Int64
	votes       atomic.Int64
	hitSlots    atomic.Int64
}

func newTracer() *tracer {
	return &tracer{
		committed: make(map[string]time.Time),
		donePub:   make(map[string]time.Time),
	}
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// recorded returns a copy of the spans recorded so far.
func (t *tracer) recorded() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// durations returns the durations (ms) of the spans with the given name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.ms())
		}
	}
	return out
}

// busy returns how long at least one span with one of the given names
// was open: the union of their intervals.
func busy(spans []span, names ...string) time.Duration {
	var iv []span
	for _, s := range spans {
		if slices.Contains(names, s.Name) {
			iv = append(iv, s)
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i].Start.Before(iv[j].Start) })
	var total time.Duration
	var curStart, curEnd time.Time
	for i, s := range iv {
		if i == 0 || s.Start.After(curEnd) {
			total += curEnd.Sub(curStart)
			curStart, curEnd = s.Start, s.End
			continue
		}
		if s.End.After(curEnd) {
			curEnd = s.End
		}
	}
	return total + curEnd.Sub(curStart)
}

// doneLag reports how long after the server published a job's "done"
// event the client received it.
func (t *tracer) doneLag(job string, received time.Time) (time.Duration, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	at, ok := t.donePub[job]
	if !ok {
		return 0, false
	}
	return received.Sub(at), true
}

func (t *tracer) noteDone(job string) {
	now := time.Now()
	t.mu.Lock()
	if _, ok := t.donePub[job]; !ok {
		t.donePub[job] = now
	}
	t.mu.Unlock()
}

// countStoreOp is the store's failpoint hook: it only counts, and
// always lets the operation proceed.
func (t *tracer) countStoreOp(point string) error {
	switch point {
	case jobstore.FailWALSync, jobstore.FailRunSync, jobstore.FailManifestSync, jobstore.FailDirSync:
		t.fsyncs.Add(1)
	}
	if point == jobstore.FailManifestRename {
		// Every checkpoint installs exactly one new manifest.
		t.checkpoints.Add(1)
	}
	return nil
}

// timeHandler times every submit and status read the API serves.
// Event streams stay open for a job's lifetime and are not timed.
func (t *tracer) timeHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name := ""
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
			name = "httpapi.submit"
		case r.Method == http.MethodGet && !strings.HasSuffix(r.URL.Path, "/events"):
			name = "httpapi.read"
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		if name != "" {
			t.add(span{Name: name, Start: start, End: time.Now()})
		}
	})
}

// controller wraps the API's job controller to note when each
// submission's commit returned.
type controller struct {
	*jobs.Dispatcher
	tr *tracer
}

func (c controller) Submit(job jobs.Job) (jobs.Plan, error) {
	plan, err := c.Dispatcher.Submit(job)
	if err == nil {
		now := time.Now()
		c.tr.mu.Lock()
		c.tr.committed[job.Name] = now
		c.tr.mu.Unlock()
	}
	return plan, err
}

// timeRunner times each claimed job's run, and the wait between its
// submit commit and the claim.
func (t *tracer) timeRunner(run jobs.Runner) jobs.Runner {
	return func(ctx context.Context, job jobs.Job, report func(progress, cost float64)) error {
		start := time.Now()
		t.mu.Lock()
		committed, ok := t.committed[job.Name]
		t.mu.Unlock()
		if ok {
			if committed.After(start) {
				// The claim raced the controller's return.
				committed = start
			}
			t.add(span{Name: "jobs.claim_wait", Job: job.Name, Start: committed, End: start})
		}
		err := run(ctx, job, report)
		t.add(span{Name: "jobs.run", Job: job.Name, Parent: "jobs.claim_wait", Start: start, End: time.Now()})
		return err
	}
}

// timeCharge times the durable budget-charge hook.
func (t *tracer) timeCharge(charge func(job string, amount float64)) func(job string, amount float64) {
	return func(job string, amount float64) {
		start := time.Now()
		charge(job, amount)
		t.add(span{Name: "jobs.charge", Job: job, Parent: "jobs.run", Start: start, End: time.Now()})
	}
}

// timedMarks times the durable mark commits of enumeration batches and
// stream windows.
type timedMarks struct {
	*jobs.Service
	tr *tracer
}

func (t *tracer) timeMarks(svc *jobs.Service) timedMarks { return timedMarks{Service: svc, tr: t} }

func (m timedMarks) CommitStreamMark(name string, mark jobs.StreamMark) error {
	start := time.Now()
	err := m.Service.CommitStreamMark(name, mark)
	m.tr.add(span{Name: "jobs.mark_commit", Job: name, Parent: "jobs.run", Start: start, End: time.Now()})
	return err
}

// countingPlatform counts the crowd assignments the engine consumes and
// the votes they carry.
type countingPlatform struct {
	engine.Platform
	tr *tracer
}

func (t *tracer) countPlatform(p engine.Platform) engine.Platform {
	return countingPlatform{Platform: p, tr: t}
}

func (p countingPlatform) Publish(hit crowd.HIT, n int) (engine.Run, error) {
	run, err := p.Platform.Publish(hit, n)
	if err != nil {
		return nil, err
	}
	p.tr.hitSlots.Add(int64(len(hit.Questions)))
	return countingRun{Run: run, tr: p.tr}, nil
}

type countingRun struct {
	engine.Run
	tr *tracer
}

func (r countingRun) Next() (crowd.Assignment, bool) {
	a, ok := r.Run.Next()
	if ok {
		r.tr.assignments.Add(1)
		r.tr.votes.Add(int64(len(a.Answers)))
	}
	return a, ok
}

// doneSink notes when a TSA job's final result is published.
type doneSink struct {
	tsa.ResultSink
	tr *tracer
}

func (t *tracer) tsaSink(s tsa.ResultSink) tsa.ResultSink { return doneSink{ResultSink: s, tr: t} }

func (s doneSink) UpdateFromSummary(name string, sum exec.Summary, progress float64, done bool) {
	s.ResultSink.UpdateFromSummary(name, sum, progress, done)
	if done {
		s.tr.noteDone(name)
	}
}

func (t *tracer) standingPublisher(pub standing.PublishFunc) standing.PublishFunc {
	return func(job jobs.Job, win *standing.WindowResult, mark jobs.StreamMark, sum exec.Summary, progress float64, done bool) {
		pub(job, win, mark, sum, progress, done)
		if done {
			t.noteDone(job.Name)
		}
	}
}

func (t *tracer) enumPublisher(pub enum.PublishFunc) enum.PublishFunc {
	return func(job jobs.Job, batch *enum.BatchResult, items []enum.Item, mark jobs.StreamMark, est stats.SpeciesEstimate, done bool) {
		pub(job, batch, items, mark, est, done)
		if done {
			t.noteDone(job.Name)
		}
	}
}
