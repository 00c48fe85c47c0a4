package main

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"cdas/api"
	"cdas/client"
	"cdas/internal/jobs"
	"cdas/internal/metrics"
)

const (
	// stallTimeout aborts an iteration in which no job settles for this
	// long; the iteration then counts as failed.
	stallTimeout = 30 * time.Second
	// minTick, sweepDuty and maxTick pace the settlement observer: after
	// a sweep that took d it sleeps sweepDuty*d clamped to [minTick,
	// maxTick], so observation costs the stack a bounded share of its
	// time however many jobs are in flight, and a sweep that waited on
	// the server does not blind the observer for long.
	minTick   = 2 * time.Millisecond
	maxTick   = 50 * time.Millisecond
	sweepDuty = 8
	// listPage sizes the observer's list pages: small enough that one
	// read stays cheap when hundreds of jobs are in flight.
	listPage = 100
	// reopens is how many times an iteration reopens the store it wrote,
	// timing each reopen and checking the recovered state every time.
	// Each reopen starts after a forced garbage collection, so the
	// collector is not still working off the garbage of the run (or of
	// the previous reopen) while a reopen is timed.
	reopens = 15
	// followTimeout bounds one traced SSE follow.
	followTimeout = 20 * time.Second
)

// jobRec is one submitted job as the benchmark's client sees it.
type jobRec struct {
	in *jobInput
	// due is when the job was scheduled to be sent (open loop) or when
	// the writer began sending it (closed loop); e2e latency counts
	// from here.
	due     time.Time
	ok      bool // the submit was acknowledged
	settled time.Time
	status  api.JobStatus
}

func (r *jobRec) name() string { return r.in.sub.Name }

// tracker holds the jobs the observer must still see settle.
type tracker struct {
	mu          sync.Mutex
	outstanding []*jobRec // acknowledged and unsettled, in ack order
	settledN    int
	changed     chan struct{}
}

func newTracker() *tracker { return &tracker{changed: make(chan struct{}, 1)} }

func (t *tracker) signal() {
	select {
	case t.changed <- struct{}{}:
	default:
	}
}

func (t *tracker) ack(r *jobRec) {
	t.mu.Lock()
	r.ok = true
	t.outstanding = append(t.outstanding, r)
	t.mu.Unlock()
}

// drop settles a job whose submit failed: nothing will ever settle it.
func (t *tracker) drop() {
	t.mu.Lock()
	t.settledN++
	t.mu.Unlock()
	t.signal()
}

func (t *tracker) snapshot() []*jobRec {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*jobRec(nil), t.outstanding...)
}

func (t *tracker) settle(done map[*jobRec]api.JobStatus, at time.Time) {
	if len(done) == 0 {
		return
	}
	t.mu.Lock()
	keep := t.outstanding[:0]
	for _, r := range t.outstanding {
		if st, ok := done[r]; ok {
			r.settled, r.status = at, st
			t.settledN++
			continue
		}
		keep = append(keep, r)
	}
	t.outstanding = keep
	t.mu.Unlock()
	t.signal()
}

func (t *tracker) settledCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.settledN
}

// settledState reports whether a job stopped consuming the crowd.
func settledState(s api.JobState) bool { return s.Terminal() || s == api.JobParked }

// iterResult is what one iteration measured.
type iterResult struct {
	set      int // the input set the iteration ran
	setup    time.Duration
	recovers []float64 // seconds per reopen of the written store
	wall     time.Duration
	items    float64
	spend    float64
	phases   [3]time.Duration // match, flush, settle
	submitMS []float64
	readMS   []float64
	e2eMS    []float64
	lateMS   []float64
	lagMS    []float64
	tvs      []float64 // per-job answer error
	recallN  float64
	recallD  float64
	hash     string

	attempted, failed int
	problems          []string

	// Per-layer counts read from the stack after the run.
	walAppends        int64
	jobs              int
	enqueued, deduped int64
	cacheHits         int64
	windowsClosed     int64
	streamLoss        float64
	streamSeen        float64
	enumBatches       int64
	// tr holds the spans and counts of a traced iteration; nil otherwise.
	tr *tracer
}

// iteration drives one fresh stack through the workload once.
type iteration struct {
	w        workload
	in       *inputs
	st       *stack
	writer   *client.Client
	observer *client.Client
	trk      *tracker
	recs     []*jobRec

	mu  sync.Mutex // guards res's counters and problems
	res *iterResult
}

func (it *iteration) attempt(err error, format string, args ...any) bool {
	it.mu.Lock()
	defer it.mu.Unlock()
	it.res.attempted++
	if err == nil {
		return true
	}
	it.res.failed++
	if len(it.res.problems) < 20 {
		it.res.problems = append(it.res.problems, fmt.Sprintf(format, args...)+": "+err.Error())
	}
	return false
}

// check records a correctness check; a failed one counts as a failed
// operation.
func (it *iteration) check(ok bool, format string, args ...any) {
	var err error
	if !ok {
		err = errors.New("check failed")
	}
	it.attempt(err, format, args...)
}

// newClient returns an SDK client with a single connection: the load
// never holds more connections than it has goroutines issuing calls.
func newClient(base string) (*client.Client, *http.Transport) {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	return client.New(base, client.WithHTTPClient(&http.Client{Transport: tr})), tr
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runIteration boots a fresh stack in a new store directory, drives the
// workload through it, checks the outcome, then closes the stack and
// reopens the store to check what the client was told survived.
func runIteration(ctx context.Context, w workload, in *inputs, cfg stackConfig, traced bool) *iterResult {
	// Start from a collected heap, so no iteration pays for the garbage
	// of the one before it.
	runtime.GC()
	res := &iterResult{}
	it := &iteration{w: w, in: in, res: res, trk: newTracker()}
	dir, err := os.MkdirTemp("", "perfbench-store-")
	if !it.attempt(err, "store dir") {
		return res
	}
	defer os.RemoveAll(dir)
	if traced {
		res.tr = newTracer()
	}

	start := time.Now()
	st, err := bootStack(dir, cfg, res.tr)
	if !it.attempt(err, "boot") {
		return res
	}
	it.st = st
	defer st.Close()
	var wt, ot *http.Transport
	it.writer, wt = newClient(st.base)
	it.observer, ot = newClient(st.base)
	defer wt.CloseIdleConnections()
	defer ot.CloseIdleConnections()
	_, err = it.writer.Health(ctx)
	if !it.attempt(err, "health") {
		return res
	}
	res.setup = time.Since(start)

	if !it.drive(ctx) {
		return res
	}
	sw := it.sweep(ctx)
	it.checkOutcome(sw)

	it.readCounters()
	it.attempt(st.Close(), "close")
	for i := 0; i < reopens; i++ {
		runtime.GC()
		start = time.Now()
		svc, err := reopenStore(dir)
		if !it.attempt(err, "reopen") {
			return res
		}
		res.recovers = append(res.recovers, time.Since(start).Seconds())
		it.checkRecovered(svc, sw)
		it.attempt(svc.Close(), "close reopened store")
	}
	return res
}

// drive submits every wave and waits for it to settle, with the
// observer running alongside.
func (it *iteration) drive(ctx context.Context) bool {
	obsCtx, stopObs := context.WithCancel(ctx)
	var obs sync.WaitGroup
	obs.Add(1)
	go func() {
		defer obs.Done()
		it.observe(obsCtx)
	}()
	defer func() {
		stopObs()
		obs.Wait()
	}()

	for i := range it.in.jobs {
		it.recs = append(it.recs, &jobRec{in: &it.in.jobs[i]})
	}
	begin := time.Now()
	for wave := 0; wave < it.in.waves; wave++ {
		var recs []*jobRec
		for _, r := range it.recs {
			if r.in.wave == wave {
				recs = append(recs, r)
			}
		}
		phases, ok := it.runWave(ctx, recs)
		for i, p := range phases {
			it.res.phases[i] += p
		}
		if !ok {
			return false
		}
	}
	it.res.wall = time.Since(begin)
	return true
}

// runWave submits one wave from the writer goroutine and returns its
// phases: match (first submit until the whole wave waits in the
// scheduler), flush (the generation the barrier runs) and settle (until
// the observer has seen every job settle).
func (it *iteration) runWave(ctx context.Context, recs []*jobRec) ([3]time.Duration, bool) {
	var phases [3]time.Duration
	before := it.trk.settledCount()
	t0 := time.Now()
	if it.w.openLoop {
		for _, r := range recs {
			r.due = t0.Add(r.in.due)
		}
	}
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		it.submit(ctx, recs)
	}()
	defer func() { <-writerDone }()

	t1, t2 := t0, t0
	if it.w.kind == kindTSA && !it.w.openLoop {
		// The closed-loop barrier: flush once the whole wave is enqueued,
		// so every generation's composition is a function of the seed.
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		last, lastPending := time.Now(), -1
		for {
			select {
			case <-ctx.Done():
				return phases, false
			case <-tick.C:
			}
			pending := it.st.sched.State().PendingJobs
			if pending != lastPending {
				last, lastPending = time.Now(), pending
			}
			if pending > 0 && pending+it.trk.settledCount()-before == len(recs) {
				break
			}
			if time.Since(last) > stallTimeout {
				it.check(false, "wave stalled before the barrier (%d of %d pending)", pending, len(recs))
				return phases, false
			}
		}
		t1 = time.Now()
		it.attempt(it.st.sched.Flush(ctx), "flush")
		t2 = time.Now()
	}
	last, lastN := time.Now(), -1
	for {
		n := it.trk.settledCount() - before
		if n == len(recs) {
			break
		}
		if n != lastN {
			last, lastN = time.Now(), n
		}
		wait := stallTimeout - time.Since(last)
		if wait <= 0 {
			it.check(false, "wave stalled (%d of %d jobs settled)", n, len(recs))
			return phases, false
		}
		select {
		case <-ctx.Done():
			return phases, false
		case <-it.trk.changed:
		case <-time.After(wait):
		}
	}
	t3 := time.Now()
	phases = [3]time.Duration{t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)}
	return phases, true
}

// submit is the writer: it sends each job in order, on schedule in
// open loop, back to back in closed loop.
func (it *iteration) submit(ctx context.Context, recs []*jobRec) {
	for _, r := range recs {
		if it.w.openLoop {
			if d := time.Until(r.due); d > 0 {
				select {
				case <-ctx.Done():
					return
				case <-time.After(d):
				}
			}
			it.res.lateMS = append(it.res.lateMS, ms(time.Since(r.due)))
		} else {
			r.due = time.Now()
		}
		t0 := time.Now()
		_, err := it.writer.SubmitJob(ctx, r.in.sub)
		it.res.submitMS = append(it.res.submitMS, ms(time.Since(t0)))
		if !it.attempt(err, "submit %s", r.name()) {
			it.trk.drop()
			continue
		}
		it.trk.ack(r)
	}
}

// observe is the settlement observer, on its own connection. Each sweep
// lists the in-flight jobs (pending and running pages, whose size
// follows the in-flight count, not the job total), then confirms with
// one status read each outstanding job the lists no longer hold.
func (it *iteration) observe(ctx context.Context) {
	for ctx.Err() == nil {
		start := time.Now()
		it.sweepSettled(ctx)
		wait := min(max(minTick, sweepDuty*time.Since(start)), maxTick)
		if it.res.tr != nil {
			it.followOne(ctx)
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(wait):
		}
	}
}

// read times one observer call; a call cut short by the end of the
// iteration is not a failure.
func (it *iteration) read(ctx context.Context, t0 time.Time, err error, what string) bool {
	if ctx.Err() != nil {
		return false
	}
	it.res.readMS = append(it.res.readMS, ms(time.Since(t0)))
	return it.attempt(err, "%s", what)
}

func (it *iteration) sweepSettled(ctx context.Context) {
	out := it.trk.snapshot()
	if len(out) == 0 {
		return
	}
	inflight := make(map[string]bool)
	for _, state := range []api.JobState{api.JobPending, api.JobRunning} {
		opts := client.ListJobsOptions{State: state, Limit: listPage}
		for {
			t0 := time.Now()
			page, err := it.observer.ListJobs(ctx, opts)
			if !it.read(ctx, t0, err, "list "+string(state)) {
				return
			}
			for _, j := range page.Jobs {
				inflight[j.Name] = true
			}
			if page.NextPageToken == "" {
				break
			}
			opts.PageToken = page.NextPageToken
		}
	}
	seen := time.Now()
	done := make(map[*jobRec]api.JobStatus)
	for _, r := range out {
		if inflight[r.name()] {
			continue
		}
		t0 := time.Now()
		st, err := it.observer.Job(ctx, r.name())
		if !it.read(ctx, t0, err, "get "+r.name()) {
			continue
		}
		if settledState(st.State) {
			done[r] = st
		}
	}
	it.trk.settle(done, seen)
}

// followOne follows the newest outstanding job's event stream to its
// "done" event and records how long after the server published it the
// client received it (traced iterations only; the observer does not
// sweep meanwhile).
func (it *iteration) followOne(ctx context.Context) {
	out := it.trk.snapshot()
	if len(out) == 0 {
		return
	}
	name := out[len(out)-1].name()
	fctx, cancel := context.WithTimeout(ctx, followTimeout)
	defer cancel()
	var received time.Time
	var err error
	switch it.w.kind {
	case kindTSA:
		var ch <-chan client.QueryEvent
		if ch, err = it.observer.WatchQuery(fctx, name); err == nil {
			received = awaitDone(ch, cancel, func(ev client.QueryEvent) bool { return ev.Err == nil && ev.Type == api.EventDone })
		}
	case kindEnum:
		var ch <-chan client.EnumWatchEvent
		if ch, err = it.observer.WatchEnumeration(fctx, name); err == nil {
			received = awaitDone(ch, cancel, func(ev client.EnumWatchEvent) bool { return ev.Err == nil && ev.Type == api.EventDone })
		}
	case kindStream:
		var ch <-chan client.StreamEvent
		if ch, err = it.observer.WatchStream(fctx, name); err == nil {
			received = awaitDone(ch, cancel, func(ev client.StreamEvent) bool { return ev.Err == nil && ev.Type == api.EventDone })
		}
	}
	if ctx.Err() != nil || !it.attempt(err, "follow %s", name) || received.IsZero() {
		return
	}
	if lag, ok := it.res.tr.doneLag(name, received); ok {
		it.res.lagMS = append(it.res.lagMS, ms(lag))
	}
}

// awaitDone drains an event stream and returns when its first "done"
// event arrived (zero if none did), cancelling the stream at that point.
func awaitDone[E any](events <-chan E, cancel context.CancelFunc, isDone func(E) bool) time.Time {
	var at time.Time
	for ev := range events {
		if at.IsZero() && isDone(ev) {
			at = time.Now()
			cancel()
		}
	}
	return at
}

// sweepResult is the final API view of an iteration, read after every
// job settled.
type sweepResult struct {
	jobs    map[string]api.JobStatus
	enums   map[string]api.EnumStatus
	streams map[string]api.StreamStatus
	ledger  api.BudgetSnapshot
}

func (it *iteration) sweep(ctx context.Context) sweepResult {
	sw := sweepResult{
		jobs:    make(map[string]api.JobStatus),
		enums:   make(map[string]api.EnumStatus),
		streams: make(map[string]api.StreamStatus),
	}
	for _, r := range it.recs {
		if !r.ok {
			continue
		}
		name := r.name()
		sw.jobs[name] = r.status
		switch it.w.kind {
		case kindEnum:
			st, err := it.observer.Enumeration(ctx, name)
			if it.attempt(err, "sweep enumeration %s", name) {
				sw.enums[name] = st
			}
		case kindStream:
			st, err := it.observer.Stream(ctx, name)
			if it.attempt(err, "sweep stream %s", name) {
				sw.streams[name] = st
			}
		}
	}
	sched, err := it.observer.SchedulerState(ctx)
	if it.attempt(err, "sweep scheduler") {
		sw.ledger = sched.Budget
	}
	return sw
}

// checkOutcome checks every job's end state and the ledger, and scores
// the answers against the generator's ground truth.
func (it *iteration) checkOutcome(sw sweepResult) {
	res := it.res
	names := make([]string, 0, len(sw.jobs))
	for name := range sw.jobs {
		names = append(names, name)
	}
	sort.Strings(names)
	var cost float64
	for _, name := range names {
		cost += sw.jobs[name].Cost
	}
	res.spend = cost
	res.jobs = len(it.recs)
	for _, r := range it.recs {
		if !r.ok {
			continue
		}
		st := sw.jobs[r.name()]
		it.check(st.State == api.JobDone, "job %s ended %s, want done", r.name(), st.State)
		it.score(r, sw)
	}
	it.check(math.Abs(sw.ledger.GlobalSpent-cost) <= 1e-6*math.Max(1, cost),
		"ledger spend %.9f equals the sum of job costs %.9f", sw.ledger.GlobalSpent, cost)
	for _, r := range it.recs {
		if r.ok && !r.settled.IsZero() {
			res.e2eMS = append(res.e2eMS, ms(r.settled.Sub(r.due)))
		}
	}
	if !it.w.openLoop {
		res.hash = resultsHash(names, sw)
	}
}

// score adds one job's answer error and recall against its truth.
func (it *iteration) score(r *jobRec, sw sweepResult) {
	res := it.res
	name := r.name()
	switch it.w.kind {
	case kindTSA:
		st := sw.jobs[name]
		res.items += float64(r.in.items)
		var reported map[string]float64
		answered := 0
		if st.Results != nil {
			reported, answered = st.Results.Percentages, st.Results.Items
		}
		res.tvs = append(res.tvs, tvDistance(reported, r.in.truth))
		res.recallN += float64(min(answered, r.in.items))
		res.recallD += float64(r.in.items)
	case kindEnum:
		st := sw.enums[name]
		res.items += float64(st.Contributions)
		counts := make(map[string]float64)
		for _, item := range st.Items {
			counts[memberKey(item.Text)] += float64(item.Count)
		}
		found := 0
		for k := range counts {
			if _, ok := r.in.truth[k]; ok {
				found++
			}
		}
		res.tvs = append(res.tvs, tvDistance(counts, r.in.truth))
		res.recallN += float64(found)
		res.recallD += float64(r.in.items)
		res.enumBatches += int64(st.Batches)
	case kindStream:
		st := sw.streams[name]
		res.items += float64(st.Seen)
		var reported map[string]float64
		if st.Results != nil {
			reported = st.Results.Percentages
		}
		res.tvs = append(res.tvs, tvDistance(reported, r.in.truth))
		res.recallN += float64(st.Matched - st.Dropped - st.Degraded)
		res.recallD += float64(r.in.items)
		res.streamLoss += float64(st.Dropped + st.Degraded)
		res.streamSeen += float64(st.Seen)
	}
}

// resultsHash fingerprints a closed-loop iteration's outcome: every
// job's end state, cost and reported answer, in name order.
func resultsHash(names []string, sw sweepResult) string {
	h := fnv.New64a()
	for _, name := range names {
		st := sw.jobs[name]
		fmt.Fprintf(h, "%s|%s|%.9g|", name, st.State, st.Cost)
		if st.Results != nil {
			fmt.Fprintf(h, "%d|%s|", st.Results.Items, sharesKey(st.Results.Percentages))
		}
		if e, ok := sw.enums[name]; ok {
			fmt.Fprintf(h, "%d|%d|%d|", e.Batches, e.Contributions, e.Distinct)
			for _, item := range e.Items {
				fmt.Fprintf(h, "%s=%d,", item.Key, item.Count)
			}
		}
		if s, ok := sw.streams[name]; ok {
			fmt.Fprintf(h, "%d|%d|%d|%d|%.9g|", s.WindowsClosed, s.Seen, s.Dropped, s.Degraded, s.Spent)
		}
		h.Write([]byte{'\n'})
	}
	fmt.Fprintf(h, "ledger|%.9g", sw.ledger.GlobalSpent)
	return fmt.Sprintf("%016x", h.Sum64())
}

func sharesKey(m map[string]float64) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%.9g,", k, m[k])
	}
	return b.String()
}

// readCounters reads the per-layer counts the stack kept for this
// iteration (each iteration boots a fresh stack, so totals are deltas).
func (it *iteration) readCounters() {
	res, c := it.res, it.st.counters
	res.walAppends = c.Get(metrics.CounterWALAppends)
	res.windowsClosed = c.Get(metrics.CounterStreamWindowsClosed)
	s := it.st.sched.State()
	res.enqueued, res.deduped, res.cacheHits = s.QuestionsEnqueued, s.QuestionsDeduped, s.CacheHits
}

// checkRecovered checks that the reopened store holds exactly what the
// client was told before the close: every job's state and cost, the
// ledger, and the enumeration and stream marks.
func (it *iteration) checkRecovered(svc *jobs.Service, sw sweepResult) {
	same := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }
	for name, st := range sw.jobs {
		got, ok := svc.Status(name)
		it.check(ok && string(got.State) == string(st.State) && same(got.Cost, st.Cost),
			"job %s after reopen is %s/%.9g, client was told %s/%.9g", name, got.State, got.Cost, st.State, st.Cost)
	}
	b := svc.Budget()
	it.check(same(b.GlobalSpent, sw.ledger.GlobalSpent),
		"ledger after reopen %.9f, client was told %.9f", b.GlobalSpent, sw.ledger.GlobalSpent)
	for _, line := range sw.ledger.Jobs {
		it.check(same(b.Jobs[line.Job], line.Spent), "ledger line %s after reopen", line.Job)
	}
	for name, e := range sw.enums {
		m, ok := svc.StreamMarkFor(name)
		it.check(ok && same(m.Spent, e.Spent), "enumeration mark %s after reopen", name)
	}
	for name, s := range sw.streams {
		m, ok := svc.StreamMarkFor(name)
		it.check(ok && same(m.Spent, s.Spent) && m.Seen == s.Seen, "stream mark %s after reopen", name)
	}
}
