// Dispatcher worker pool: pulls Pending jobs off the durable Service
// and runs them with per-job context cancellation — the execution half
// of Figure 2's job manager. Workers block on the service's wake
// channel (with a polling fallback) so submissions start promptly
// without busy loops.
package jobs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// Runner executes one claimed job. It must honour ctx — cancellation is
// how DELETE /jobs and shutdown interrupt a run — and may call report
// as work proceeds with the completed fraction in [0, 1] and the cost
// charged so far in this attempt. report is safe for concurrent use.
type Runner func(ctx context.Context, job Job, report func(progress, cost float64)) error

// Dispatcher drains a Service's Pending queue through a fixed worker
// pool. Construct with NewDispatcher, then Start.
type Dispatcher struct {
	svc     *Service
	run     Runner
	workers int
	poll    time.Duration

	ctx  context.Context
	stop context.CancelFunc
	wg   sync.WaitGroup

	mu        sync.Mutex
	cancels   map[string]context.CancelFunc
	requested map[string]bool // cancellation asked for while running
	started   bool
}

// NewDispatcher builds a pool of workers (minimum 1) executing jobs
// with run.
func NewDispatcher(svc *Service, run Runner, workers int) (*Dispatcher, error) {
	if svc == nil {
		return nil, errors.New("jobs: dispatcher needs a service")
	}
	if run == nil {
		return nil, errors.New("jobs: dispatcher needs a runner")
	}
	if workers < 1 {
		workers = 1
	}
	ctx, stop := context.WithCancel(context.Background())
	return &Dispatcher{
		svc:       svc,
		run:       run,
		workers:   workers,
		poll:      50 * time.Millisecond,
		ctx:       ctx,
		stop:      stop,
		cancels:   make(map[string]context.CancelFunc),
		requested: make(map[string]bool),
	}, nil
}

// Start launches the worker pool. It is idempotent.
func (d *Dispatcher) Start() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.started {
		return
	}
	d.started = true
	for i := 0; i < d.workers; i++ {
		d.wg.Add(1)
		go d.worker()
	}
}

// Stop shuts the pool down gracefully and permanently: in-flight jobs
// are interrupted and requeued to Pending, then Stop waits for every
// worker to finish committing. A stopped Dispatcher cannot be
// restarted — the requeued jobs are picked up by a new Dispatcher on
// the same Service, or after a restart's recovery. Safe to call more
// than once.
func (d *Dispatcher) Stop() {
	d.stop()
	d.wg.Wait()
}

// Cancel stops a job: Pending jobs move straight to Cancelled; Running
// jobs have their context cancelled and are committed as Cancelled once
// the runner unwinds. Unknown names return ErrUnknownJob; jobs already
// in a terminal state return ErrBadTransition.
func (d *Dispatcher) Cancel(name string) error {
	// The whole decision runs under d.mu, mirroring execute's
	// register-then-check: either we see the run's cancel func here, or
	// our service-level Cancel commits before the worker's registration
	// check — which then observes the Cancelled state and never starts
	// the runner. No window lets a cancelled job keep executing.
	d.mu.Lock()
	defer d.mu.Unlock()
	if cancel, running := d.cancels[name]; running {
		// Commit the Cancelled state to the log BEFORE acknowledging
		// and unwinding the runner: a crash right after this call must
		// replay as cancelled, never resurrect the job.
		if err := d.svc.Cancel(name); err != nil {
			return err
		}
		d.requested[name] = true
		cancel()
		return nil
	}
	return d.svc.Cancel(name)
}

// Submit registers a job with the service (the pool wakes on its own).
func (d *Dispatcher) Submit(job Job) (Plan, error) { return d.svc.Submit(job) }

// Unpark resumes a budget-parked job: Parked → Pending, after which the
// pool claims it like any other pending job.
func (d *Dispatcher) Unpark(name string) error { return d.svc.Unpark(name) }

// Status returns a job's lifecycle record.
func (d *Dispatcher) Status(name string) (Status, bool) { return d.svc.Status(name) }

// StreamMarkFor exposes a continuous job's committed stream position,
// so API consumers can report a recovered stream's windows and spend
// before (or without) any in-process window publish.
func (d *Dispatcher) StreamMarkFor(name string) (StreamMark, bool) { return d.svc.StreamMarkFor(name) }

// Statuses lists every job's lifecycle record, sorted by name. It is
// assembled by paging StatusesPage — each service call stays O(page),
// and the commit lock is released between pages — so callers that can
// consume pages directly should; this is the convenience form.
func (d *Dispatcher) Statuses() []Status {
	var out []Status
	after := ""
	for {
		page, more := d.svc.StatusesPage(after, statusesPageSize, "", "")
		out = append(out, page...)
		if !more {
			return out
		}
		after = page[len(page)-1].Job.Name
	}
}

// statusesPageSize is the chunk Dispatcher.Statuses pages with.
const statusesPageSize = 500

// StatusesPage lists up to limit records in name order after the given
// name, optionally filtered by state and/or tenant — an index
// range-read over the service's status table.
func (d *Dispatcher) StatusesPage(after string, limit int, state State, tenant string) ([]Status, bool) {
	return d.svc.StatusesPage(after, limit, state, tenant)
}

func (d *Dispatcher) worker() {
	defer d.wg.Done()
	ticker := time.NewTicker(d.poll)
	defer ticker.Stop()
	for {
		if d.ctx.Err() != nil {
			return
		}
		st, ok := d.svc.Claim()
		if !ok {
			select {
			case <-d.ctx.Done():
				return
			case <-d.svc.Wake():
			case <-ticker.C:
			}
			continue
		}
		d.execute(st)
	}
}

// execute runs one claimed job and commits its outcome.
func (d *Dispatcher) execute(st Status) {
	name := st.Job.Name
	jctx, cancel := context.WithCancel(d.ctx)
	defer cancel()
	d.mu.Lock()
	// A Cancel may have slipped in between our Claim and this
	// registration; it found nothing in d.cancels and committed the
	// cancellation at the service. Checking the state under the same
	// lock closes the race — one of the two sides must lose.
	if cur, ok := d.svc.Status(name); !ok || cur.State != StateRunning {
		d.mu.Unlock()
		return
	}
	if d.ctx.Err() != nil {
		// Stop slipped in between the worker's shutdown check and its
		// Claim: hand the job straight back — with the attempt refunded,
		// since the runner never started — instead of launching it under
		// an already-dead context. The error is ignored on purpose: a
		// concurrent Cancel may have beaten us to a terminal state,
		// which then stands.
		d.mu.Unlock()
		_ = d.svc.VoidClaim(name)
		return
	}
	d.cancels[name] = cancel
	d.mu.Unlock()

	var costMu sync.Mutex
	var lastCost float64
	err := d.run(jctx, st.Job, func(progress, cost float64) {
		costMu.Lock()
		lastCost = cost
		costMu.Unlock()
		// A progress report races benignly with terminal commits; the
		// state machine rejects it then, which is fine.
		d.svc.Progress(name, progress, cost)
	})

	d.mu.Lock()
	delete(d.cancels, name)
	wasRequested := d.requested[name]
	delete(d.requested, name)
	d.mu.Unlock()
	costMu.Lock()
	cost := lastCost
	costMu.Unlock()

	switch {
	case wasRequested:
		// Cancel already committed the Cancelled state before cancelling
		// our context; whatever the runner returned, the acknowledged
		// cancellation stands.
	case err == nil:
		// The run finished: completed work is reported as Done. Commit
		// failure here means the job went terminal some other way (or
		// the log is down, in which case the state reverts to Running
		// and a restart will requeue it); nothing more to do.
		d.svc.Complete(name, cost)
	case errors.Is(err, ErrParked):
		// Budget admission refused the run: park the job — resumable
		// via Unpark, no retry burned, not a failure. A commit error
		// means a concurrent terminal transition won; it stands.
		_ = d.svc.Park(name)
	case d.ctx.Err() != nil && errors.Is(err, context.Canceled):
		// Shutdown, not user cancellation: hand the job back for the
		// next incarnation.
		d.svc.Requeue(name)
	default:
		d.svc.Fail(name, fmt.Errorf("run: %w", err), cost)
	}
}
