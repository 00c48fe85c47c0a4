// Durable job service: a Manager whose every lifecycle change is
// committed to the jobstore LSM before it is acknowledged, so a killed
// server recovers its records on restart, requeues the jobs it was
// running and never re-runs a finished one.
package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"

	"cdas/internal/jobstore"
	"cdas/internal/metrics"
)

// EngineLSM names the only storage engine: an LSM tree holding each
// job's current record, booted from the newest checkpoint plus its WAL
// tail, with checkpoints flushed off the commit path. It is the one
// value ServiceConfig.Engine accepts besides empty.
const EngineLSM = "lsm"

// ErrServiceClosed is returned by every mutation after Close.
var ErrServiceClosed = errors.New("jobs: service is closed")

// ServiceConfig tunes OpenService. The zero value is a volatile
// (memory-only) service with default retry and checkpoint settings.
type ServiceConfig struct {
	// Dir roots the store's files. Empty disables persistence: the
	// service still runs the full lifecycle, in memory only.
	Dir string
	// Engine names the storage engine: empty or EngineLSM, the only
	// one. OpenService refuses a directory holding a legacy WAL-engine
	// store — convert it with cdas-storectl migrate first.
	Engine string
	// MaxAttempts bounds the retry loop (default DefaultMaxAttempts).
	MaxAttempts int
	// SnapshotEvery cuts a store checkpoint after this many committed
	// events (default 256; negative disables checkpoints).
	SnapshotEvery int
	// Counters, when set, receives lifecycle and store counters.
	Counters *metrics.Registry
	// StoreFail injects storage failpoints — the crash-equivalence
	// tests' hook. Leave nil in production.
	StoreFail jobstore.FailFunc
	// Logf, when set, receives operational log lines (checkpoint
	// failures and the like). Nil discards them.
	Logf func(format string, args ...any)
}

// Service is the durable job lifecycle service. It is safe for
// concurrent use.
type Service struct {
	cfg ServiceConfig
	m   *Manager

	// mu serialises state mutation with store commits so the store's
	// commit order always matches the order the state machine applied
	// them in.
	mu      sync.Mutex
	lsm     *jobstore.LSM // nil for a volatile service
	events  int           // committed events since the last checkpoint
	closed  bool
	wake    chan struct{}
	resumed []string
	budget  BudgetState
	streams map[string]StreamMark
}

// LSM keyspace. Every commit writes exactly one key:
//
//	j/<name>   → walStatus JSON (the job's current record)
//	b          → BudgetState JSON (the ledger)
//	sm/<name>  → streamRecord JSON (a continuous or enumeration job's
//	             mark, committed at each window or batch close)
//
// Stores written before this layout also hold xs/, xp/ and xt/ index
// keys; nothing reads them, so they are left in place.
const (
	lsmPrimaryPrefix = "j/"
	lsmBudgetKey     = "b"
	lsmStreamPrefix  = "sm/"
)

func lsmPrimaryKey(name string) string { return lsmPrimaryPrefix + name }

func lsmStreamKey(name string) string { return lsmStreamPrefix + name }

// prefixEnd is the smallest key greater than every key with the given
// prefix — the exclusive upper bound for a prefix range-read.
func prefixEnd(prefix string) string {
	return prefix[:len(prefix)-1] + string(prefix[len(prefix)-1]+1)
}

// BudgetState is the durable crowd-budget ledger the scheduler's
// accounting is persisted through: global spend plus per-job spend,
// committed to the store so a restarted server keeps charging from
// where the dead one stopped rather than re-granting spent money.
type BudgetState struct {
	// GlobalSpent is the total crowd spend across every job.
	GlobalSpent float64 `json:"global_spent"`
	// Jobs maps job name to its spend so far.
	Jobs map[string]float64 `json:"jobs,omitempty"`
}

// clone deep-copies the state so callers never alias the live map.
func (b BudgetState) clone() BudgetState {
	out := BudgetState{GlobalSpent: b.GlobalSpent}
	if len(b.Jobs) > 0 {
		out.Jobs = make(map[string]float64, len(b.Jobs))
		for k, v := range b.Jobs {
			out.Jobs[k] = v
		}
	}
	return out
}

// StreamMark is a continuous job's durable stream position: the highest
// event-time window already closed plus the cumulative accounting up to
// and including it. It is committed like any other transition (same
// store path, fsync on commit), so a kill -9 resumes the stream at
// the next window without re-charging the closed ones.
type StreamMark struct {
	// Window is the highest closed window index; -1 before any close.
	Window int `json:"window"`
	// Spent is the crowd spend across closed windows.
	Spent float64 `json:"spent"`
	// Seen / Matched / Dropped / Degraded are cumulative item counts
	// over the closed windows (degrade-ladder accounting included).
	Seen     int64 `json:"seen"`
	Matched  int64 `json:"matched"`
	Dropped  int64 `json:"dropped"`
	Degraded int64 `json:"degraded"`
	// Enum is an enumeration job's durable result set; nil for
	// continuous jobs, so their mark records are wire-unchanged.
	Enum *EnumProgress `json:"enum,omitempty"`
}

// EnumProgress is an enumeration job's durable result-set snapshot,
// committed inside its StreamMark: everything needed to rebuild the
// dedup set, the frequency-of-frequencies and the stop state after a
// kill -9, without replaying any crowd work. For an enumeration job
// the surrounding mark is reinterpreted: Window is the last completed
// HIT batch index, Seen the cumulative contributions, Matched the
// distinct items discovered.
type EnumProgress struct {
	// Counts maps canonical item key -> times contributed.
	Counts map[string]int `json:"counts,omitempty"`
	// Display maps canonical item key -> normalised display text.
	Display map[string]string `json:"display,omitempty"`
	// FirstBatch maps canonical item key -> batch that discovered it.
	FirstBatch map[string]int `json:"first_batch,omitempty"`
	// Contributions is the total contribution count (with repeats).
	Contributions int64 `json:"contributions,omitempty"`
	// Stopped records why the job stopped buying batches, empty while
	// it is still collecting ("marginal_value", "target_coverage",
	// "max_batches" or "source_exhausted").
	Stopped string `json:"stopped,omitempty"`
}

// clone deep-copies the mark so callers never alias the stored maps.
func (m StreamMark) clone() StreamMark {
	if m.Enum == nil {
		return m
	}
	e := &EnumProgress{Contributions: m.Enum.Contributions, Stopped: m.Enum.Stopped}
	if len(m.Enum.Counts) > 0 {
		e.Counts = make(map[string]int, len(m.Enum.Counts))
		for k, v := range m.Enum.Counts {
			e.Counts[k] = v
		}
	}
	if len(m.Enum.Display) > 0 {
		e.Display = make(map[string]string, len(m.Enum.Display))
		for k, v := range m.Enum.Display {
			e.Display[k] = v
		}
	}
	if len(m.Enum.FirstBatch) > 0 {
		e.FirstBatch = make(map[string]int, len(m.Enum.FirstBatch))
		for k, v := range m.Enum.FirstBatch {
			e.FirstBatch[k] = v
		}
	}
	m.Enum = e
	return m
}

// streamRecord pairs a job name with its mark: the sm/<name> value.
type streamRecord struct {
	Job  string     `json:"job"`
	Mark StreamMark `json:"mark"`
}

// walStatus is a job lifecycle record as stored under j/<name> (and,
// inside events, in legacy WAL-engine files). It mirrors Status plus
// the FIFO sequence.
type walStatus struct {
	Job      Job     `json:"job"`
	State    State   `json:"state"`
	Attempts int     `json:"attempts"`
	Progress float64 `json:"progress"`
	Cost     float64 `json:"cost"`
	Error    string  `json:"error,omitempty"`
	Seq      uint64  `json:"seq"`
}

func toWal(st Status) walStatus {
	return walStatus{
		Job:      st.Job,
		State:    st.State,
		Attempts: st.Attempts,
		Progress: st.Progress,
		Cost:     st.Cost,
		Error:    st.Error,
		Seq:      st.seq,
	}
}

func fromWal(ws walStatus) Status {
	return Status{
		Job:      ws.Job,
		State:    ws.State,
		Attempts: ws.Attempts,
		Progress: ws.Progress,
		Cost:     ws.Cost,
		Error:    ws.Error,
		seq:      ws.Seq,
	}
}

// OpenService opens (or creates) the durable service: it boots the
// store under cfg.Dir from its newest checkpoint plus WAL tail,
// restores every record, then requeues every job the previous process
// left Running — those are exactly the jobs a crash or shutdown
// interrupted mid-flight.
func OpenService(cfg ServiceConfig) (*Service, error) {
	if cfg.Engine != "" && cfg.Engine != EngineLSM {
		return nil, fmt.Errorf("jobs: unknown storage engine %q", cfg.Engine)
	}
	if cfg.MaxAttempts == 0 {
		cfg.MaxAttempts = DefaultMaxAttempts
	}
	if cfg.SnapshotEvery == 0 {
		cfg.SnapshotEvery = 256
	}
	s := &Service{
		cfg:  cfg,
		m:    NewManager(),
		wake: make(chan struct{}, 1),
	}
	s.m.SetMaxAttempts(cfg.MaxAttempts)
	if cfg.Dir == "" {
		return s, nil
	}
	// Refuse to boot over a legacy WAL-engine store: the file sets are
	// disjoint, so the LSM would come up empty and look exactly like
	// data loss.
	switch hasWAL, hasLSM := jobstore.DetectEngines(cfg.Dir); {
	case hasWAL && hasLSM:
		return nil, fmt.Errorf("jobs: %s holds both WAL- and LSM-engine files — an interrupted migration; re-run cdas-storectl migrate -dir %s", cfg.Dir, cfg.Dir)
	case hasWAL:
		return nil, fmt.Errorf("jobs: %s holds a legacy WAL-engine store; run cdas-storectl migrate -dir %s first", cfg.Dir, cfg.Dir)
	}
	lsm, err := jobstore.OpenLSM(jobstore.LSMConfig{
		Dir:  cfg.Dir,
		Fail: cfg.StoreFail,
		// Checkpoints cut off the commit path: commit only freezes the
		// memtable and rotates the WAL segment; the flush runs in the
		// background and reports through onCheckpoint.
		OnlineCheckpoint: true,
		OnCheckpoint:     s.onCheckpoint,
	})
	if err != nil {
		return nil, err
	}
	s.lsm = lsm
	running, err := s.load()
	if err == nil {
		err = s.requeueAll(running)
	}
	if err != nil {
		lsm.Close()
		return nil, err
	}
	return s, nil
}

// load restores the budget ledger, the stream marks and every job
// record from the store into memory, and returns the records left
// Running, oldest (lowest seq) first. Migration verifies a converted
// store through it, so the check sees exactly what a boot would.
func (s *Service) load() ([]walStatus, error) {
	if raw, ok, err := s.lsm.Get(lsmBudgetKey); err != nil {
		return nil, err
	} else if ok {
		if err := json.Unmarshal(raw, &s.budget); err != nil {
			return nil, fmt.Errorf("jobs: decoding budget record: %w", err)
		}
	}
	err := scanRecords(s.lsm, lsmStreamPrefix, func(val []byte) error {
		var sr streamRecord
		if err := json.Unmarshal(val, &sr); err != nil {
			return err
		}
		s.setStreamMark(sr.Job, sr.Mark)
		return nil
	})
	if err != nil {
		return nil, err
	}
	var running []walStatus
	err = scanRecords(s.lsm, lsmPrimaryPrefix, func(val []byte) error {
		var ws walStatus
		if err := json.Unmarshal(val, &ws); err != nil {
			return err
		}
		s.m.restore(fromWal(ws))
		if ws.State == StateRunning {
			running = append(running, ws)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(running, func(i, j int) bool { return running[i].Seq < running[j].Seq })
	return running, nil
}

// requeueAll commits the return of jobs a dead process left Running to
// Pending, in the given order, so a dispatcher can pick them up again.
func (s *Service) requeueAll(running []walStatus) error {
	for _, ws := range running {
		re, err := s.m.Requeue(ws.Job.Name)
		if err != nil {
			return err
		}
		if err := s.append(re); err != nil {
			return err
		}
		s.resumed = append(s.resumed, ws.Job.Name)
		s.cfg.Counters.Inc(metrics.CounterJobsResumed)
	}
	return nil
}

// scanRecords calls fn with the value of every key under prefix and
// stops at the first error fn returns, reported with its key.
func scanRecords(lsm *jobstore.LSM, prefix string, fn func(val []byte) error) error {
	var fnErr error
	err := lsm.Scan(prefix, prefixEnd(prefix), func(key string, val []byte) bool {
		if err := fn(val); err != nil {
			fnErr = fmt.Errorf("jobs: decoding record %q: %w", key, err)
			return false
		}
		return true
	})
	if err != nil {
		return err
	}
	return fnErr
}

// Resumed lists the jobs OpenService moved from Running back to
// Pending — the unfinished work recovered from the store, in FIFO
// (seq) order.
func (s *Service) Resumed() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.resumed...)
}

// Wake returns a channel that receives a token whenever new Pending
// work may exist; dispatcher workers select on it instead of busy
// polling.
func (s *Service) Wake() <-chan struct{} { return s.wake }

func (s *Service) notify() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// append commits a job's post-transition record. Callers hold s.mu.
func (s *Service) append(st Status) error {
	return s.commit(lsmPrimaryKey(st.Job.Name), toWal(st))
}

// commit writes one record under key (a no-op when the service is
// volatile) and cuts a checkpoint when the policy says so — the single
// choke point for job records, the ledger and stream marks alike, so
// every kind counts toward and triggers checkpoints. Callers hold s.mu.
func (s *Service) commit(key string, record any) error {
	if s.closed {
		return ErrServiceClosed
	}
	if s.lsm == nil {
		return nil
	}
	payload, err := json.Marshal(record)
	if err != nil {
		return fmt.Errorf("jobs: encoding %q: %w", key, err)
	}
	if err := s.lsm.Put(key, payload); err != nil {
		return err
	}
	s.cfg.Counters.Inc(metrics.CounterWALAppends)
	s.events++
	if s.cfg.SnapshotEvery > 0 && s.events >= s.cfg.SnapshotEvery {
		// Best-effort housekeeping: the record above is already durable.
		// The cut is asynchronous — only the freeze and WAL-segment
		// rotation happen here; the flush's outcome arrives through
		// onCheckpoint. The event counter resets only when a checkpoint
		// actually covers the events, so a failure here retries on the
		// very next commit instead of waiting out another SnapshotEvery
		// window.
		if _, err := s.lsm.CheckpointAsync(); err != nil {
			s.noteCheckpointFailureLocked(err)
		} else {
			s.events = 0
		}
	}
	return nil
}

// onCheckpoint receives every checkpoint flush's outcome from the LSM
// engine (called on the flush goroutine, no store locks held).
func (s *Service) onCheckpoint(err error) {
	if err == nil {
		s.cfg.Counters.Inc(metrics.CounterWALSnapshots)
		return
	}
	s.mu.Lock()
	s.noteCheckpointFailureLocked(err)
	s.mu.Unlock()
}

// noteCheckpointFailureLocked surfaces a failed checkpoint: counted,
// logged, and the event counter re-armed so the next commit retries
// immediately. Callers hold s.mu.
func (s *Service) noteCheckpointFailureLocked(err error) {
	s.events = s.cfg.SnapshotEvery
	s.cfg.Counters.Inc(metrics.CounterCheckpointFailures)
	s.logf("jobs: store checkpoint failed (will retry on next commit): %v", err)
}

func (s *Service) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Submit registers the job (state Pending), commits it, and wakes the
// dispatcher pool. On a store failure the registration is rolled back so
// memory never acknowledges more than disk.
func (s *Service) Submit(job Job) (Plan, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	plan, err := s.m.Register(job)
	if err != nil {
		return Plan{}, err
	}
	st, _ := s.m.Status(job.Name)
	if err := s.append(st); err != nil {
		s.m.Unregister(job.Name)
		return Plan{}, err
	}
	s.cfg.Counters.Inc(metrics.CounterJobsSubmitted)
	s.notify()
	return plan, nil
}

// Claim moves the oldest Pending job to Running and commits the
// transition. ok is false when nothing is pending.
func (s *Service) Claim() (Status, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.m.Claim()
	if !ok {
		return Status{}, false
	}
	if err := s.append(st); err != nil {
		// Disk refused the claim: revert it entirely (state and attempt
		// count) so no work runs unlogged and transient storage errors
		// don't eat the retry budget.
		s.m.unclaim(st.Job.Name)
		return Status{}, false
	}
	s.cfg.Counters.Inc(metrics.CounterJobsStarted)
	return st, true
}

// commitUpdate appends a post-transition record. If the log refuses
// the commit, the in-memory record is reverted to prev, preserving the
// invariant that memory never acknowledges more than disk.
func (s *Service) commitUpdate(prev, st Status) error {
	if err := s.append(st); err != nil {
		s.m.revert(prev)
		return err
	}
	return nil
}

// Complete commits a Running job's successful finish with the final
// cost of the finishing attempt.
func (s *Service) Complete(name string, cost float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	prev, _ := s.m.Status(name)
	st, err := s.m.Complete(name, cost)
	if err != nil {
		return err
	}
	if err := s.commitUpdate(prev, st); err != nil {
		return err
	}
	s.cfg.Counters.Inc(metrics.CounterJobsCompleted)
	return nil
}

// Fail commits a Running job's failure: requeued (retry) while
// attempts remain and the cause is not permanent, terminal Failed
// otherwise.
func (s *Service) Fail(name string, cause error, cost float64) (requeued bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	prev, _ := s.m.Status(name)
	st, requeued, err := s.m.Fail(name, cause, cost)
	if err != nil {
		return false, err
	}
	if err := s.commitUpdate(prev, st); err != nil {
		return false, err
	}
	if requeued {
		s.cfg.Counters.Inc(metrics.CounterJobsRetried)
		s.notify()
	} else {
		s.cfg.Counters.Inc(metrics.CounterJobsFailed)
	}
	return requeued, nil
}

// Cancel commits a Pending or Running job's cancellation. Cancelling a
// Running job here only records the state — interrupting the actual
// run is the dispatcher's half (per-job context cancellation).
func (s *Service) Cancel(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	prev, _ := s.m.Status(name)
	st, err := s.m.Cancel(name)
	if err != nil {
		return err
	}
	if err := s.commitUpdate(prev, st); err != nil {
		return err
	}
	s.cfg.Counters.Inc(metrics.CounterJobsCancelled)
	return nil
}

// Park commits a Running job's move to Parked: budget admission refused
// the run. The job leaves the claim queue but stays resumable.
func (s *Service) Park(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	prev, _ := s.m.Status(name)
	st, err := s.m.Park(name)
	if err != nil {
		return err
	}
	if err := s.commitUpdate(prev, st); err != nil {
		return err
	}
	s.cfg.Counters.Inc(metrics.CounterJobsParked)
	return nil
}

// Unpark commits a Parked job's return to Pending and wakes the pool —
// the resume path once budget frees up or the operator raises it.
func (s *Service) Unpark(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	prev, _ := s.m.Status(name)
	st, err := s.m.Unpark(name)
	if err != nil {
		return err
	}
	if err := s.commitUpdate(prev, st); err != nil {
		return err
	}
	s.cfg.Counters.Inc(metrics.CounterJobsUnparked)
	s.notify()
	return nil
}

// ChargeBudget commits a crowd-spend charge against the job and the
// global ledger — the scheduler's persistence hook, so budget state
// survives a restart. Charges are facts about money already spent;
// they are recorded even for jobs the service has never seen.
func (s *Service) ChargeBudget(name string, amount float64) error {
	if amount <= 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	prev := s.budget.clone()
	s.budget.GlobalSpent += amount
	if s.budget.Jobs == nil {
		s.budget.Jobs = make(map[string]float64)
	}
	s.budget.Jobs[name] += amount
	b := s.budget.clone()
	if err := s.commit(lsmBudgetKey, b); err != nil {
		s.budget = prev
		return err
	}
	s.cfg.Counters.Inc(metrics.CounterBudgetCharges)
	return nil
}

// Budget returns a copy of the durable budget ledger.
func (s *Service) Budget() BudgetState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.budget.clone()
}

// setStreamMark records a mark in memory. Callers hold s.mu (or are in
// single-threaded boot).
func (s *Service) setStreamMark(name string, mark StreamMark) {
	if s.streams == nil {
		s.streams = make(map[string]StreamMark)
	}
	s.streams[name] = mark
}

// CommitStreamMark durably advances a continuous job's stream position:
// the mark is fsynced through the same store path as lifecycle
// transitions before it is acknowledged, so a crash after a window
// close replays the close — the restarted runner skips every window at
// or below mark.Window and never re-charges it. Marks must advance;
// committing a mark whose window regresses below the recorded one is
// rejected (a runner bug, not a storage race).
func (s *Service) CommitStreamMark(name string, mark StreamMark) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	prev, had := s.streams[name]
	if had && mark.Window < prev.Window {
		return fmt.Errorf("jobs: stream mark for %q regresses window %d below committed %d", name, mark.Window, prev.Window)
	}
	mark = mark.clone()
	s.setStreamMark(name, mark)
	if err := s.commit(lsmStreamKey(name), streamRecord{Job: name, Mark: mark}); err != nil {
		if had {
			s.streams[name] = prev
		} else {
			delete(s.streams, name)
		}
		return err
	}
	return nil
}

// StreamMarkFor returns a continuous job's committed stream position.
// ok is false when no window has ever been committed for the job.
func (s *Service) StreamMarkFor(name string) (StreamMark, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	mark, ok := s.streams[name]
	return mark.clone(), ok
}

// VoidClaim commits the reversal of a claim whose runner never started
// (shutdown won the claim race): the job returns to Pending with the
// claim's attempt increment refunded.
func (s *Service) VoidClaim(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	prev, _ := s.m.Status(name)
	st, err := s.m.voidClaim(name)
	if err != nil {
		return err
	}
	if err := s.commitUpdate(prev, st); err != nil {
		return err
	}
	s.notify()
	return nil
}

// Requeue commits a Running job's return to Pending (graceful shutdown
// of its worker) and wakes the pool.
func (s *Service) Requeue(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	prev, _ := s.m.Status(name)
	st, err := s.m.Requeue(name)
	if err != nil {
		return err
	}
	if err := s.commitUpdate(prev, st); err != nil {
		return err
	}
	s.notify()
	return nil
}

// Progress commits a Running job's progress fraction and the cost
// charged so far in the current attempt.
func (s *Service) Progress(name string, progress, cost float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	prev, _ := s.m.Status(name)
	st, err := s.m.SetProgress(name, progress, cost)
	if err != nil {
		return err
	}
	return s.commitUpdate(prev, st)
}

// Status returns a job's lifecycle record. It takes the commit lock,
// so a transition is never observable before its store commit succeeded
// (or was rolled back) — reads see only acknowledged state.
func (s *Service) Status(name string) (Status, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m.Status(name)
}

// Statuses lists every job's lifecycle record, sorted by name, under
// the same acknowledged-state guarantee as Status.
func (s *Service) Statuses() []Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m.Statuses()
}

// StatusesPage lists up to limit lifecycle records in name order,
// strictly after the given name, optionally filtered by state and/or
// tenant — an index range-read, not a sort of the whole table. It
// takes the commit lock, so pages see only acknowledged state.
func (s *Service) StatusesPage(after string, limit int, state State, tenant string) ([]Status, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m.StatusesPage(after, limit, state, tenant)
}

// MaxAttempts reports the retry bound.
func (s *Service) MaxAttempts() int { return s.m.MaxAttempts() }

// Quiesce blocks until no store checkpoint is in flight — a graceful
// shutdown (and the crash harness) uses it to reach a settled store.
func (s *Service) Quiesce() {
	if s.lsm != nil {
		s.lsm.Quiesce()
	}
}

// Close releases every configured store. The in-memory view stays
// readable; mutations after Close fail with ErrServiceClosed. Close is
// idempotent.
func (s *Service) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	// Drop the lock before closing: the LSM drains in-flight checkpoint
	// flushes, whose completion callback (onCheckpoint) takes s.mu.
	s.mu.Unlock()
	if s.lsm == nil {
		return nil
	}
	return s.lsm.Close()
}

// Durable reports whether the service is backed by an open store.
func (s *Service) Durable() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.closed && s.lsm != nil
}
