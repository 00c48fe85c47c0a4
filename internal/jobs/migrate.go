// One-shot WAL→LSM store migration: read a legacy WAL-engine
// directory through the read-only legacy reader, write an equivalent
// LSM store — job records, the budget ledger and the stream marks,
// committed in atomic batches — verify the new store loads to the same
// state, then retire the WAL files. cdas-storectl is the CLI front end.
package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"sort"

	"cdas/internal/jobstore"
)

// ErrAlreadyMigrated reports a directory that holds only an LSM store:
// there is nothing to convert.
var ErrAlreadyMigrated = errors.New("jobs: store is already on the lsm engine")

// migrateBatchJobs bounds how many job records share one atomic LSM
// batch: far under the store's frame cap while amortizing one fsync
// across many jobs.
const migrateBatchJobs = 192

// walEvent is one legacy WAL-engine record. Lifecycle events ("submit",
// "update") carry the full post-transition record of the job they
// concern; budget and stream events carry the full ledger or mark, so
// replay keeps the last one of each.
type walEvent struct {
	Op     string        `json:"op"` // "submit", "update", "budget" or "stream"
	Status walStatus     `json:"status,omitempty"`
	Budget *BudgetState  `json:"budget,omitempty"`
	Stream *streamRecord `json:"stream,omitempty"`
}

// walSnapshot is a legacy snapshot payload: every job's record plus the
// budget ledger and the stream marks.
type walSnapshot struct {
	Jobs    []walStatus    `json:"jobs"`
	Budget  *BudgetState   `json:"budget,omitempty"`
	Streams []streamRecord `json:"streams,omitempty"`
}

// MigrateResult summarizes a completed conversion.
type MigrateResult struct {
	// Jobs is the number of job records converted.
	Jobs int
	// BudgetMoved reports a non-empty budget ledger was carried over.
	BudgetMoved bool
	// Retired lists the WAL-engine files renamed aside (*.retired);
	// renaming them back is the rollback path.
	Retired []string
	// Resumed reports that a partial earlier migration was discarded
	// and redone from the (still authoritative) WAL store.
	Resumed bool
}

// MigrateStore converts the WAL-engine store in dir to the LSM engine,
// in place. The conversion is safe to re-run: until the final retire
// step the WAL files remain the authority, and a partial LSM store
// from an interrupted run is discarded and rebuilt. Before retiring
// anything the new store is reopened cold and verified record-for-
// record against the WAL replay — the same Statuses() view a booted
// service would serve — plus the budget ledger and the stream marks.
// logf (optional) receives progress lines.
func MigrateStore(dir string, logf func(format string, args ...any)) (MigrateResult, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	var res MigrateResult
	hasWAL, hasLSM := jobstore.DetectEngines(dir)
	switch {
	case !hasWAL && !hasLSM:
		return res, fmt.Errorf("jobs: %s holds no job store", dir)
	case !hasWAL && hasLSM:
		return res, ErrAlreadyMigrated
	case hasWAL && hasLSM:
		// An interrupted migration: the WAL is still authoritative, so
		// the partial LSM store is garbage. Start over.
		logf("discarding partial LSM store from an interrupted migration")
		if err := jobstore.RemoveLSMFiles(dir); err != nil {
			return res, fmt.Errorf("jobs: removing partial LSM store: %w", err)
		}
		res.Resumed = true
	}

	// The Log's flock doubles as the migration lock: an older release's
	// server still running on the store (or a second migrate) holds it
	// and fails this open with ErrLocked.
	log, err := jobstore.Open(dir)
	if err != nil {
		return res, err
	}
	defer log.Close()

	src := &Service{m: NewManager()}
	if err := src.loadLegacy(log); err != nil {
		return res, err
	}
	statuses := src.m.Statuses()
	logf("replayed WAL store: %d jobs", len(statuses))

	if err := writeLSMStore(dir, statuses, src.budget, src.streams); err != nil {
		return res, err
	}
	logf("wrote LSM store: %d jobs in batches of %d", len(statuses), migrateBatchJobs)

	if err := verifyLSMStore(dir, src); err != nil {
		return res, err
	}
	logf("verification passed: LSM view matches WAL replay")

	retired, err := jobstore.RetireLogFiles(dir)
	if err != nil {
		return res, fmt.Errorf("jobs: retiring WAL files: %w", err)
	}
	res.Jobs = len(statuses)
	res.BudgetMoved = src.budget.GlobalSpent > 0 || len(src.budget.Jobs) > 0
	res.Retired = retired
	return res, nil
}

// loadLegacy replays a legacy WAL-engine log into memory — the load
// the WAL engine performed at boot, minus its requeue step: migration
// must copy records verbatim, not reinterpret them.
func (s *Service) loadLegacy(log *jobstore.Log) error {
	if snap, _ := log.Snapshot(); snap != nil {
		var ws walSnapshot
		if err := json.Unmarshal(snap, &ws); err != nil {
			return fmt.Errorf("jobs: decoding snapshot: %w", err)
		}
		for _, st := range ws.Jobs {
			s.m.restore(fromWal(st))
		}
		if ws.Budget != nil {
			s.budget = ws.Budget.clone()
		}
		for _, sr := range ws.Streams {
			s.setStreamMark(sr.Job, sr.Mark)
		}
	}
	for i, rec := range log.Entries() {
		var ev walEvent
		if err := json.Unmarshal(rec, &ev); err != nil {
			return fmt.Errorf("jobs: decoding WAL record %d: %w", i, err)
		}
		switch ev.Op {
		case "budget":
			if ev.Budget != nil {
				s.budget = ev.Budget.clone()
			}
		case "stream":
			if ev.Stream != nil {
				s.setStreamMark(ev.Stream.Job, ev.Stream.Mark)
			}
		default:
			s.m.restore(fromWal(ev.Status))
		}
	}
	return nil
}

// writeLSMStore creates the LSM store and commits every job's record —
// many jobs per atomic batch to bound fsyncs — plus the budget ledger
// and the stream marks, then checkpoints so the result boots from a
// sorted run instead of a WAL tail.
func writeLSMStore(dir string, statuses []Status, budget BudgetState, streams map[string]StreamMark) error {
	lsm, err := jobstore.OpenLSM(jobstore.LSMConfig{Dir: dir})
	if err != nil {
		return err
	}
	defer lsm.Close()
	var batch []jobstore.Op
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		if err := lsm.Apply(batch); err != nil {
			return err
		}
		batch = batch[:0]
		return nil
	}
	for _, st := range statuses {
		ws := toWal(st)
		payload, err := json.Marshal(ws)
		if err != nil {
			return fmt.Errorf("jobs: encoding job record %q: %w", ws.Job.Name, err)
		}
		batch = append(batch, jobstore.Op{Key: lsmPrimaryKey(ws.Job.Name), Value: payload})
		if len(batch) >= migrateBatchJobs {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if budget.GlobalSpent > 0 || len(budget.Jobs) > 0 {
		payload, err := json.Marshal(budget)
		if err != nil {
			return fmt.Errorf("jobs: encoding budget: %w", err)
		}
		batch = append(batch, jobstore.Op{Key: lsmBudgetKey, Value: payload})
	}
	streamNames := make([]string, 0, len(streams))
	for name := range streams {
		streamNames = append(streamNames, name)
	}
	sort.Strings(streamNames)
	for _, name := range streamNames {
		payload, err := json.Marshal(streamRecord{Job: name, Mark: streams[name]})
		if err != nil {
			return fmt.Errorf("jobs: encoding stream mark %q: %w", name, err)
		}
		batch = append(batch, jobstore.Op{Key: lsmStreamKey(name), Value: payload})
	}
	if err := flush(); err != nil {
		return err
	}
	if err := lsm.Checkpoint(); err != nil {
		return err
	}
	return lsm.Close()
}

// verifyLSMStore reopens the converted store cold, loads it exactly as
// a booting service would, and asserts its Statuses() view, budget
// ledger and stream marks are deep-equal to the WAL replay's — the gate
// the old store is retired behind.
func verifyLSMStore(dir string, want *Service) error {
	lsm, err := jobstore.OpenLSM(jobstore.LSMConfig{Dir: dir})
	if err != nil {
		return fmt.Errorf("jobs: verification reopen: %w", err)
	}
	defer lsm.Close()
	got := &Service{m: NewManager(), lsm: lsm}
	if _, err := got.load(); err != nil {
		return fmt.Errorf("jobs: verification: %w", err)
	}
	if g, w := got.m.Statuses(), want.m.Statuses(); !reflect.DeepEqual(g, w) {
		return fmt.Errorf("jobs: verification failed: LSM view (%d jobs) differs from WAL replay (%d jobs)", len(g), len(w))
	}
	if !reflect.DeepEqual(got.budget, want.budget) {
		return fmt.Errorf("jobs: verification failed: budget %+v differs from WAL replay's %+v", got.budget, want.budget)
	}
	if !reflect.DeepEqual(got.streams, want.streams) {
		return fmt.Errorf("jobs: verification failed: stream marks %+v differ from WAL replay's %+v", got.streams, want.streams)
	}
	return nil
}
