package jobs

// Tests for the LSM service backend: round-trip recovery, the
// service-level crash-equivalence harness (random lifecycle op
// sequences against an in-memory reference model with a crash injected
// at every storage failpoint), a property test pinning the in-memory
// indexes to the table, and the store's one-key-per-record keyspace.

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"cdas/internal/jobstore"
)

func tenantJob(name, tenant string, priority int) Job {
	j := testJob(name)
	j.Tenant = tenant
	j.Priority = priority
	return j
}

func TestOpenServiceUnknownEngine(t *testing.T) {
	// "wal" named the removed append-only engine; it is unknown now.
	for _, engine := range []string{"btree", "wal"} {
		_, err := OpenService(ServiceConfig{Dir: t.TempDir(), Engine: engine})
		if err == nil || !strings.Contains(err.Error(), "unknown storage engine") {
			t.Fatalf("engine %q: err = %v, want unknown storage engine", engine, err)
		}
	}
}

// TestServiceCloseIdempotent pins the Close contract for both accepted
// engine settings (empty and EngineLSM):
// Close twice is fine, Durable flips to false, reads keep working, and
// every post-Close mutation fails with ErrServiceClosed (after rolling
// back, so memory never acknowledges more than disk).
func TestServiceCloseIdempotent(t *testing.T) {
	for name, engine := range map[string]string{"default": "", "lsm": EngineLSM} {
		t.Run(name, func(t *testing.T) {
			s, err := OpenService(ServiceConfig{Dir: t.TempDir(), Engine: engine})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Submit(testJob("keep")); err != nil {
				t.Fatal(err)
			}
			if !s.Durable() {
				t.Fatal("Durable() = false before Close")
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatalf("second Close: %v", err)
			}
			if s.Durable() {
				t.Fatal("Durable() = true after Close")
			}
			if _, err := s.Submit(testJob("late")); !errors.Is(err, ErrServiceClosed) {
				t.Fatalf("Submit after Close: %v, want ErrServiceClosed", err)
			}
			if err := s.ChargeBudget("keep", 1); !errors.Is(err, ErrServiceClosed) {
				t.Fatalf("ChargeBudget after Close: %v, want ErrServiceClosed", err)
			}
			if err := s.Cancel("keep"); !errors.Is(err, ErrServiceClosed) {
				t.Fatalf("Cancel after Close: %v, want ErrServiceClosed", err)
			}
			// The in-memory view stays readable, and the rolled-back
			// submission is gone from it.
			if _, ok := s.Status("keep"); !ok {
				t.Fatal("Status(keep) lost after Close")
			}
			if _, ok := s.Status("late"); ok {
				t.Fatal("rolled-back post-Close submit still visible")
			}
		})
	}
}

// TestOpenServiceEngineMismatch: booting over a legacy WAL-engine
// store, or over the leftovers of an interrupted migration, must fail
// loudly instead of coming up empty.
func TestOpenServiceEngineMismatch(t *testing.T) {
	walDir := copyFixture(t, "wal-store")
	if _, err := OpenService(ServiceConfig{Dir: walDir, Engine: EngineLSM}); err == nil || !strings.Contains(err.Error(), "cdas-storectl migrate -dir "+walDir) {
		t.Fatalf("lsm over wal store: err = %v, want migration hint", err)
	}

	bothDir := copyFixture(t, "wal-store")
	l, err := jobstore.OpenLSM(jobstore.LSMConfig{Dir: bothDir})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Put(lsmPrimaryKey("partial"), []byte("{}")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if _, err := OpenService(ServiceConfig{Dir: bothDir}); err == nil || !strings.Contains(err.Error(), "interrupted migration") {
		t.Fatalf("boot over both engines' files: err = %v, want interrupted-migration refusal", err)
	}
}

func TestLSMServiceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenService(ServiceConfig{Dir: dir, Engine: EngineLSM, SnapshotEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Durable() {
		t.Fatal("LSM service not durable")
	}
	for i := 0; i < 6; i++ {
		if _, err := s.Submit(tenantJob(fmt.Sprintf("job-%d", i), []string{"", "acme", "globex"}[i%3], i%2)); err != nil {
			t.Fatal(err)
		}
	}
	// job-0 runs to completion; job-1 is left running (crash victim);
	// job-2 is cancelled; budget gets charged.
	for _, want := range []string{"job-0", "job-1"} {
		st, ok := s.Claim()
		if !ok || st.Job.Name != want {
			t.Fatalf("Claim = %v/%v, want %s (FIFO)", st.Job.Name, ok, want)
		}
	}
	if err := s.Complete("job-0", 1.5); err != nil {
		t.Fatal(err)
	}
	if err := s.Cancel("job-2"); err != nil {
		t.Fatal(err)
	}
	if err := s.ChargeBudget("job-0", 1.5); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenService(ServiceConfig{Dir: dir, Engine: EngineLSM})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.Resumed(); len(got) != 1 || got[0] != "job-1" {
		t.Fatalf("Resumed = %v, want [job-1]", got)
	}
	checks := map[string]State{
		"job-0": StateDone, "job-1": StatePending, "job-2": StateCancelled,
		"job-3": StatePending, "job-4": StatePending, "job-5": StatePending,
	}
	for name, want := range checks {
		st, ok := r.Status(name)
		if !ok || st.State != want {
			t.Fatalf("%s = %v/%v, want %s", name, st.State, ok, want)
		}
	}
	st, _ := r.Status("job-0")
	if st.Cost != 1.5 || st.Job.Tenant != "" {
		t.Fatalf("job-0 record = %+v, want cost 1.5", st)
	}
	if b := r.Budget(); b.GlobalSpent != 1.5 || b.Jobs["job-0"] != 1.5 {
		t.Fatalf("budget = %+v, want 1.5 global and for job-0", b)
	}
	// FIFO is preserved across recovery: job-1 (oldest pending seq)
	// claims first.
	if st, ok := r.Claim(); !ok || st.Job.Name != "job-1" {
		t.Fatalf("post-recovery Claim = %v/%v, want job-1", st.Job.Name, ok)
	}
}

// svcOp is one generated service-level operation.
type svcOp struct {
	kind   string
	name   string
	tenant string
	prio   int
	amount float64
}

// genSvcOps builds a deterministic lifecycle op sequence. Invalid ops
// (completing a job that isn't running, etc.) are allowed: they fail
// identically in the real service and the reference model, so
// determinism — not validity — is what matters.
func genSvcOps(seed int64, n int) []svcOp {
	rng := rand.New(rand.NewSource(seed))
	tenants := []string{"", "acme", "globex"}
	var out []svcOp
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("j%d", rng.Intn(8))
		switch r := rng.Intn(100); {
		case r < 25:
			out = append(out, svcOp{kind: "submit", name: name, tenant: tenants[rng.Intn(3)], prio: rng.Intn(3)})
		case r < 45:
			out = append(out, svcOp{kind: "claim"})
		case r < 57:
			out = append(out, svcOp{kind: "complete", name: name, amount: float64(rng.Intn(5))})
		case r < 65:
			out = append(out, svcOp{kind: "fail", name: name})
		case r < 70:
			out = append(out, svcOp{kind: "cancel", name: name})
		case r < 78:
			out = append(out, svcOp{kind: "park", name: name})
		case r < 85:
			out = append(out, svcOp{kind: "unpark", name: name})
		case r < 95:
			out = append(out, svcOp{kind: "charge", name: name, amount: 1 + float64(rng.Intn(3))})
		default:
			out = append(out, svcOp{kind: "progress", name: name, amount: float64(rng.Intn(100)) / 100})
		}
	}
	return out
}

// applySvcOp plays one op; errors are expected for invalid transitions
// and are identical on both sides of the equivalence check.
func applySvcOp(s *Service, op svcOp) {
	switch op.kind {
	case "submit":
		s.Submit(tenantJob(op.name, op.tenant, op.prio))
	case "claim":
		s.Claim()
	case "complete":
		s.Complete(op.name, op.amount)
	case "fail":
		s.Fail(op.name, errors.New("induced failure"), op.amount)
	case "cancel":
		s.Cancel(op.name)
	case "park":
		s.Park(op.name)
	case "unpark":
		s.Unpark(op.name)
	case "charge":
		s.ChargeBudget(op.name, op.amount)
	case "progress":
		s.Progress(op.name, op.amount, op.amount)
	}
}

// normStatus is the comparable projection of a Status: everything the
// API exposes, excluding the unexported bookkeeping (baseCost differs
// legitimately between a restored record and a live one).
type normStatus struct {
	Job      Job
	State    State
	Attempts int
	Progress float64
	Cost     float64
	Error    string
}

// normalize projects a service's state for equivalence comparison,
// folding the requeue-on-recovery rule in: a Running job surviving a
// crash is exactly a Pending job with progress reset.
func normalize(s *Service) map[string]normStatus {
	out := make(map[string]normStatus)
	for _, st := range s.Statuses() {
		n := normStatus{Job: st.Job, State: st.State, Attempts: st.Attempts, Progress: st.Progress, Cost: st.Cost, Error: st.Error}
		if n.State == StateRunning {
			n.State = StatePending
			n.Progress = 0
		}
		out[st.Job.Name] = n
	}
	return out
}

// modelAt replays acked ops on a volatile service and returns its
// normalized state plus budget.
func modelAt(t *testing.T, ops []svcOp) (map[string]normStatus, BudgetState) {
	t.Helper()
	m, err := OpenService(ServiceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		applySvcOp(m, op)
	}
	return normalize(m), m.Budget()
}

// svcCrash is the failpoint hook for the service-level sweep. The
// mutex matters: with online checkpointing the hook is hit from both
// the commit path and the background flush goroutine.
type svcCrash struct {
	mu    sync.Mutex
	n     int
	torn  bool
	hits  int
	fired bool
	point string
}

func (c *svcCrash) fn(point string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.hits++
	if c.hits == c.n {
		c.fired = true
		c.point = point
		if c.torn && (point == jobstore.FailWALWrite || point == jobstore.FailRunWrite) {
			return jobstore.ErrTornWrite
		}
		return jobstore.ErrInjectedCrash
	}
	return nil
}

func (c *svcCrash) totalHits() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits
}

func (c *svcCrash) state() (fired bool, point string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fired, c.point
}

// TestServiceCrashEquivalence is the headline harness: identical
// lifecycle op sequences run against the LSM-backed service and an
// in-memory reference model, with a simulated crash at every fsync and
// rename the storage engine performs. After each crash the store is
// reopened and its recovered state must equal the model either before
// or after the in-flight op — atomic commit semantics, no third
// option. Budget must never double-charge or lose an acked charge.
func TestServiceCrashEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("crash sweep is not short")
	}
	crashedPoints := map[string]bool{}
	for _, seed := range []int64{41, 42} {
		for _, torn := range []bool{false, true} {
			ops := genSvcOps(seed, 30)

			// Dry run: count failpoint hits with a hook that never fires.
			// Quiesce after every op so the background checkpoint flush's
			// hits land in a deterministic position in the global order —
			// the sweep below replays the same schedule.
			counter := &svcCrash{n: -1}
			dry, err := OpenService(ServiceConfig{Dir: t.TempDir(), Engine: EngineLSM, SnapshotEvery: 3, StoreFail: counter.fn})
			if err != nil {
				t.Fatal(err)
			}
			for _, op := range ops {
				applySvcOp(dry, op)
				dry.Quiesce()
			}
			dry.Close()
			if counter.totalHits() == 0 {
				t.Fatalf("seed %d: no failpoint hits", seed)
			}

			for n := 1; n <= counter.totalHits(); n++ {
				dir := t.TempDir()
				crash := &svcCrash{n: n, torn: torn}
				s, err := OpenService(ServiceConfig{Dir: dir, Engine: EngineLSM, SnapshotEvery: 3, StoreFail: crash.fn})
				if err != nil {
					t.Fatalf("seed %d n %d: open: %v", seed, n, err)
				}
				crashedAt := -1
				for i, op := range ops {
					applySvcOp(s, op)
					s.Quiesce()
					if fired, _ := crash.state(); fired {
						crashedAt = i
						break
					}
				}
				s.Close()
				if crashedAt == -1 {
					continue // sequence finished before hit n (scheduling drift)
				}
				_, crashPoint := crash.state()
				crashedPoints[crashPoint] = true

				r, err := OpenService(ServiceConfig{Dir: dir, Engine: EngineLSM})
				if err != nil {
					t.Fatalf("seed %d n %d (%s): recovery failed: %v", seed, n, crashPoint, err)
				}
				got := normalize(r)
				gotBudget := r.Budget()
				r.Close()

				beforeState, beforeBudget := modelAt(t, ops[:crashedAt])
				afterState, afterBudget := modelAt(t, ops[:crashedAt+1])
				stateOK := reflect.DeepEqual(got, beforeState) || reflect.DeepEqual(got, afterState)
				budgetOK := reflect.DeepEqual(gotBudget, beforeBudget) || reflect.DeepEqual(gotBudget, afterBudget)
				if !stateOK || !budgetOK {
					t.Fatalf("seed %d torn=%v crash at hit %d (%s, op %d %+v):\nrecovered %v budget %v\nbefore    %v budget %v\nafter     %v budget %v",
						seed, torn, n, crashPoint, crashedAt, ops[crashedAt],
						got, gotBudget, beforeState, beforeBudget, afterState, afterBudget)
				}
			}
		}
	}
	for _, p := range jobstore.LSMFailpoints {
		if !crashedPoints[p] {
			t.Errorf("failpoint %s never crashed in the service sweep", p)
		}
	}
}

// TestStatusesPageProperty pins the in-memory indexes to the table:
// for random op interleavings, every (state, tenant, page size)
// combination of StatusesPage must equal the brute-force filter of the
// full sorted listing, page by page.
func TestStatusesPageProperty(t *testing.T) {
	for _, seed := range []int64{5, 6, 7} {
		s, err := OpenService(ServiceConfig{})
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range genSvcOps(seed, 120) {
			applySvcOp(s, op)
		}
		all := s.Statuses()
		states := []State{"", StatePending, StateRunning, StateParked, StateDone, StateFailed, StateCancelled}
		tenants := []string{"", "acme", "globex", "missing"}
		for _, state := range states {
			for _, tenant := range tenants {
				var want []string
				for _, st := range all {
					if state != "" && st.State != state {
						continue
					}
					if tenant != "" && st.Job.Tenant != tenant {
						continue
					}
					want = append(want, st.Job.Name)
				}
				for _, limit := range []int{1, 2, 100} {
					var got []string
					after := ""
					for {
						page, more := s.StatusesPage(after, limit, state, tenant)
						if len(page) > limit {
							t.Fatalf("page of %d exceeds limit %d", len(page), limit)
						}
						for _, st := range page {
							got = append(got, st.Job.Name)
						}
						if !more {
							break
						}
						after = page[len(page)-1].Job.Name
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d state %q tenant %q limit %d: paged %v, want %v", seed, state, tenant, limit, got, want)
					}
				}
			}
		}
	}
}

// TestLSMKeyspace drives random lifecycle traffic through the store
// with aggressive checkpointing (so records cross memtable flushes and
// compactions), then inspects the raw store: it holds one j/ record per
// job, equal to what the service served, plus the ledger and marks —
// and no key outside the j/, b and sm/ keyspace.
func TestLSMKeyspace(t *testing.T) {
	for _, seed := range []int64{21, 22} {
		dir := t.TempDir()
		s, err := OpenService(ServiceConfig{Dir: dir, SnapshotEvery: 2})
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range genSvcOps(seed, 150) {
			applySvcOp(s, op)
		}
		if err := s.CommitStreamMark("j0", StreamMark{Window: 0, Seen: 1}); err != nil {
			t.Fatal(err)
		}
		var want []walStatus
		for _, st := range s.Statuses() {
			want = append(want, toWal(st))
		}
		s.Close()
		if len(want) == 0 {
			t.Fatalf("seed %d: no jobs made it to the store", seed)
		}

		l, err := jobstore.OpenLSM(jobstore.LSMConfig{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		var got []walStatus
		var other []string
		err = l.Scan("", "", func(k string, v []byte) bool {
			switch {
			case strings.HasPrefix(k, lsmPrimaryPrefix):
				var ws walStatus
				if err := json.Unmarshal(v, &ws); err != nil {
					t.Fatalf("primary record %q: %v", k, err)
				}
				if k != lsmPrimaryKey(ws.Job.Name) {
					t.Fatalf("record for %q filed under %q", ws.Job.Name, k)
				}
				got = append(got, ws)
			case k == lsmBudgetKey, strings.HasPrefix(k, lsmStreamPrefix):
			default:
				other = append(other, k)
			}
			return true
		})
		l.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(other) > 0 {
			t.Fatalf("seed %d: keys outside the keyspace: %q", seed, other)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: stored records differ from the served ones:\ngot  %+v\nwant %+v", seed, got, want)
		}
	}
}
