package jobs

// On-disk compatibility: stores written by the last release that still
// ran the WAL engine and wrote the xs/, xp/ and xt/ index keys. The
// fixtures under testdata/ were produced by that release's code, and
// the expected values below are what it served from them. Each test
// copies its fixture before opening it, so the committed bytes never
// change.

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// copyFixture copies testdata/<name> into a fresh directory.
func copyFixture(t *testing.T, name string) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), name)
	if err := os.CopyFS(dir, os.DirFS(filepath.Join("testdata", name))); err != nil {
		t.Fatal(err)
	}
	return dir
}

// fixtureJob is the job the fixture writer submitted under name.
func fixtureJob(name string, kind Kind, tenant string, prio int) Job {
	j := Job{
		Name: name,
		Kind: kind,
		Query: Query{
			Keywords:         []string{"iPhone4S"},
			RequiredAccuracy: 0.9,
			Domain:           []string{"Positive", "Neutral", "Negative"},
			Start:            time.Date(2011, 10, 14, 0, 0, 0, 0, time.UTC),
			Window:           24 * time.Hour,
		},
		Tenant:   tenant,
		Priority: prio,
	}
	switch kind {
	case KindContinuous:
		j.Stream = &StreamSpec{Items: 24, Rate: 1, SourceSeed: 5, WindowCapacity: 5, MaxBacklog: 10}
	case KindEnumeration:
		j.Enum = &EnumSpec{ItemValue: 0.05, Universe: 30, SourceSeed: 9}
	}
	return j
}

var (
	fixtureAlpha = fixtureJob("alpha", KindTSA, "acme", 1)
	fixtureBravo = fixtureJob("bravo", KindTSA, "globex", 0)
	fixtureHunt  = fixtureJob("hunt", KindEnumeration, "", -1)
	fixtureFeed  = fixtureJob("feed", KindContinuous, "acme", 2)
	fixtureEcho  = fixtureJob("echo/slash", KindTSA, "", 0)

	fixtureBudget = BudgetState{GlobalSpent: 3.69, Jobs: map[string]float64{"alpha": 2.5, "feed": 0.75, "hunt": 0.44}}

	fixtureMarks = map[string]StreamMark{
		"feed": {Window: 2, Spent: 0.75, Seen: 36, Matched: 30, Dropped: 4, Degraded: 2},
		"hunt": {Window: 1, Spent: 0.44, Seen: 12, Matched: 5, Enum: &EnumProgress{
			Counts:        map[string]int{"lincoln": 4, "washington": 3, "adams": 2, "jefferson": 2, "madison": 1},
			Display:       map[string]string{"lincoln": "Lincoln", "washington": "Washington", "adams": "Adams", "jefferson": "Jefferson", "madison": "Madison"},
			FirstBatch:    map[string]int{"lincoln": 0, "washington": 0, "adams": 0, "jefferson": 1, "madison": 1},
			Contributions: 12,
		}},
	}
)

// checkFixtureState asserts s serves exactly the statuses (in name
// order), budget ledger and marks the writing release served.
func checkFixtureState(t *testing.T, s *Service, want []normStatus) {
	t.Helper()
	var got []normStatus
	for _, st := range s.Statuses() {
		got = append(got, normStatus{Job: st.Job, State: st.State, Attempts: st.Attempts, Progress: st.Progress, Cost: st.Cost, Error: st.Error})
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("statuses:\ngot  %+v\nwant %+v", got, want)
	}
	if b := s.Budget(); !reflect.DeepEqual(b, fixtureBudget) {
		t.Errorf("budget = %+v, want %+v", b, fixtureBudget)
	}
	for name, want := range fixtureMarks {
		if got, ok := s.StreamMarkFor(name); !ok || !reflect.DeepEqual(got, want) {
			t.Errorf("mark %s = %+v (ok %v), want %+v", name, got, ok, want)
		}
	}
}

// TestLegacyWALFixture: a WAL-engine store — a snapshot plus a WAL
// tail, holding a budget ledger, a stream mark, an enumeration mark and
// jobs Running, Parked, Done and Pending — is refused at boot with the
// migrate hint, and after MigrateStore boots to the state the WAL
// engine replayed from it. The two Running jobs resume in FIFO (seq)
// order, not name order.
func TestLegacyWALFixture(t *testing.T) {
	dir := copyFixture(t, "wal-store")
	if _, err := OpenService(ServiceConfig{Dir: dir}); err == nil || !strings.Contains(err.Error(), "cdas-storectl migrate") {
		t.Fatalf("boot over legacy store: err = %v, want migrate hint", err)
	}
	res, err := MigrateStore(dir, t.Logf)
	if err != nil {
		t.Fatalf("MigrateStore: %v", err)
	}
	if res.Jobs != 5 || !res.BudgetMoved || len(res.Retired) != 2 {
		t.Fatalf("MigrateStore = %+v, want 5 jobs, budget moved, 2 files retired", res)
	}
	s, err := OpenService(ServiceConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.Resumed(); !reflect.DeepEqual(got, []string{"hunt", "feed"}) {
		t.Errorf("Resumed = %v, want [hunt feed]", got)
	}
	checkFixtureState(t, s, []normStatus{
		{Job: fixtureAlpha, State: StateDone, Attempts: 1, Progress: 1, Cost: 2.5},
		{Job: fixtureBravo, State: StateParked},
		{Job: fixtureEcho, State: StatePending},
		{Job: fixtureFeed, State: StatePending, Attempts: 1},
		{Job: fixtureHunt, State: StatePending, Attempts: 1, Cost: 0.44},
	})
}

// TestIndexedLSMFixture: an LSM store that still carries the xs/, xp/
// and xt/ index keys, with one job Running, boots under the current
// keyspace, resumes exactly that job and serves the statuses, budget
// and marks the writing release served. The stale state-index entry
// that still lists the job as running must not resume it again.
func TestIndexedLSMFixture(t *testing.T) {
	dir := copyFixture(t, "lsm-indexed-store")
	want := []normStatus{
		{Job: fixtureAlpha, State: StateDone, Attempts: 1, Progress: 1, Cost: 2.5},
		{Job: fixtureBravo, State: StateParked},
		{Job: fixtureEcho, State: StateCancelled},
		{Job: fixtureFeed, State: StateDone, Attempts: 1, Progress: 1, Cost: 0.75},
		{Job: fixtureHunt, State: StatePending, Attempts: 1, Cost: 0.44},
	}
	s, err := OpenService(ServiceConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Resumed(); !reflect.DeepEqual(got, []string{"hunt"}) {
		t.Errorf("Resumed = %v, want [hunt]", got)
	}
	checkFixtureState(t, s, want)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenService(ServiceConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.Resumed(); len(got) != 0 {
		t.Errorf("second boot Resumed = %v, want none", got)
	}
	checkFixtureState(t, r, want)
}
