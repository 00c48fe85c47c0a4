package jobs

// Migration tests: WAL→LSM conversion of a store the WAL engine wrote
// round-trips the full service state (job records, budget ledger,
// stream marks), is resumable after an interruption, refuses bad
// inputs, and leaves a working rollback path.

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cdas/internal/jobstore"
)

// seedWALStore copies the legacy WAL-store fixture into a fresh
// directory and returns it with its normalized view and budget as the
// WAL engine replayed them (the migration's ground truth; see
// compat_test.go).
func seedWALStore(t *testing.T) (string, map[string]normStatus, BudgetState) {
	t.Helper()
	want := map[string]normStatus{}
	for _, n := range []normStatus{
		{Job: fixtureAlpha, State: StateDone, Attempts: 1, Progress: 1, Cost: 2.5},
		{Job: fixtureBravo, State: StateParked},
		{Job: fixtureEcho, State: StatePending},
		{Job: fixtureFeed, State: StatePending, Attempts: 1},
		{Job: fixtureHunt, State: StatePending, Attempts: 1, Cost: 0.44},
	} {
		want[n.Job.Name] = n
	}
	return copyFixture(t, "wal-store"), want, fixtureBudget
}

func TestMigrateStoreRoundTrip(t *testing.T) {
	dir, want, wantBudget := seedWALStore(t)

	res, err := MigrateStore(dir, t.Logf)
	if err != nil {
		t.Fatalf("MigrateStore: %v", err)
	}
	if res.Jobs != len(want) {
		t.Fatalf("migrated %d jobs, want %d", res.Jobs, len(want))
	}
	if len(res.Retired) == 0 {
		t.Fatal("no WAL files retired")
	}

	// The migrated store must boot and serve the exact state the WAL
	// engine held.
	r, err := OpenService(ServiceConfig{Dir: dir})
	if err != nil {
		t.Fatalf("boot after migration: %v", err)
	}
	got := normalize(r)
	gotBudget := r.Budget()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("migrated state differs:\ngot  %v\nwant %v", got, want)
	}
	if !reflect.DeepEqual(gotBudget, wantBudget) {
		t.Fatalf("migrated budget = %+v, want %+v", gotBudget, wantBudget)
	}
	// And it must keep working as a live store.
	if _, err := r.Submit(testJob("post-migration")); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2, err := OpenService(ServiceConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if _, ok := r2.Status("post-migration"); !ok {
		t.Fatal("write to migrated store lost across reopen")
	}
}

func TestMigrateStoreResumable(t *testing.T) {
	dir, want, _ := seedWALStore(t)

	// Fake an interrupted migration: a partial LSM store holding a
	// record the real conversion would never write.
	l, err := jobstore.OpenLSM(jobstore.LSMConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Put(lsmPrimaryKey("ghost-from-partial-run"), []byte("{")); err != nil {
		t.Fatal(err)
	}
	l.Close()

	// The service must refuse to boot the ambiguous directory...
	if _, err := OpenService(ServiceConfig{Dir: dir}); err == nil || !strings.Contains(err.Error(), "interrupted migration") {
		t.Fatalf("boot over partial migration: err = %v, want interrupted-migration refusal", err)
	}
	// ...and a re-run must discard the partial store and finish.
	res, err := MigrateStore(dir, nil)
	if err != nil {
		t.Fatalf("resumed MigrateStore: %v", err)
	}
	if !res.Resumed {
		t.Fatal("Resumed = false, want true")
	}
	r, err := OpenService(ServiceConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if !reflect.DeepEqual(normalize(r), want) {
		t.Fatal("resumed migration state differs from WAL ground truth")
	}
	if _, ok := r.Status("ghost-from-partial-run"); ok {
		t.Fatal("partial-run record survived the resume")
	}
}

func TestMigrateStoreEdgeCases(t *testing.T) {
	// Empty directory: nothing to migrate.
	if _, err := MigrateStore(t.TempDir(), nil); err == nil {
		t.Fatal("migrating an empty dir succeeded")
	}

	// Already migrated: distinct sentinel, so CLIs can treat a re-run
	// as success.
	dir, _, _ := seedWALStore(t)
	if _, err := MigrateStore(dir, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := MigrateStore(dir, nil); !errors.Is(err, ErrAlreadyMigrated) {
		t.Fatalf("second migrate: %v, want ErrAlreadyMigrated", err)
	}

	// A live server of the old release holds the store lock: migration
	// must refuse.
	lockedDir, _, _ := seedWALStore(t)
	held, err := jobstore.Open(lockedDir)
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	if _, err := MigrateStore(lockedDir, nil); !errors.Is(err, jobstore.ErrLocked) {
		t.Fatalf("migrating a locked store: %v, want ErrLocked", err)
	}
}

func TestMigrateStoreRollback(t *testing.T) {
	dir, _, _ := seedWALStore(t)
	res, err := MigrateStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Rollback: remove the LSM files and restore the retired WAL files —
	// the original store, byte for byte, which the release that wrote it
	// can boot again and this one migrates again.
	if err := jobstore.RemoveLSMFiles(dir); err != nil {
		t.Fatal(err)
	}
	for _, retired := range res.Retired {
		if err := os.Rename(retired, strings.TrimSuffix(retired, ".retired")); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"wal.dat", "snapshot.dat"} {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		orig, err := os.ReadFile(filepath.Join("testdata", "wal-store", name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, orig) {
			t.Fatalf("rolled-back %s differs from the original", name)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "MANIFEST")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("LSM MANIFEST still present after rollback cleanup (stat err %v)", err)
	}
	if _, err := OpenService(ServiceConfig{Dir: dir}); err == nil || !strings.Contains(err.Error(), "cdas-storectl migrate") {
		t.Fatalf("boot over rolled-back store: err = %v, want migrate hint", err)
	}
	if _, err := MigrateStore(dir, nil); err != nil {
		t.Fatalf("re-migrating the rolled-back store: %v", err)
	}
}
