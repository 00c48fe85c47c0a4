package main

// In-process CLI tests: copy a WAL-engine store written by the last
// release that ran that engine, drive the migrate subcommand via run(),
// and boot the result as an LSM-engine service.

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cdas/internal/jobs"
)

// seedStore copies the jobs package's legacy WAL-store fixture into dir.
func seedStore(t *testing.T, dir string) {
	t.Helper()
	src := filepath.Join("..", "..", "internal", "jobs", "testdata", "wal-store")
	if err := os.CopyFS(dir, os.DirFS(src)); err != nil {
		t.Fatal(err)
	}
}

func TestStorectlMigrate(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	seedStore(t, dir)

	var out, errOut bytes.Buffer
	if code := run([]string{"migrate", "-dir", dir}, &out, &errOut); code != 0 {
		t.Fatalf("migrate exited %d: %s%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "migrated 5 jobs") {
		t.Fatalf("output missing job count:\n%s", out.String())
	}

	r, err := jobs.OpenService(jobs.ServiceConfig{Dir: dir})
	if err != nil {
		t.Fatalf("boot migrated store: %v", err)
	}
	defer r.Close()
	st, ok := r.Status("alpha")
	if !ok || st.State != jobs.StateDone || st.Cost != 2.5 {
		t.Fatalf("alpha after migration = %+v/%v", st, ok)
	}
	if b := r.Budget(); b.GlobalSpent != 3.69 {
		t.Fatalf("budget after migration = %+v", b)
	}

	// Second run: idempotent success.
	out.Reset()
	errOut.Reset()
	if code := run([]string{"migrate", "-dir", dir, "-quiet"}, &out, &errOut); code != 0 {
		t.Fatalf("re-run exited %d: %s", code, errOut.String())
	}
}

func TestStorectlUsageErrors(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run(nil, &out, &errOut); code == 0 {
		t.Fatal("no args: want nonzero exit")
	}
	if code := run([]string{"defrag"}, &out, &errOut); code == 0 {
		t.Fatal("unknown command: want nonzero exit")
	}
	if code := run([]string{"migrate"}, &out, &errOut); code == 0 {
		t.Fatal("migrate without -dir: want nonzero exit")
	}
	if code := run([]string{"migrate", "-dir", t.TempDir()}, &out, &errOut); code == 0 {
		t.Fatal("migrate of empty dir: want nonzero exit")
	}
}
