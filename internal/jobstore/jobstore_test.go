package jobstore

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// frames encodes recs as consecutive legacy-log frames numbered from
// seq first: the bytes the WAL engine appended.
func frames(first uint64, recs ...string) []byte {
	var out []byte
	for i, r := range recs {
		out = append(out, frame(first+uint64(i), []byte(r))...)
	}
	return out
}

// writeLegacy lays out a legacy store in dir: wal.dat holding wal and,
// when snap is non-nil, snapshot.dat holding snap at watermark snapSeq.
func writeLegacy(t *testing.T, dir string, wal, snap []byte, snapSeq uint64) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, walName), wal, 0o644); err != nil {
		t.Fatal(err)
	}
	if snap != nil {
		if err := os.WriteFile(filepath.Join(dir, snapshotName), frame(snapSeq, snap), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func mustOpen(t *testing.T, dir string) *Log {
	t.Helper()
	l, err := Open(dir)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return l
}

func wantEntries(t *testing.T, l *Log, want ...string) {
	t.Helper()
	got := l.Entries()
	if len(got) != len(want) {
		t.Fatalf("recovered %d entries, want %d: %q vs %q", len(got), len(want), got, want)
	}
	for i := range want {
		if string(got[i]) != want[i] {
			t.Errorf("entry %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// wantWALSize asserts wal.dat holds exactly n bytes — after a torn
// tail, the committed prefix Open cut it back to.
func wantWALSize(t *testing.T, dir string, n int) {
	t.Helper()
	fi, err := os.Stat(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != int64(n) {
		t.Errorf("wal.dat is %d bytes, want %d", fi.Size(), n)
	}
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	wal := frames(1, "one", "two", "three")
	writeLegacy(t, dir, wal, nil, 0)

	r := mustOpen(t, dir)
	defer r.Close()
	wantEntries(t, r, "one", "two", "three")
	if snap, seq := r.Snapshot(); snap != nil || seq != 0 {
		t.Errorf("Snapshot = %q@%d, want none", snap, seq)
	}
	wantWALSize(t, dir, len(wal))
}

// TestTruncatedTail simulates kill -9 mid-append: the last frame is cut
// short. Recovery must keep every record whose append returned, drop
// only the torn tail, and cut it off on disk.
func TestTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	committed := frames(1, "committed-1", "committed-2")
	data := append(append([]byte(nil), committed...), frame(3, []byte("torn"))...)
	for cut := 1; cut < headerSize+len("torn"); cut += 3 {
		writeLegacy(t, dir, data[:len(data)-cut], nil, 0)
		r := mustOpen(t, dir)
		wantEntries(t, r, "committed-1", "committed-2")
		r.Close()
		wantWALSize(t, dir, len(committed))
		// The cut log recovers to the same state again.
		r2 := mustOpen(t, dir)
		wantEntries(t, r2, "committed-1", "committed-2")
		r2.Close()
	}
}

// TestCorruptedTail flips bytes in the final record: the checksum must
// catch it and recovery must keep all earlier committed records.
func TestCorruptedTail(t *testing.T) {
	dir := t.TempDir()
	committed := frames(1, "keep-1", "keep-2")
	data := append(append([]byte(nil), committed...), frame(3, []byte("garbled"))...)
	lastFrame := len(committed)
	for _, off := range []int{lastFrame, lastFrame + 5, lastFrame + headerSize, len(data) - 1} {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0xff
		writeLegacy(t, dir, mut, nil, 0)
		r := mustOpen(t, dir)
		wantEntries(t, r, "keep-1", "keep-2")
		r.Close()
		wantWALSize(t, dir, len(committed))
	}
}

// TestCorruptionMidLogDropsSuffix: corruption in the middle of the WAL
// ends the committed prefix there; later (unreachable) records are
// dropped rather than mis-parsed.
func TestCorruptionMidLogDropsSuffix(t *testing.T) {
	dir := t.TempDir()
	data := frames(1, "first", "second", "third")
	// Flip a byte inside the second record's payload.
	secondPayload := (headerSize + len("first")) + headerSize
	data[secondPayload] ^= 0x55
	writeLegacy(t, dir, data, nil, 0)
	r := mustOpen(t, dir)
	defer r.Close()
	wantEntries(t, r, "first")
	wantWALSize(t, dir, headerSize+len("first"))
}

// TestSnapshotCompactsWAL reads a store the WAL engine had compacted:
// the snapshot covers a and b, and the WAL holds only the later c.
func TestSnapshotCompactsWAL(t *testing.T) {
	dir := t.TempDir()
	writeLegacy(t, dir, frames(3, "c"), []byte("state-after-b"), 2)

	r := mustOpen(t, dir)
	defer r.Close()
	snap, seq := r.Snapshot()
	if string(snap) != "state-after-b" || seq != 2 {
		t.Errorf("Snapshot = %q@%d, want state-after-b@2", snap, seq)
	}
	wantEntries(t, r, "c")
}

// TestSnapshotCrashWindow reads a store left by a crash after the
// snapshot rename but before the WAL truncation: the stale WAL records
// are at or below the snapshot watermark and must not be replayed
// twice, while records past it still are.
func TestSnapshotCrashWindow(t *testing.T) {
	dir := t.TempDir()
	writeLegacy(t, dir, frames(1, "a", "b"), []byte("covers-a-b"), 2)
	r := mustOpen(t, dir)
	snap, seq := r.Snapshot()
	if string(snap) != "covers-a-b" || seq != 2 {
		t.Fatalf("Snapshot = %q@%d, want covers-a-b@2", snap, seq)
	}
	wantEntries(t, r) // nothing replays: both records are covered
	r.Close()

	writeLegacy(t, dir, frames(1, "a", "b", "c"), []byte("covers-a-b"), 2)
	r = mustOpen(t, dir)
	defer r.Close()
	wantEntries(t, r, "c")
}

func TestCorruptSnapshotIsLoud(t *testing.T) {
	dir := t.TempDir()
	writeLegacy(t, dir, frames(2, "b"), []byte("good"), 1)
	path := filepath.Join(dir, snapshotName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); !errors.Is(err, ErrCorruptSnapshot) {
		t.Errorf("Open on corrupt snapshot: err = %v, want ErrCorruptSnapshot", err)
	}
}

func TestEmptyPayloadsAndBinaryRecords(t *testing.T) {
	dir := t.TempDir()
	bin := bytes.Repeat([]byte{0x00, 0xff, 0x13}, 100)
	writeLegacy(t, dir, frames(1, "", string(bin)), nil, 0)
	r := mustOpen(t, dir)
	defer r.Close()
	got := r.Entries()
	if len(got) != 2 || len(got[0]) != 0 || !bytes.Equal(got[1], bin) {
		t.Errorf("binary round trip failed: %q", got)
	}
}

// TestDoubleOpenLocked: a second live opener (a migration racing a
// server that still runs the old binary) must fail fast.
func TestDoubleOpenLocked(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir)
	defer l.Close()
	if _, err := Open(dir); !errors.Is(err, ErrLocked) {
		t.Fatalf("second Open err = %v, want ErrLocked", err)
	}
	// Releasing the first handle frees the store; Close is idempotent.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, dir)
	r.Close()
}
