package jobstore

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// FuzzReplay feeds arbitrary bytes to the legacy WAL scanner: Open must
// never panic or error on junk (junk is a torn tail, not an IO
// failure), must cut the file back to the committed prefix it
// recovered, and recovery must be a fixed point — a second Open sees
// exactly the first one's entries, plus any frame written after the
// cut. A snapshot whose watermark covers every sequence number must
// shadow the whole WAL.
func FuzzReplay(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("not a wal at all"))
	f.Add(frame(1, []byte("good record")))
	f.Add(append(frame(1, []byte("good")), frame(2, []byte("also good"))...))
	f.Add(append(frame(1, []byte("good")), 0xde, 0xad, 0xbe)) // torn tail
	f.Add(frame(0, nil))
	f.Add(bytes.Repeat([]byte{0xff}, headerSize*3))

	f.Fuzz(func(t *testing.T, wal []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, walName)
		writeLegacy(t, dir, wal, nil, 0)
		l, err := Open(dir)
		if err != nil {
			t.Fatalf("Open on arbitrary WAL bytes errored: %v", err)
		}
		recovered := l.Entries()
		l.Close()
		cut, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(wal, cut) {
			t.Fatalf("Open left %d bytes that are not a prefix of the %d written", len(cut), len(wal))
		}

		// A frame written after the cut extends the committed prefix.
		writeLegacy(t, dir, append(cut, frame(math.MaxUint64, []byte("post-recovery"))...), nil, 0)
		r, err := Open(dir)
		if err != nil {
			t.Fatalf("second Open: %v", err)
		}
		again := r.Entries()
		r.Close()
		if len(again) != len(recovered)+1 {
			t.Fatalf("second recovery has %d entries, want %d", len(again), len(recovered)+1)
		}
		for i := range recovered {
			if !bytes.Equal(again[i], recovered[i]) {
				t.Fatalf("entry %d changed across recoveries: %q vs %q", i, again[i], recovered[i])
			}
		}
		if string(again[len(again)-1]) != "post-recovery" {
			t.Fatalf("appended record lost: %q", again[len(again)-1])
		}

		// A snapshot at the highest watermark covers every frame.
		writeLegacy(t, dir, wal, []byte("state-at-snapshot"), math.MaxUint64)
		s, err := Open(dir)
		if err != nil {
			t.Fatalf("Open with snapshot: %v", err)
		}
		defer s.Close()
		if snap, seq := s.Snapshot(); string(snap) != "state-at-snapshot" || seq != math.MaxUint64 {
			t.Fatalf("Snapshot = %q@%d, want state-at-snapshot@max", snap, seq)
		}
		if tail := s.Entries(); len(tail) != 0 {
			t.Fatalf("snapshot at the highest watermark left %d entries %q", len(tail), tail)
		}
	})
}
