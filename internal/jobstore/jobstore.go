// Package jobstore provides the durable substrate of the CDAS job
// manager (Section 2.1, Figure 2): an LSM key/value store (lsm.go)
// whose WAL segments and checkpointed sorted runs let a killed server
// recover its job lifecycle and resume unfinished work.
//
// The store is deliberately payload-agnostic — it persists opaque byte
// records and leaves their meaning to the caller (package jobs encodes
// its records as JSON).
//
// This file holds the read-only reader for the legacy append-only log
// format (wal.dat plus snapshot.dat), which stores written before the
// LSM engine still hold until cdas-storectl migrate converts them:
//
//   - Each record is framed with a length, a monotone sequence number
//     and a CRC-32 checksum.
//   - The snapshot frame carries the sequence number of the last record
//     it covers.
//   - Open loads the snapshot (if any) and replays WAL frames. A torn or
//     corrupted tail — a crash mid-append — is detected by the framing
//     and cut off at the last intact record; every committed record
//     before it is preserved. Records whose sequence number is at or
//     below the snapshot watermark are skipped, which makes the old
//     crash window between snapshot rename and WAL truncation safe:
//     nothing is applied twice.
package jobstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"syscall"
)

const (
	walName      = "wal.dat"
	snapshotName = "snapshot.dat"

	// headerSize is the per-frame header: 4-byte payload length,
	// 8-byte sequence number, 4-byte CRC-32 (IEEE) over seq+payload.
	headerSize = 4 + 8 + 4

	// maxRecordSize bounds a single record. A length field above it is
	// treated as corruption rather than an attempt to allocate gigabytes.
	maxRecordSize = 64 << 20
)

// ErrCorruptSnapshot reports a snapshot file that exists but fails its
// checksum. Unlike a torn WAL tail this is never produced by a crash —
// snapshots were installed atomically — so it is surfaced loudly
// instead of being silently dropped.
var ErrCorruptSnapshot = errors.New("jobstore: snapshot file is corrupt")

// ErrLocked reports a store already opened by another live process.
// The lock is a flock on the store's WAL file: the kernel releases it
// when the holder dies, so a kill -9 never wedges the store.
var ErrLocked = errors.New("jobstore: store is locked by another process")

// Log is an open legacy append-only log: the records recovered at Open,
// held under the WAL file's lock until Close. Its accessors are safe
// for concurrent use; Close must not race them.
type Log struct {
	wal *os.File

	snapshot []byte
	snapSeq  uint64 // watermark: records <= snapSeq live in the snapshot
	entries  [][]byte
}

// Open locks the legacy log rooted at dir and recovers its state: the
// latest snapshot plus every committed WAL record after it. A torn or
// corrupted WAL tail is truncated in place.
func Open(dir string) (*Log, error) {
	if dir == "" {
		return nil, errors.New("jobstore: dir is required")
	}
	l := &Log{}
	if err := l.loadSnapshot(dir); err != nil {
		return nil, err
	}
	if err := l.replayWAL(dir); err != nil {
		return nil, err
	}
	return l, nil
}

// Snapshot returns the snapshot payload recovered at Open (nil when the
// log had none) and the sequence watermark it covers.
func (l *Log) Snapshot() ([]byte, uint64) { return l.snapshot, l.snapSeq }

// Entries returns the WAL records recovered at Open, in append order,
// excluding any already covered by the snapshot watermark.
func (l *Log) Entries() [][]byte { return append([][]byte(nil), l.entries...) }

// Close releases the WAL file and its lock. The recovered state remains
// readable. Close is idempotent.
func (l *Log) Close() error {
	if l.wal == nil {
		return nil
	}
	err := l.wal.Close()
	l.wal = nil
	return err
}

// frame encodes one record: [len u32][seq u64][crc u32][payload].
func frame(seq uint64, payload []byte) []byte {
	buf := make([]byte, headerSize+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint64(buf[4:12], seq)
	crc := crc32.NewIEEE()
	crc.Write(buf[4:12])
	crc.Write(payload)
	binary.LittleEndian.PutUint32(buf[12:16], crc.Sum32())
	copy(buf[headerSize:], payload)
	return buf
}

// parseFrame decodes the frame at the start of data. ok is false when
// data does not begin with an intact frame (short header, oversized
// length, short payload or checksum mismatch) — the caller treats that
// as the committed prefix's end.
func parseFrame(data []byte) (seq uint64, payload []byte, size int, ok bool) {
	if len(data) < headerSize {
		return 0, nil, 0, false
	}
	n := binary.LittleEndian.Uint32(data[0:4])
	if n > maxRecordSize || int(n) > len(data)-headerSize {
		return 0, nil, 0, false
	}
	seq = binary.LittleEndian.Uint64(data[4:12])
	want := binary.LittleEndian.Uint32(data[12:16])
	payload = data[headerSize : headerSize+int(n)]
	crc := crc32.NewIEEE()
	crc.Write(data[4:12])
	crc.Write(payload)
	if crc.Sum32() != want {
		return 0, nil, 0, false
	}
	return seq, payload, headerSize + int(n), true
}

// loadSnapshot reads the snapshot file, if present.
func (l *Log) loadSnapshot(dir string) error {
	path := filepath.Join(dir, snapshotName)
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("jobstore: %w", err)
	}
	if len(data) == 0 {
		return nil
	}
	seq, payload, size, ok := parseFrame(data)
	if !ok || size != len(data) {
		return fmt.Errorf("%w (%s)", ErrCorruptSnapshot, path)
	}
	l.snapshot = append([]byte(nil), payload...)
	l.snapSeq = seq
	return nil
}

// replayWAL locks and scans the WAL, collecting committed records past
// the snapshot watermark and truncating any torn tail.
func (l *Log) replayWAL(dir string) error {
	path := filepath.Join(dir, walName)
	wal, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("jobstore: %w", err)
	}
	if err := syscall.Flock(int(wal.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		wal.Close()
		return fmt.Errorf("%w (%s): %v", ErrLocked, path, err)
	}
	data, err := io.ReadAll(wal)
	if err != nil {
		wal.Close()
		return fmt.Errorf("jobstore: %w", err)
	}
	offset := 0
	for offset < len(data) {
		seq, payload, size, ok := parseFrame(data[offset:])
		if !ok {
			break
		}
		if seq > l.snapSeq {
			l.entries = append(l.entries, append([]byte(nil), payload...))
		}
		offset += size
	}
	if offset < len(data) {
		// Torn or corrupted tail: keep the committed prefix only.
		if err := wal.Truncate(int64(offset)); err != nil {
			wal.Close()
			return fmt.Errorf("jobstore: tail truncate: %w", err)
		}
	}
	l.wal = wal
	return nil
}

// syncDir fsyncs a directory so a rename inside it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("jobstore: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("jobstore: dir fsync: %w", err)
	}
	return nil
}
