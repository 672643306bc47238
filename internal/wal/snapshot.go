package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// ErrNoSnapshot reports a directory with no snapshot. Recovery does not
// fall back to replaying the log from LSN 0: a durable surface writes its
// baseline snapshot before the first segment, so segments without a
// snapshot are refused (repair.LoadSnapshot).
var ErrNoSnapshot = errors.New("wal: no snapshot")

// snapshotName formats the snapshot covering all records through lsn.
func snapshotName(lsn uint64) string { return fmt.Sprintf("snap-%016d.json", lsn) }

// parseSnapshot extracts the covered LSN from a snapshot filename.
func parseSnapshot(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "snap-") || !strings.HasSuffix(name, ".json") {
		return 0, false
	}
	v, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "snap-"), ".json"), 10, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// SnapshotLSNs lists the directory's snapshots by ascending covered LSN.
func SnapshotLSNs(dir string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var out []uint64
	for _, e := range ents {
		if lsn, ok := parseSnapshot(e.Name()); ok {
			out = append(out, lsn)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// WriteSnapshot durably writes a snapshot covering all records through
// lsn, using the classic tmp + fsync + rename + dir-fsync sequence so a
// crash at any instant leaves either the old set of snapshots or the old
// set plus a complete new one — never a half-written file under the final
// name. hook mirrors Options.CrashHook for fault injection (points
// "snapshot:temp" after the temp file is written and "snapshot:renamed"
// after the rename, both before their syncs); pass nil in production.
func WriteSnapshot(dir string, lsn uint64, payload []byte, hook func(point string) error) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	final := filepath.Join(dir, snapshotName(lsn))
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(payload); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if hook != nil {
		if err := hook("snapshot:temp"); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return err
	}
	if hook != nil {
		if err := hook("snapshot:renamed"); err != nil {
			return err
		}
	}
	return syncDir(dir)
}

// ReadSnapshot returns the payload of the snapshot covering lsn.
func ReadSnapshot(dir string, lsn uint64) ([]byte, error) {
	return os.ReadFile(filepath.Join(dir, snapshotName(lsn)))
}

// LatestSnapshot returns the newest snapshot's covered LSN and payload.
// Callers that find the payload unparseable can fall back to the older
// LSNs from SnapshotLSNs. ErrNoSnapshot when none exist.
func LatestSnapshot(dir string) (uint64, []byte, error) {
	lsns, err := SnapshotLSNs(dir)
	if err != nil {
		return 0, nil, err
	}
	if len(lsns) == 0 {
		return 0, nil, ErrNoSnapshot
	}
	lsn := lsns[len(lsns)-1]
	b, err := ReadSnapshot(dir, lsn)
	if err != nil {
		return 0, nil, err
	}
	return lsn, b, nil
}

// PruneSnapshots removes all but the newest keep snapshots, plus any
// leftover .tmp files from interrupted writes, and returns the LSNs of the
// snapshots kept, oldest first.
func PruneSnapshots(dir string, keep int) ([]uint64, error) {
	lsns, err := SnapshotLSNs(dir)
	if err != nil {
		return nil, err
	}
	for i := 0; i+keep < len(lsns); i++ {
		if err := os.Remove(filepath.Join(dir, snapshotName(lsns[i]))); err != nil {
			return nil, err
		}
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "snap-") && strings.HasSuffix(e.Name(), ".json.tmp") {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				return nil, err
			}
		}
	}
	return lsns[max(0, len(lsns)-keep):], syncDir(dir)
}
