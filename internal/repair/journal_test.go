package repair

import (
	"fmt"
	"strings"
	"testing"

	"dvecap/internal/wal"
)

// TestLoadSnapshotFallsBackAGeneration: the newest snapshot that parses,
// is within the readable schema range and declares the LSN its file name
// carries wins; every other candidate is skipped for the generation before
// it, and a directory with no usable candidate fails loudly.
func TestLoadSnapshotFallsBackAGeneration(t *testing.T) {
	good := func(lsn uint64) string { return fmt.Sprintf(`{"version":2,"lsn":%d}`, lsn) }
	for _, tc := range []struct {
		name   string
		newest string
		want   uint64
	}{
		{"newest valid", good(9), 9},
		{"torn JSON", `{"version":2,"ls`, 5},
		{"future schema", `{"version":3,"lsn":9}`, 5},
		{"version zero", `{"lsn":9}`, 5},
		{"declares another LSN", good(8), 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			for lsn, payload := range map[uint64]string{5: good(5), 9: tc.newest} {
				if err := wal.WriteSnapshot(dir, lsn, []byte(payload), nil); err != nil {
					t.Fatal(err)
				}
			}
			got, err := LoadSnapshot(dir)
			if err != nil || got.LSN != tc.want {
				t.Fatalf("loaded %+v, %v; want LSN %d", got, err, tc.want)
			}
		})
	}
	dir := t.TempDir()
	if err := wal.WriteSnapshot(dir, 9, []byte(`{"version":7,"lsn":9}`), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSnapshot(dir); err == nil || !strings.Contains(err.Error(), "version 7") {
		t.Fatalf("only a future-schema snapshot: %v, want a refusal naming the version", err)
	}
	if _, err := LoadSnapshot(t.TempDir()); err == nil {
		t.Fatal("empty directory produced a snapshot")
	}
}
