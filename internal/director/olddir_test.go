package director

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dvecap/internal/wal"
)

// TestDirectorRefusesOldDataDir: testdata/legacy/data was written by a
// director that predates the machine snapshot format (an index-addressed
// problem and client registry for a snapshot, the "d"-prefixed ops for a
// journal). This build has no reader for it: New must say so, and must not
// checkpoint over, truncate or otherwise touch what it cannot read.
func TestDirectorRefusesOldDataDir(t *testing.T) {
	src := filepath.Join("testdata", "legacy", "data")
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	before := map[string]string{}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		before[e.Name()] = string(raw)
	}
	if len(before) != 3 {
		t.Fatalf("fixture holds %d files, want two snapshots and a log segment", len(before))
	}
	cfg := durDirConfig(durDelays(t), 1)
	cfg.DataDir = dir
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "predates the machine snapshot format") {
		t.Fatalf("opening a pre-machine data directory: %v, want a refusal naming the format", err)
	}
	after, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Fatalf("the refused directory went from %d to %d files", len(before), len(after))
	}
	for _, e := range after {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if string(raw) != before[e.Name()] {
			t.Fatalf("%s changed under a refused open", e.Name())
		}
	}

	// A snapshot in the current format without director state — a
	// ClusterSession's — is refused for what it is.
	sess := t.TempDir()
	if err := wal.WriteSnapshot(sess, 0, []byte(`{"version":2,"lsn":0,"algo":"GreZ-GreC","cluster":{"delay_bound_ms":250,"servers":[{"id":"s0","capacity_mbps":50}],"zones":["z0"],"clients":[]},"planner":{}}`), nil); err != nil {
		t.Fatal(err)
	}
	cfg.DataDir = sess
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "not a director's: no director state") {
		t.Fatalf("opening a session's data directory: %v, want the not-a-director's refusal", err)
	}
}
