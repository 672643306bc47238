package director

import (
	"bytes"
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

// TestDirectorRefusesNonSpillingSnapshot: a data directory whose snapshots
// record the fail-on-overflow policy older builds offered (overflow 1) is
// refused by name, and New leaves the directory as it found it.
func TestDirectorRefusesNonSpillingSnapshot(t *testing.T) {
	cfg := durDirConfig(durDelays(t), 1)
	cfg.DataDir = filepath.Join(t.TempDir(), "data")
	if err := os.CopyFS(cfg.DataDir, os.DirFS("../../testdata/v3-snapshots/director-coord/data")); err != nil {
		t.Fatal(err)
	}
	snaps, err := filepath.Glob(filepath.Join(cfg.DataDir, "snap-*.json"))
	if err != nil || len(snaps) != 2 {
		t.Fatalf("want two snapshots, have %v (%v)", snaps, err)
	}
	for _, path := range snaps {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Count(raw, []byte(`"overflow":0`)) != 1 {
			t.Fatalf("%s does not record overflow 0 once", filepath.Base(path))
		}
		raw = bytes.Replace(raw, []byte(`"overflow":0`), []byte(`"overflow":1`), 1)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	before, err := dirFiles(cfg.DataDir)
	if err != nil {
		t.Fatal(err)
	}
	if d, err := New(cfg); err == nil {
		d.Close()
		t.Fatal("a snapshot recorded under overflow policy 1 recovered")
	} else if !strings.Contains(err.Error(), "overflow policy 1") {
		t.Fatalf("refusal does not name the overflow policy: %v", err)
	}
	after, err := dirFiles(cfg.DataDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Fatalf("the refused directory went from %d to %d files", len(before), len(after))
	}
	for name, raw := range after {
		if raw != before[name] {
			t.Fatalf("%s changed under a refused open", name)
		}
	}
}

// dirFiles reads every file of a flat directory, by name.
func dirFiles(dir string) (map[string]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := map[string]string{}
	for _, e := range ents {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		out[e.Name()] = string(raw)
	}
	return out, nil
}
