package dvecap

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"dvecap/internal/repair"
)

// The data directories under testdata/shared-model were written by a
// session opened WithDelayProvider(SharedRowDelays) and by a director with
// DelayModel "shared" — the deduplicating row store as a selectable model,
// whose snapshots carry the store's own state (provider kind "shared")
// instead of per-client rows. Each holds two snapshots and a journal tail
// after the newer one. want.json is what the writer showed right before it
// was abandoned (no Close, no final checkpoint); recovery must show the
// same. The stored "shared" state is read as the exact store, so the next
// checkpoint writes per-client rows, the form of every exact snapshot, and
// a second recovery from it shows the same again.

// oldDataCopy copies a fixture data directory into a fresh temporary one,
// so recovery may checkpoint without touching the fixture.
func oldDataCopy(t *testing.T, name string) (dir string, want []byte) {
	t.Helper()
	src := filepath.Join("testdata", "shared-model", name)
	want, err := os.ReadFile(filepath.Join(src, "want.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir = t.TempDir()
	for name, raw := range dirFiles(t, filepath.Join(src, "data")) {
		if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir, want
}

// requireRowsSnapshot fails unless dir's newest snapshot stores delays as
// per-client rows and no provider state.
func requireRowsSnapshot(t *testing.T, dir string) {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "snap-*.json"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no snapshot in %s: %v", dir, err)
	}
	raw, err := os.ReadFile(names[len(names)-1])
	if err != nil {
		t.Fatal(err)
	}
	var snap repair.Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Provider != nil {
		t.Fatalf("checkpoint after recovery stores provider state of kind %q", snap.Provider.Kind)
	}
	for _, c := range snap.Cluster.Clients {
		if len(c.RTTRowMs) != len(snap.Cluster.Servers) {
			t.Fatalf("checkpoint after recovery: client %s carries %d delays for %d servers", c.ID, len(c.RTTRowMs), len(snap.Cluster.Servers))
		}
	}
}

func requireSameJSON(t *testing.T, what string, v interface{}, want []byte) {
	t.Helper()
	got, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if string(append(got, '\n')) != string(want) {
		t.Fatalf("%s after recovery:\n%s\nwant:\n%s", what, got, want)
	}
}

func TestSharedModelSessionDataRecovers(t *testing.T) {
	dir, want := oldDataCopy(t, "session")
	for _, stage := range []string{"recovered", "rows checkpoint"} {
		s := reopenDurable(t, dir, "GreZ-GreC", 1)
		res, err := s.Result()
		if err != nil {
			t.Fatal(err)
		}
		requireSameJSON(t, stage, struct {
			Result  *Result        `json:"result"`
			Clients []string       `json:"clients"`
			Servers []ServerStatus `json:"servers"`
		}{res, s.ClientIDs(), s.Servers()}, want)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		requireRowsSnapshot(t, dir)
	}
}

func TestSharedModelDirectorDataRecovers(t *testing.T) {
	dir, want := oldDataCopy(t, "director")
	for _, stage := range []string{"recovered", "rows checkpoint"} {
		m := directorSurface(t, "dense").open(t, proofRun{dir: dir, workers: 1, snapEvery: 25}).(*directorMachine)
		d := m.d
		requireSameJSON(t, stage, []interface{}{d.Snapshot(), d.Servers(), d.Zones(), d.Adjacency(), d.Stats()}, want)
		if err := m.close(); err != nil {
			t.Fatal(err)
		}
		requireRowsSnapshot(t, dir)
	}
}
