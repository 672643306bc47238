package dvecap

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dvecap/internal/core"
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
// checkpoint writes the exact store's state, the form of every exact
// snapshot since version 4, and a second recovery from it shows the same
// again.

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

// requireStoreSnapshot fails unless dir's newest usable snapshot is of this
// build's version and stores delays as the exact store's own state, a
// group for every client.
func requireStoreSnapshot(t *testing.T, dir string) {
	t.Helper()
	snap, err := repair.LoadSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version != repair.SnapshotVersion {
		t.Fatalf("checkpoint after recovery is version %d", snap.Version)
	}
	if pv := snap.Provider; pv == nil || pv.Kind != core.ProviderSharedRow || len(pv.Shared.Group) != len(snap.Planner.ClientContact) {
		t.Fatalf("checkpoint after recovery stores %+v, not the exact store's state for %d clients", pv, len(snap.Planner.ClientContact))
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
		requireStoreSnapshot(t, dir)
	}
}

// TestRecoveryRefusesNonSpillingSnapshot: a session recorded under the
// fail-on-overflow policy older builds offered (overflow 1) is refused by
// name. Replayed under spilling, its log could pass a full solve the
// original run failed, so recovery stops instead of diverging.
func TestRecoveryRefusesNonSpillingSnapshot(t *testing.T) {
	dir, _ := oldDataCopy(t, "session")
	snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.json"))
	if err != nil || len(snaps) != 2 {
		t.Fatalf("want two snapshots, have %v (%v)", snaps, err)
	}
	for _, path := range snaps {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Count(string(raw), `"overflow":0`) != 1 {
			t.Fatalf("%s does not record overflow 0 once", filepath.Base(path))
		}
		raw = []byte(strings.Replace(string(raw), `"overflow":0`, `"overflow":1`, 1))
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err := NewCluster(1).Open("GreZ-GreC", WithDurability(dir))
	if err == nil {
		s.Close()
		t.Fatal("a snapshot recorded under overflow policy 1 recovered")
	}
	if !strings.Contains(err.Error(), "overflow policy 1") {
		t.Fatalf("refusal does not name the overflow policy: %v", err)
	}
}

func TestSharedModelDirectorDataRecovers(t *testing.T) {
	dir, want := oldDataCopy(t, "director")
	for _, stage := range []string{"recovered", "rows checkpoint"} {
		m := directorSurface(t).open(t, proofRun{dir: dir, workers: 1, snapEvery: 25}).(*directorMachine)
		d := m.d
		requireSameJSON(t, stage, []interface{}{d.Snapshot(), d.Servers(), d.Zones(), d.Adjacency(), d.Stats()}, want)
		if err := m.close(); err != nil {
			t.Fatal(err)
		}
		requireStoreSnapshot(t, dir)
	}
}

// The data directories under testdata/v2-snapshots were written by the last
// build before snapshot version 3, running proveGoldenFormat's 60-event
// script for each surface and delay store: the baseline snapshot, the
// journal and the final checkpoint, whose version-2 bytes that build's
// golden pins recorded (v2Golden: baseline, final). want.json is what the
// writer showed after the final checkpoint. Recovery from the version-2
// checkpoint must show the same; the checkpoint Close writes is version 3,
// and a second recovery, from it, shows the same again.
var v2Golden = map[string][2]string{
	"session-dense": {
		"078f3ef5f83bce94f1b480b577707213a8941eff9afd51ac460fe11513ff5371",
		"2b9bd286266e8abff9cb5113669708bdd1c1789d08a0c85059d07b61ae5c2601",
	},
	"session-coord": {
		"454047fd6d7c1e7107615fbe9177d0b6b4a438293d3a66d1a220a3bdfe192775",
		"8a9c6c26690ecb222824a90fbd66ff73aa1ae52c38f6b1d615b6b40a6ec9547b",
	},
	"director-dense": {
		"789e632661c057969015eae4e7b27649cb7d7d1c5002143c695d92261a2ee45d",
		"e7863598e161bc2adbbf6f21e3a51439993fdfc9de4834d1180afbb827ad5ff7",
	},
	"director-coord": {
		"4542748f7db016eb89b85a0f28098d65dbe61d5854470663e808e492f49b884d",
		"ae7ae7a99cb29a1ba997ad6e007c76ca7bd9d7757e70c8a3b54294bf44c5e1a1",
	},
}

func TestV2SnapshotsRecover(t *testing.T) {
	for name, pins := range v2Golden {
		t.Run(name, func(t *testing.T) {
			src := filepath.Join("testdata", "v2-snapshots", name)
			want, err := os.ReadFile(filepath.Join(src, "want.json"))
			if err != nil {
				t.Fatal(err)
			}
			snaps, err := filepath.Glob(filepath.Join(src, "data", "snap-*.json"))
			if err != nil || len(snaps) != 2 {
				t.Fatalf("want the baseline and the final checkpoint, have %v (%v)", snaps, err)
			}
			for x, path := range snaps {
				raw, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if got := fmt.Sprintf("%x", sha256.Sum256(raw)); got != pins[x] {
					t.Fatalf("%s: sha256 %s, recorded %s", filepath.Base(path), got, pins[x])
				}
			}
			dir := t.TempDir()
			for name, raw := range dirFiles(t, filepath.Join(src, "data")) {
				if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			session, _, _ := strings.Cut(name, "-")
			for _, stage := range []string{"version-2 checkpoint", "version-3 checkpoint"} {
				if session == "session" {
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
					err = s.Close()
				} else {
					m := directorSurface(t).open(t, proofRun{dir: dir, workers: 1}).(*directorMachine)
					d := m.d
					requireSameJSON(t, stage, []interface{}{d.Snapshot(), d.Servers(), d.Zones(), d.Adjacency(), d.Stats()}, want)
					err = m.close()
				}
				if err != nil {
					t.Fatal(err)
				}
				snap, err := repair.LoadSnapshot(dir)
				if err != nil {
					t.Fatal(err)
				}
				if snap.Version != repair.SnapshotVersion {
					t.Fatalf("Close after recovery left a version-%d checkpoint", snap.Version)
				}
			}
		})
	}
}

// The data directories under testdata/v3-snapshots were written the same
// way by the last build before snapshot version 4 (v3Golden: baseline,
// final — that build's golden pins). Recovery from the version-3
// checkpoint must show what the writer showed; the checkpoint Close writes
// is version 4, and a second recovery, from it, shows the same again.
var v3Golden = map[string][2]string{
	"session-dense": {
		"4487f9af4c3e87f016e807e13894822c4f4c18cb3412ebcdff6faf927a2b997c",
		"f5caa0eab005494e99cc933cd48bb68a289d0738e02f48314789121470346ce2",
	},
	"session-coord": {
		"13c36718483e56fe12edff4024c2322b0dcc9286a1643d2de4e835916d47c1fc",
		"ff3c3b1e8109df89e4f743810abfb0d3d18d72f061bbf1e7dd5cc7771ade1a12",
	},
	"director-dense": {
		"3906274d0eb75bf07b416b26f0b6602bdb9b11897e8812697c87fe63f1042858",
		"7b9f09a858f54261bd36ec0805ec149190d90613358ca3f6cf0e2884d478b27f",
	},
	"director-coord": {
		"2526cd6845edaae6988cf23a74c7656ab333545cf7aae235e2b8f41b2695bc54",
		"de7d3d1794062bae905fe31091f22bf79bea249eda720bbf091c02b3a0381d68",
	},
}

func TestV3SnapshotsRecover(t *testing.T) {
	for name, pins := range v3Golden {
		t.Run(name, func(t *testing.T) {
			src := filepath.Join("testdata", "v3-snapshots", name)
			want, err := os.ReadFile(filepath.Join(src, "want.json"))
			if err != nil {
				t.Fatal(err)
			}
			files := dirFiles(t, filepath.Join(src, "data"))
			snaps, _ := filepath.Glob(filepath.Join(src, "data", "snap-*.json"))
			if len(snaps) != 2 {
				t.Fatalf("want the baseline and the final checkpoint, have %v", snaps)
			}
			for x, path := range snaps {
				if got := fmt.Sprintf("%x", sha256.Sum256(files[filepath.Base(path)])); got != pins[x] {
					t.Fatalf("%s: sha256 %s, recorded %s", filepath.Base(path), got, pins[x])
				}
			}
			dir := t.TempDir()
			for name, raw := range files {
				if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			surface, _, _ := strings.Cut(name, "-")
			for _, stage := range []string{"version-3 checkpoint", "version-4 checkpoint"} {
				if surface == "session" {
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
					err = s.Close()
				} else {
					m := directorSurface(t).open(t, proofRun{dir: dir, workers: 1}).(*directorMachine)
					d := m.d
					requireSameJSON(t, stage, []interface{}{d.Snapshot(), d.Servers(), d.Zones(), d.Adjacency(), d.Stats()}, want)
					err = m.close()
				}
				if err != nil {
					t.Fatal(err)
				}
				if snap, err := repair.LoadSnapshot(dir); err != nil || snap.Version != repair.SnapshotVersion {
					t.Fatalf("Close after recovery left %v (%v), want a version-%d checkpoint", snap != nil, err, repair.SnapshotVersion)
				}
			}
		})
	}
}
