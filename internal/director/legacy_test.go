package director

// Read compatibility with data directories written before the director
// moved onto the one assignment machine. testdata/legacy/data was written by
// the build at the parent commit (testdata/legacy/mkfixture.go.txt, run
// there): a baseline snapshot, one auto-checkpoint, and a journal tail that
// holds every legacy op, auto-ID joins, renumbering removals and rejected
// events; the director was abandoned without Close. prekill.json is what its
// read API showed at that moment.

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"dvecap/internal/repair"
	"dvecap/internal/wal"
)

// legacyView is the read API as the parent commit rendered it — the fields
// this build still reports, whatever it has added since.
type legacyView struct {
	Clients []struct {
		ID      string  `json:"id"`
		Node    int     `json:"node"`
		Zone    int     `json:"zone"`
		Contact int     `json:"contact"`
		Target  int     `json:"target"`
		DelayMs float64 `json:"delay_ms"`
		QoS     bool    `json:"qos"`
	} `json:"clients"`
	Servers []struct {
		Server       int     `json:"server"`
		Node         int     `json:"node"`
		CapacityMbps float64 `json:"capacity_mbps"`
		LoadMbps     float64 `json:"load_mbps"`
		Zones        int     `json:"zones"`
		Draining     bool    `json:"draining"`
	} `json:"servers"`
	Zones []struct {
		Zone    int `json:"zone"`
		Server  int `json:"server"`
		Clients int `json:"clients"`
	} `json:"zones"`
	Adjacency []struct {
		Zone1      int     `json:"zone1"`
		Zone2      int     `json:"zone2"`
		WeightMbps float64 `json:"weight_mbps"`
	} `json:"adjacency"`
	Stats Stats `json:"stats"`
}

// viewOf renders a director's read API in the legacy shape, clients by ID
// (the parent listed them in registration order, this build in dense order).
func viewOf(t *testing.T, d *Director) legacyView {
	t.Helper()
	clients := d.Snapshot()
	sort.Slice(clients, func(a, b int) bool { return clients[a].ID < clients[b].ID })
	blob, err := json.Marshal(map[string]interface{}{
		"clients": clients, "servers": d.Servers(), "zones": d.Zones(),
		"adjacency": d.Adjacency(), "stats": d.Stats(),
	})
	if err != nil {
		t.Fatal(err)
	}
	var v legacyView
	if err := json.Unmarshal(blob, &v); err != nil {
		t.Fatal(err)
	}
	return v
}

func TestDirectorLegacyDataDir(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"snap-0000000000000000.json", "snap-0000000000000031.json", "wal-0000000000000001.log"} {
		raw, err := os.ReadFile(filepath.Join("testdata", "legacy", "data", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// The fixture is what it claims: every legacy op is in the tail.
	seen := map[string]bool{}
	if _, err := wal.Replay(dir, 31, func(_ uint64, payload []byte) error {
		var rec struct {
			Op string `json:"op"`
		}
		if err := json.Unmarshal(payload, &rec); err != nil {
			return err
		}
		seen[rec.Op] = true
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, op := range []repair.EventOp{
		legacyOpDJoin, legacyOpDLeave, legacyOpDMove, legacyOpDDelays, legacyOpDAddServer,
		legacyOpDRemoveServer, legacyOpDDrain, legacyOpDUncordon, legacyOpDAddZone,
		legacyOpDRetireZone, legacyOpDSetAdjacency, legacyOpDAddAdjacency, repair.OpResolve, repair.OpEpoch,
	} {
		if !seen[string(op)] {
			t.Fatalf("fixture journal tail holds no %q record", op)
		}
	}

	var want legacyView
	raw, err := os.ReadFile(filepath.Join("testdata", "legacy", "prekill.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}

	// The caller's deployment disagrees with the stored one, which must win.
	cfg := durDirConfig(durDelays(t), 1)
	cfg.ServerNodes, cfg.ServerCaps, cfg.Zones = []int{1}, []float64{5}, 2
	cfg.DataDir = dir
	d, err := New(cfg)
	if err != nil {
		t.Fatalf("recovering the legacy directory: %v", err)
	}
	if got := viewOf(t, d); !reflect.DeepEqual(got, want) {
		g, _ := json.MarshalIndent(got, "", " ")
		t.Fatalf("recovered state differs from the parent's pre-kill state:\n got %s\nwant %s", g, raw)
	}
	// IDs are the dense indices of the snapshot, carried through the tail's
	// renumbering removals: the spare that took index 1 is still "s5".
	if srv := d.Servers(); srv[1].ID != "s5" || srv[1].Node != 15 || srv[4].ID != "s4" {
		t.Fatalf("server IDs after the legacy tail: %+v", srv)
	}
	if z := d.Zones(); z[8].ID != "z9" {
		t.Fatalf("zone 8 is %q, want the renumbered z9", z[8].ID)
	}
	// The ID sequence continued through the rejected auto-join.
	before := dirStateJSON(t, d)
	lsn, err := d.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// The checkpoint is in the current format, and reopens to the same state.
	snap, err := wal.ReadSnapshot(dir, lsn)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(snap, []byte(`"cluster":`)) || bytes.Contains(snap, []byte(`"problem":`)) {
		t.Fatalf("the new checkpoint is not in the machine's schema: %.200s", snap)
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatalf("reopening in the current format: %v", err)
	}
	defer r.Close()
	if got := dirStateJSON(t, r); got != before {
		t.Fatalf("reopened state diverged:\n got %s\nwant %s", got, before)
	}
	info, err := r.Join("", 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if want := "c000021"; info.ID != want {
		t.Fatalf("next auto ID %q, want %q", info.ID, want)
	}
	// What this build journals is the one vocabulary.
	var tail []string
	if _, err := wal.Replay(dir, lsn, func(_ uint64, payload []byte) error {
		e, err := repair.DecodeEvent(payload)
		if err == nil {
			tail = append(tail, string(e.Op)+" "+e.ID)
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if want := []string{"join c000021"}; !reflect.DeepEqual(tail, want) {
		t.Fatalf("journal after the new checkpoint holds %v, want %v", tail, want)
	}
}
