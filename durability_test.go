package dvecap

// The kill/recover proof suite of the journaled assignment machine
// (repair.Machine and its journal, DESIGN.md §11), driven through BOTH
// front ends — the public ClusterSession and internal/director's Director —
// by one harness: each front end contributes an adapter (how to open,
// recover, churn and fingerprint it) and every proof below runs unchanged
// against either. The suite lives in this package because the session's
// machine is unexported; the director exposes the two seams the harness
// needs (SetCrashHook, DurableState).

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"dvecap/internal/core"
	"dvecap/internal/director"
	"dvecap/internal/repair"
	"dvecap/internal/topology"
	"dvecap/internal/wal"
	"dvecap/internal/xrand"
	"dvecap/telemetry"
)

// durTestCluster builds the fixed fleet the durability tests churn: four
// servers, six zones, twenty seed clients with deterministic measured
// rows. Two calls with the same seed build identical clusters.
func durTestCluster(t *testing.T, seed uint64) *Cluster {
	t.Helper()
	rng := xrand.New(seed)
	c := NewCluster(250)
	caps := []float64{60, 80, 100, 70}
	for i, cap := range caps {
		if err := c.AddServer(fmt.Sprintf("s%d", i), ServerSpec{CapacityMbps: cap}); err != nil {
			t.Fatal(err)
		}
	}
	ss := make([][]float64, len(caps))
	for i := range ss {
		ss[i] = make([]float64, len(caps))
	}
	for i := range ss {
		for l := i + 1; l < len(ss); l++ {
			d := rng.Uniform(10, 60)
			ss[i][l], ss[l][i] = d, d
		}
	}
	if err := c.SetServerRTTs(ss); err != nil {
		t.Fatal(err)
	}
	for z := 0; z < 6; z++ {
		if err := c.AddZone(fmt.Sprintf("z%d", z)); err != nil {
			t.Fatal(err)
		}
	}
	for j := 0; j < 20; j++ {
		err := c.AddClient(fmt.Sprintf("c%02d", j), ClientSpec{
			Zone:          fmt.Sprintf("z%d", rng.IntN(6)),
			BandwidthMbps: rng.Uniform(0.2, 0.8),
			RTTRow:        durRow(rng, len(caps)),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func durRow(rng *xrand.RNG, m int) []float64 {
	row := make([]float64, m)
	for i := range row {
		row[i] = rng.Uniform(10, 280)
	}
	return row
}

func durSeedIDs() []string {
	ids := make([]string, 20)
	for j := range ids {
		ids[j] = fmt.Sprintf("c%02d", j)
	}
	return ids
}

// sessChurn drives a deterministic mixed workload through the PUBLIC
// session surface — joins (single and batch), leaves, moves, delay
// refreshes in both forms, bandwidth updates, zone growth, explicit
// re-solves and drain/uncordon cycles. Two drivers with equal RNG state
// and live lists issue the same event sequence; the durability tests
// compare a crashed-and-recovered session against an uninterrupted one
// driven identically.
type sessChurn struct {
	rng      *xrand.RNG
	live     []string
	next     int
	nextZone int
}

func newSessChurn(rng *xrand.RNG) *sessChurn {
	return &sessChurn{rng: rng, live: durSeedIDs(), next: 0}
}

func (d *sessChurn) freshID() string {
	id := fmt.Sprintf("n%04d", d.next)
	d.next++
	return id
}

func (d *sessChurn) run(t *testing.T, s *ClusterSession, events int) {
	t.Helper()
	for e := 0; e < events; e++ {
		m := s.NumServers()
		zids := s.ZoneIDs()
		r := d.rng.Float64()
		switch {
		case len(d.live) == 0 || r < 0.20:
			id := d.freshID()
			err := s.Join(id, ClientSpec{
				Zone:          zids[d.rng.IntN(len(zids))],
				BandwidthMbps: d.rng.Uniform(0.1, 0.6),
				RTTRow:        durRow(d.rng, m),
			})
			if err != nil {
				t.Fatalf("event %d join: %v", e, err)
			}
			d.live = append(d.live, id)
		case r < 0.28:
			cnt := d.rng.IntRange(2, 4)
			joins := make([]ClientJoin, cnt)
			for x := range joins {
				joins[x] = ClientJoin{ID: d.freshID(), Spec: ClientSpec{
					Zone:          zids[d.rng.IntN(len(zids))],
					BandwidthMbps: d.rng.Uniform(0.1, 0.6),
					RTTRow:        durRow(d.rng, m),
				}}
				d.live = append(d.live, joins[x].ID)
			}
			if err := s.JoinBatch(joins); err != nil {
				t.Fatalf("event %d join batch: %v", e, err)
			}
		case r < 0.42:
			x := d.rng.IntN(len(d.live))
			if err := s.Leave(d.live[x]); err != nil {
				t.Fatalf("event %d leave: %v", e, err)
			}
			d.live = append(d.live[:x], d.live[x+1:]...)
		case r < 0.48 && len(d.live) >= 4:
			cnt := d.rng.IntRange(2, 4)
			picks := d.rng.SampleWithout(len(d.live), cnt)
			ids := make([]string, cnt)
			gone := make(map[string]bool, cnt)
			for x, i := range picks {
				ids[x] = d.live[i]
				gone[ids[x]] = true
			}
			if err := s.LeaveBatch(ids); err != nil {
				t.Fatalf("event %d leave batch: %v", e, err)
			}
			kept := d.live[:0]
			for _, id := range d.live {
				if !gone[id] {
					kept = append(kept, id)
				}
			}
			d.live = kept
		case r < 0.60:
			id := d.live[d.rng.IntN(len(d.live))]
			if err := s.Move(id, zids[d.rng.IntN(len(zids))]); err != nil {
				t.Fatalf("event %d move: %v", e, err)
			}
		case r < 0.66 && len(d.live) >= 4:
			cnt := d.rng.IntRange(2, 4)
			picks := d.rng.SampleWithout(len(d.live), cnt)
			ids := make([]string, cnt)
			zones := make([]string, cnt)
			for x, i := range picks {
				ids[x] = d.live[i]
				zones[x] = zids[d.rng.IntN(len(zids))]
			}
			if err := s.MoveBatch(ids, zones); err != nil {
				t.Fatalf("event %d move batch: %v", e, err)
			}
		case r < 0.76:
			id := d.live[d.rng.IntN(len(d.live))]
			if err := s.UpdateDelayRow(id, durRow(d.rng, m)); err != nil {
				t.Fatalf("event %d delay row: %v", e, err)
			}
		case r < 0.82:
			// Partial map-form refresh: two servers re-probed.
			id := d.live[d.rng.IntN(len(d.live))]
			sids := s.ServerIDs()
			picks := d.rng.SampleWithout(m, 2)
			rtts := map[string]float64{
				sids[picks[0]]: d.rng.Uniform(10, 280),
				sids[picks[1]]: d.rng.Uniform(10, 280),
			}
			if err := s.UpdateDelays(id, rtts); err != nil {
				t.Fatalf("event %d delays: %v", e, err)
			}
		case r < 0.86:
			id := d.live[d.rng.IntN(len(d.live))]
			if err := s.SetBandwidth(id, d.rng.Uniform(0.1, 0.6)); err != nil {
				t.Fatalf("event %d bandwidth: %v", e, err)
			}
		case r < 0.90:
			if err := s.SetZoneBandwidth(zids[d.rng.IntN(len(zids))], d.rng.Uniform(0.1, 0.5)); err != nil {
				t.Fatalf("event %d zone bandwidth: %v", e, err)
			}
		case r < 0.93:
			id := fmt.Sprintf("zx%03d", d.nextZone)
			d.nextZone++
			var spec ZoneSpec
			if d.rng.Float64() < 0.5 {
				// Only pin hosts that can accept a zone; a draining draw
				// falls back to auto-placement, keeping the RNG stream
				// aligned across drivers.
				if st := s.Servers()[d.rng.IntN(m)]; !st.Draining {
					spec.Host = st.ID
				}
			}
			if err := s.AddZone(id, spec); err != nil {
				t.Fatalf("event %d add zone: %v", e, err)
			}
		case r < 0.96:
			if err := s.Resolve(); err != nil {
				t.Fatalf("event %d resolve: %v", e, err)
			}
		default:
			sts := s.Servers()
			i := d.rng.IntN(len(sts))
			if sts[i].Draining {
				if err := s.UncordonServer(sts[i].ID); err != nil {
					t.Fatalf("event %d uncordon: %v", e, err)
				}
			} else {
				avail := 0
				for _, st := range sts {
					if !st.Draining {
						avail++
					}
				}
				if avail > 1 {
					if err := s.DrainServer(sts[i].ID); err != nil {
						t.Fatalf("event %d drain: %v", e, err)
					}
				}
			}
		}
	}
}

// sessionStateJSON renders everything decision-relevant about a session —
// the planner sidecar (assignment, evaluator accumulators, guard
// counters, RNG position), the ID-visible topology, every client's delay
// row, the coordinate provider's internals (coordinates, override lists;
// the exact store's group table is not compared — recovery rebuilds it from
// rows, and no read depends on it) and every client's visible assignment —
// for equality checks.
func sessionStateJSON(t *testing.T, s *ClusterSession) string {
	t.Helper()
	st, err := s.planner().ExportState()
	if err != nil {
		t.Fatal(err)
	}
	p := s.planner().Problem()
	var prov interface{}
	if cp, coord := p.Delays.(*core.CoordProvider); coord {
		prov = cp.State()
	}
	ids := s.ClientIDs()
	clients := make([]ClusterClient, len(ids))
	for x, id := range ids {
		if clients[x], err = s.Client(id); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := json.Marshal(struct {
		State    interface{}     `json:"state"`
		Servers  []string        `json:"servers"`
		Zones    []string        `json:"zones"`
		Delays   [][]float64     `json:"delays"`
		Provider interface{}     `json:"provider,omitempty"`
		Clients  []ClusterClient `json:"clients"`
	}{st, s.binding.ServerNames(), s.binding.ZoneNames(), p.DenseRows(), prov, clients})
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

func requireSameSession(t *testing.T, want, got *ClusterSession) {
	t.Helper()
	if a, b := sessionStateJSON(t, want), sessionStateJSON(t, got); a != b {
		t.Fatalf("sessions diverged:\n%s\nvs\n%s", a, b)
	}
}

// reopenDurable recovers the session stored in dir. The cluster value it
// is called on is deliberately empty: recovery must take everything from
// the snapshot and log, ignoring the caller's builder.
func reopenDurable(t *testing.T, dir, algo string, workers int) *ClusterSession {
	t.Helper()
	// Recovery runs fully instrumented (metrics + trace sink): DESIGN.md §12
	// promises telemetry is observation-only, so the bit-identical
	// comparisons double as that proof for the recovery path.
	s, err := NewCluster(1).Open(algo, WithDurability(dir), WithWorkers(workers), WithSnapshotEvery(17),
		WithTelemetry(telemetry.NewRegistry()), WithTraceLog(io.Discard))
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	auditSession(t, s)
	return s
}

// auditSession fails t with the first divergence the session's machine
// audit (repair.Machine.Audit) finds.
func auditSession(t *testing.T, s *ClusterSession) {
	t.Helper()
	if err := s.m.Audit(); err != nil {
		t.Fatal(err)
	}
}

// proofRun says how a machine under proof is opened.
type proofRun struct {
	// dir is the data directory; "" opens the in-memory control, bare of
	// instrumentation, where durable machines run with telemetry attached —
	// so every equality below also proves observation perturbs nothing.
	dir       string
	workers   int
	snapEvery int
	churnSeed uint64
	// golden pins the churn script to the cases it had when the on-disk
	// format hashes were recorded at the commit before the single engine.
	golden bool
}

// durableMachine is one journaled state machine under proof, together with
// its position in a deterministic churn script: two machines opened from
// equal proofRuns issue the same event sequence.
type durableMachine interface {
	// run drives the next events of the script.
	run(t *testing.T, events int)
	// state renders everything decision-relevant, byte-comparable.
	state(t *testing.T) string
	// clientIDs returns every client listing the surface offers; all are in
	// the one client order, dense order.
	clientIDs(t *testing.T) [][]string
	// victim is one more journaled mutation — the crash target.
	victim() error
	// resolve is the journaled full re-solve, outside the script.
	resolve() error
	// fenced asserts that mutations of every kind fail with want.
	fenced(t *testing.T, want error)
	// numeric lists the mutations that carry a measured quantity, each
	// parameterised by it.
	numeric() map[string]func(v float64) error
	setCrashHook(hook func(point string) error)
	// checkpoint returns the LSN the written snapshot covers.
	checkpoint() (uint64, error)
	close() error
}

// durableSurface adapts one surface to the harness.
type durableSurface struct {
	open func(t *testing.T, r proofRun) durableMachine
	// recover reopens r.dir under a caller-side deployment that disagrees
	// with the stored one (which must win); the recovered machine takes
	// over from's script position — the process died, the workload did not.
	recover func(t *testing.T, r proofRun, from durableMachine) durableMachine
	// errClosed is the surface's sentinel for a mutation after Close.
	errClosed error
	// rejects lists reopen attempts recovery must refuse, with a word the
	// refusal must contain.
	rejects func(dir string) []reopenAttempt
	// golden holds the SHA-256 of the baseline snapshot, the concatenated
	// journal payloads and the final checkpoint of proveGoldenFormat's run.
	golden [3]string
}

type reopenAttempt struct {
	open func() error
	want string
}

func requireSameState(t *testing.T, when string, want, got durableMachine) {
	t.Helper()
	if a, b := want.state(t), got.state(t); a != b {
		t.Fatalf("%s: diverged from the uninterrupted control:\n%s\nvs\n%s", when, a, b)
	}
}

// crashAt returns a hook that fails with boom at the named injection point.
func crashAt(point string, boom error) func(string) error {
	return func(p string) error {
		if p == point {
			return boom
		}
		return nil
	}
}

// dirBytes sums the sizes of dir's files — any write to the log or a
// snapshot changes it.
func dirBytes(t *testing.T, dir string) (n int64) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		n += info.Size()
	}
	return n
}

// dirFiles reads every file of a flat data directory, by name.
func dirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, e := range ents {
		if out[e.Name()], err = os.ReadFile(dir + "/" + e.Name()); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// proveKillRecover is the tentpole guarantee: a durable machine killed
// mid-churn-storm (no Close, no final checkpoint — the process just dies,
// its log left open) recovers from its newest snapshot plus log tail to the
// exact state an uninterrupted control reached, and the two then evolve
// BIT-IDENTICALLY through more churn. Auto-checkpoints fire every 17 events,
// so recovery replays only the tail after the newest one. Equality covers
// the full planner sidecar — assignment, evaluator accumulators
// (order-dependent floats), guard counters, RNG position — provider
// internals, the director's ID sequence and every client's visible
// assignment.
func proveKillRecover(t *testing.T, sf durableSurface, workers int) {
	const churnSeed, killAt, total = 401, 60, 90
	control := sf.open(t, proofRun{workers: workers, churnSeed: churnSeed})
	run := proofRun{dir: t.TempDir(), workers: workers, snapEvery: 17, churnSeed: churnSeed}
	durable := sf.open(t, run)
	control.run(t, killAt)
	durable.run(t, killAt)
	recovered := sf.recover(t, run, durable)
	requireSameState(t, "at the kill point", control, recovered)
	control.run(t, total-killAt)
	recovered.run(t, total-killAt)
	requireSameState(t, "after post-recovery churn", control, recovered)
}

// proveClientOrder: there is one client order, the planner's dense order —
// every listing of a surface shows it, leaves renumber it, and a machine
// killed mid-churn lists its clients after recovery exactly as it did before
// the kill.
func proveClientOrder(t *testing.T, sf durableSurface) {
	run := proofRun{dir: t.TempDir(), workers: 1, snapEvery: 17, churnSeed: 401}
	durable := sf.open(t, run)
	durable.run(t, 60)
	before := durable.clientIDs(t)
	after := sf.recover(t, run, durable).clientIDs(t)
	for x, list := range append(before, after...) {
		if !reflect.DeepEqual(list, before[0]) {
			t.Fatalf("listing %d of %d before + %d after recovery is in another order:\n%v\nvs\n%v", x, len(before), len(after), list, before[0])
		}
	}
}

// proveKillRecoverAcrossResolve: a full re-solve is adopted onto warm
// candidate-delta rows on the live machine, while a recovered one meets it
// with whatever its snapshot barrier left — every row cold when the re-solve
// is replayed from the log tail, rows rebuilt since the barrier when a second
// checkpoint followed it. Which rows a machine holds must not show: killed
// after a Resolve that fell between two checkpoints (and before the second
// one), it recovers to the uninterrupted control's exact state — evaluator
// accumulators and handoff counters included — and then hands off the same
// zones at the same events.
func proveKillRecoverAcrossResolve(t *testing.T, sf durableSurface) {
	for _, second := range []bool{false, true} {
		t.Run(fmt.Sprintf("checkpoint after the resolve=%v", second), func(t *testing.T) {
			const churnSeed = 977
			control := sf.open(t, proofRun{workers: 1, churnSeed: churnSeed})
			run := proofRun{dir: t.TempDir(), workers: 1, churnSeed: churnSeed}
			durable := sf.open(t, run)
			both := func(f func(m durableMachine)) { f(control); f(durable) }
			checkpoint := func() {
				if _, err := durable.checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
			resolve := func(m durableMachine) {
				if err := m.resolve(); err != nil {
					t.Fatal(err)
				}
			}
			both(func(m durableMachine) { m.run(t, 30) })
			checkpoint()
			both(func(m durableMachine) { m.run(t, 12) }) // warms rows past the barrier
			both(resolve)
			both(func(m durableMachine) { m.run(t, 8) }) // events on the adopted rows
			if second {
				checkpoint()
				both(func(m durableMachine) { m.run(t, 6) })
			}
			recovered := sf.recover(t, run, durable)
			requireSameState(t, "at the kill point", control, recovered)
			for leg := 0; leg < 8; leg++ {
				control.run(t, 5)
				recovered.run(t, 5)
				requireSameState(t, fmt.Sprintf("%d events after recovery", 5*(leg+1)), control, recovered)
			}
			// And a re-solve on the recovered machine adopts like the control's.
			resolve(control)
			resolve(recovered)
			control.run(t, 10)
			recovered.run(t, 10)
			requireSameState(t, "after a post-recovery re-solve", control, recovered)
		})
	}
}

func proveKillRecoverWorkers(t *testing.T, sf durableSurface) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) { proveKillRecover(t, sf, workers) })
	}
}

// proveTornTail crashes INSIDE an append — half a frame reaches the disk,
// the event is never acknowledged. Until the restart the machine is
// fail-stopped: every further mutation and checkpoint returns the original
// fault wrapped in repair.ErrJournalFailed WITHOUT touching the directory
// (a record landing after the tear would be acknowledged, then dropped with
// the torn tail), while reads keep serving the last acked state. Recovery
// truncates the tear and resumes at exactly that state, then tracks the
// control bit-identically under fresh churn.
func proveTornTail(t *testing.T, sf durableSurface) {
	const churnSeed, killAt = 733, 40
	control := sf.open(t, proofRun{churnSeed: churnSeed})
	run := proofRun{dir: t.TempDir(), churnSeed: churnSeed}
	durable := sf.open(t, run)
	control.run(t, killAt)
	durable.run(t, killAt)

	boom := errors.New("power cut")
	durable.setCrashHook(crashAt("append:torn", boom))
	if err := durable.victim(); !errors.Is(err, boom) {
		t.Fatalf("torn append returned %v, want the injected crash", err)
	}
	torn := dirBytes(t, run.dir)
	durable.setCrashHook(nil)
	durable.fenced(t, repair.ErrJournalFailed)
	durable.fenced(t, boom)
	if _, err := durable.checkpoint(); !errors.Is(err, repair.ErrJournalFailed) || !errors.Is(err, boom) {
		t.Fatalf("checkpoint after a failed append returned %v, want the original fault under ErrJournalFailed", err)
	}
	if got := dirBytes(t, run.dir); got != torn {
		t.Fatalf("fail-stopped machine wrote to its directory: %d → %d bytes", torn, got)
	}
	requireSameState(t, "reads on the fail-stopped machine", control, durable)

	recovered := sf.recover(t, run, durable)
	requireSameState(t, "at the torn append", control, recovered)
	control.run(t, 25)
	recovered.run(t, 25)
	requireSameState(t, "after post-recovery churn", control, recovered)
}

// proveCrashPointMatrix kills the machine at every injection point the WAL
// and snapshot writers expose and proves two invariants at each: recovery
// never fails (and never panics), and no ACKNOWLEDGED event is lost — the
// recovered state equals the control at the last acked event, or (for a
// crash after the record was fully written but before the sync was
// acknowledged) at the following one. Crashes during checkpointing must
// lose nothing at all: the log still holds every event.
func proveCrashPointMatrix(t *testing.T, sf durableSurface) {
	const churnSeed, crashAfter = 555, 25
	for _, point := range []string{
		"append:start", "append:torn", "append:unsynced",
		"snapshot:temp", "snapshot:renamed",
	} {
		t.Run(strings.ReplaceAll(point, ":", "_"), func(t *testing.T) {
			control := sf.open(t, proofRun{churnSeed: churnSeed})
			run := proofRun{dir: t.TempDir(), churnSeed: churnSeed}
			durable := sf.open(t, run)
			control.run(t, crashAfter)
			durable.run(t, crashAfter)

			boom := fmt.Errorf("crash at %s", point)
			durable.setCrashHook(crashAt(point, boom))
			candidates := []string{control.state(t)}
			if strings.HasPrefix(point, "append:") {
				// Crash while journaling the victim. It was never acked;
				// recovery may land on either side of it only when the record
				// was fully written (unsynced).
				if err := durable.victim(); !errors.Is(err, boom) {
					t.Fatalf("append crash returned %v, want the injection", err)
				}
				if point == "append:unsynced" {
					if err := control.victim(); err != nil {
						t.Fatal(err)
					}
					candidates = append(candidates, control.state(t))
				}
			} else if _, err := durable.checkpoint(); !errors.Is(err, boom) {
				// Crash while checkpointing. Every event is acked and on the
				// log; the interrupted (or just-renamed) snapshot must not
				// cost any of them.
				t.Fatalf("snapshot crash returned %v, want the injection", err)
			}

			got := sf.recover(t, run, durable).state(t)
			for _, want := range candidates {
				if got == want {
					return
				}
			}
			t.Fatalf("recovered state matches no acked prefix at %s:\n%s", point, got)
		})
	}
}

// proveCheckpointCloseReopen covers the planned-downtime path: Checkpoint
// pins a snapshot at the log head and prunes old generations; Close
// checkpoints and fences further events and checkpoints with the surface's
// closed sentinel; a reopen recovers the exact state with nothing to
// replay. Read paths stay usable after Close.
func proveCheckpointCloseReopen(t *testing.T, sf durableSurface) {
	run := proofRun{dir: t.TempDir(), churnSeed: 97}
	m := sf.open(t, run)
	m.run(t, 30)
	if n, ok := m.(interface{ noops(*testing.T) }); ok {
		n.noops(t)
	}
	lsn, err := m.checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	lsns, err := wal.SnapshotLSNs(run.dir)
	if err != nil {
		t.Fatal(err)
	}
	if lsn == 0 || len(lsns) == 0 || len(lsns) > 2 || lsns[len(lsns)-1] != lsn {
		t.Fatalf("checkpoint at LSN %d left snapshot generations %v, want 1–2 ending at it", lsn, lsns)
	}

	want := m.state(t)
	if err := m.close(); err != nil {
		t.Fatal(err)
	}
	if err := m.close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	m.fenced(t, sf.errClosed)
	if _, err := m.checkpoint(); !errors.Is(err, sf.errClosed) {
		t.Fatalf("checkpoint after Close returned %v, want %v", err, sf.errClosed)
	}
	if got := m.state(t); got != want {
		t.Fatal("read path changed after Close")
	}

	recovered := sf.recover(t, run, m)
	if got := recovered.state(t); got != want {
		t.Fatalf("reopen after Close diverged:\n%s\nvs\n%s", got, want)
	}
	// And the recovered machine is live: it accepts events.
	if err := recovered.victim(); err != nil {
		t.Fatal(err)
	}
}

// proveRejectsMismatch: stored state names its trajectory-shaping
// fingerprint; reopening under a different one must fail loudly rather
// than continue a trajectory the caller did not ask for. The right
// fingerprint recovers — and brings the stored deployment, not the
// caller's (sf.recover always passes a disagreeing one).
func proveRejectsMismatch(t *testing.T, sf durableSurface) {
	run := proofRun{dir: t.TempDir(), churnSeed: 53}
	m := sf.open(t, run)
	m.run(t, 5)
	want := m.state(t)
	if err := m.close(); err != nil {
		t.Fatal(err)
	}
	for _, attempt := range sf.rejects(run.dir) {
		if err := attempt.open(); err == nil || !strings.Contains(err.Error(), attempt.want) {
			t.Fatalf("%s mismatch accepted: %v", attempt.want, err)
		}
	}
	if got := sf.recover(t, run, m).state(t); got != want {
		t.Fatalf("recovery under a foreign caller deployment diverged:\n%s\nvs\n%s", got, want)
	}
}

// proveRejectsNonFinite: NaN and ±Inf in any measured quantity are refused
// by one validator (repair.FiniteNonNeg / FinitePos) before anything is
// journaled or reaches the evaluator — on the durable machine the directory
// does not change, on both the state does not.
func proveRejectsNonFinite(t *testing.T, sf durableSurface) {
	for _, run := range []proofRun{{churnSeed: 11}, {dir: t.TempDir(), churnSeed: 11}} {
		m := sf.open(t, run)
		m.run(t, 10)
		want := m.state(t)
		var size int64
		if run.dir != "" {
			size = dirBytes(t, run.dir)
		}
		for name, mutate := range m.numeric() {
			for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
				if err := mutate(v); err == nil {
					t.Errorf("%s accepted %v (durable=%t)", name, v, run.dir != "")
				}
			}
		}
		if got := m.state(t); got != want {
			t.Errorf("rejected non-finite inputs changed the state (durable=%t)", run.dir != "")
		}
		if run.dir != "" && dirBytes(t, run.dir) != size {
			t.Error("rejected non-finite inputs were journaled")
		}
	}
}

// proveGoldenFormat enforces "byte-identical on disk": for a fixed 60-event
// script the baseline snapshot, the journal records and the final
// checkpoint hash to recorded constants. The journal records' are the
// session's from the commit before the two surfaces were moved onto one
// durability engine (unchanged since, through the move onto one machine)
// and the director's from the commit that gave it the machine's format;
// the snapshots' are version 4's, and the version-2 and version-3 bytes
// they replace are pinned on committed files by TestV2SnapshotsRecover and
// TestV3SnapshotsRecover.
func proveGoldenFormat(t *testing.T, sf durableSurface) {
	run := proofRun{dir: t.TempDir(), workers: 1, churnSeed: 2024, golden: true}
	m := sf.open(t, run)
	baseline, err := wal.ReadSnapshot(run.dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	m.run(t, 60)
	var journal bytes.Buffer
	if _, err := wal.Replay(run.dir, 0, func(_ uint64, payload []byte) error {
		journal.Write(payload)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	lsn, err := m.checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	final, err := wal.ReadSnapshot(run.dir, lsn)
	if err != nil {
		t.Fatal(err)
	}
	for x, part := range []struct {
		name    string
		payload []byte
	}{{"baseline snapshot", baseline}, {"journal records", journal.Bytes()}, {"final checkpoint", final}} {
		if got := fmt.Sprintf("%x", sha256.Sum256(part.payload)); got != sf.golden[x] {
			t.Errorf("%s: sha256 %s, recorded %s", part.name, got, sf.golden[x])
		}
	}
}

// ---- the ClusterSession surface ----

type sessionMachine struct {
	s     *ClusterSession
	churn *sessChurn
}

// sessionSurface adapts ClusterSession under the given delay model: the
// durTestCluster fleet with both drift guards armed.
func sessionSurface(model DelayModel) durableSurface {
	return durableSurface{
		open: func(t *testing.T, r proofRun) durableMachine {
			opts := []Option{
				WithWorkers(r.workers), WithSeed(7), WithDelayProvider(model),
				WithDriftGuard(0.03), WithImbalanceGuard(0.2),
			}
			if r.dir != "" {
				opts = append(opts, WithDurability(r.dir), WithSnapshotEvery(r.snapEvery),
					WithTelemetry(telemetry.NewRegistry()), WithTraceLog(io.Discard))
			}
			s, err := durTestCluster(t, 11).Open("GreZ-GreC", opts...)
			if err != nil {
				t.Fatal(err)
			}
			if _, coord := s.planner().Problem().Delays.(*core.CoordProvider); (model == CoordDelays) != coord {
				t.Fatalf("delay model %v: coordinate provider bound = %t", model, coord)
			}
			return &sessionMachine{s: s, churn: newSessChurn(xrand.New(r.churnSeed))}
		},
		recover: func(t *testing.T, r proofRun, from durableMachine) durableMachine {
			return &sessionMachine{s: reopenDurable(t, r.dir, "GreZ-GreC", r.workers), churn: from.(*sessionMachine).churn}
		},
		errClosed: ErrSessionClosed,
		rejects: func(dir string) []reopenAttempt {
			return []reopenAttempt{{want: "algorithm", open: func() error {
				_, err := NewCluster(1).Open("RanZ-GreC", WithDurability(dir))
				return err
			}}}
		},
		golden: [3]string{
			"3721dad763d3fdb6567bf41e50ee2cada4554c91ca560c1e4aa1f350cefd5d38",
			"f38a5244ce05c69034044b103b55362f0b7780c2657e24d0b060c8635534da78",
			"41a5b6130ad1e096fb84b265628a8a88b79e422d7fd53f4be642f6de5ef79684",
		},
	}
}

func (m *sessionMachine) run(t *testing.T, events int) { m.churn.run(t, m.s, events) }
func (m *sessionMachine) state(t *testing.T) string    { return sessionStateJSON(t, m.s) }
func (m *sessionMachine) close() error                 { return m.s.Close() }

func (m *sessionMachine) clientIDs(t *testing.T) [][]string {
	t.Helper()
	res, err := m.s.Result()
	if err != nil {
		t.Fatal(err)
	}
	return [][]string{m.s.ClientIDs(), res.ClientIDs}
}

func (m *sessionMachine) setCrashHook(hook func(string) error) { m.s.m.SetCrashHook(hook) }

func (m *sessionMachine) checkpoint() (uint64, error) {
	if err := m.s.Checkpoint(); err != nil {
		return 0, err
	}
	return m.s.m.NextLSN() - 1, nil
}

func (m *sessionMachine) victimSpec(bw, rtt float64) ClientSpec {
	row := durRow(xrand.New(1), m.s.NumServers())
	row[0] = rtt
	return ClientSpec{Zone: "z1", BandwidthMbps: bw, RTTRow: row}
}

func (m *sessionMachine) victim() error { return m.s.Join("victim", m.victimSpec(0.3, 42)) }

func (m *sessionMachine) resolve() error { return m.s.Resolve() }

func (m *sessionMachine) fenced(t *testing.T, want error) {
	t.Helper()
	for name, err := range map[string]error{
		"Join":    m.victim(),
		"AddZone": m.s.AddZone("fenced", ZoneSpec{}),
		"Resolve": m.s.Resolve(),
	} {
		if !errors.Is(err, want) {
			t.Fatalf("%s returned %v, want %v", name, err, want)
		}
	}
}

// noops: refreshes that change nothing must not journal — the log head
// stays put.
func (m *sessionMachine) noops(t *testing.T) {
	head := m.s.m.NextLSN()
	if err := m.s.UpdateDelays(m.churn.live[0], nil); err != nil {
		t.Fatal(err)
	}
	if err := m.s.UpdateServerDelays("s0", nil); err != nil {
		t.Fatal(err)
	}
	if got := m.s.m.NextLSN(); got != head {
		t.Fatalf("empty refreshes advanced the log: %d → %d", head, got)
	}
}

func (m *sessionMachine) numeric() map[string]func(v float64) error {
	s, id := m.s, m.churn.live[0]
	peers := map[string]float64{"s0": 10, "s1": 10, "s2": 10, "s3": 10}
	with := func(base map[string]float64, k string, v float64) map[string]float64 {
		out := map[string]float64{k: v}
		for bk, bv := range base {
			if bk != k {
				out[bk] = bv
			}
		}
		return out
	}
	return map[string]func(v float64) error{
		"Join bandwidth": func(v float64) error { return s.Join("nf", m.victimSpec(v, 42)) },
		"Join RTTRow":    func(v float64) error { return s.Join("nf", m.victimSpec(0.3, v)) },
		"Join RTTs": func(v float64) error {
			return s.Join("nf", ClientSpec{Zone: "z1", BandwidthMbps: 0.3, RTTs: with(peers, "s2", v)})
		},
		"UpdateDelayRow":     func(v float64) error { return s.UpdateDelayRow(id, m.victimSpec(1, v).RTTRow) },
		"UpdateDelays":       func(v float64) error { return s.UpdateDelays(id, map[string]float64{"s1": v}) },
		"UpdateServerDelays": func(v float64) error { return s.UpdateServerDelays("s1", map[string]float64{id: v}) },
		"SetBandwidth":       func(v float64) error { return s.SetBandwidth(id, v) },
		"SetZoneBandwidth":   func(v float64) error { return s.SetZoneBandwidth("z1", v) },
		"AddServer capacity": func(v float64) error { return s.AddServer("nf", ServerSpec{CapacityMbps: v, RTTs: peers}) },
		"AddServer RTTs": func(v float64) error {
			return s.AddServer("nf", ServerSpec{CapacityMbps: 50, RTTs: with(peers, "s3", v)})
		},
		"AddServer ClientRTTs": func(v float64) error {
			return s.AddServer("nf", ServerSpec{CapacityMbps: 50, RTTs: peers, ClientRTTs: map[string]float64{id: v}})
		},
		"SetZoneAdjacency":   func(v float64) error { return s.SetZoneAdjacency("z0", "z1", v) },
		"AddAdjacencyWeight": func(v float64) error { return s.AddAdjacencyWeight("z0", "z1", v) },
		"AddZone adjacency":  func(v float64) error { return s.AddZone("nf", ZoneSpec{Adjacency: map[string]float64{"z0": v}}) },
	}
}

// ---- the Director surface ----

// dirChurn drives a deterministic storm of director events through the
// exported API: joins (auto and explicit IDs), leaves, moves,
// measured-delay refreshes, adjacency edits, reassigns, server
// adds/drains/uncordons/removes and zone adds/retires. Every draw is gated
// only on the RNG and the director's own observable state, so two drivers
// with the same seed applied to bit-identical directors produce
// byte-identical event streams.
type dirChurn struct {
	rng   *xrand.RNG
	nodes int
	live  []string
	next  int
	// autos counts the auto-ID joins issued — each consumes one number of
	// the director's ID sequence, so "c%06d" of autos+1 is the next auto ID.
	// With collide set every burst closes by squatting on that ID with an
	// explicit join and then auto-joining: the auto-join is rejected AFTER
	// consuming its number, it is the last record before whatever kill
	// follows the burst, and a recovery that lost that advance would issue
	// the squatted ID again.
	autos   int
	collide bool
}

func (c *dirChurn) run(t *testing.T, d *director.Director, events int) {
	t.Helper()
	for e := 0; e < events; e++ {
		r := c.rng.Float64()
		switch {
		case r < 0.30 || len(c.live) == 0:
			node := c.rng.IntN(c.nodes)
			zone := c.rng.IntN(d.Stats().Zones)
			id := ""
			if c.rng.Float64() < 0.5 {
				id = fmt.Sprintf("x%04d", c.next)
				c.next++
			} else {
				c.autos++
			}
			info, err := d.Join(id, node, zone)
			if err == nil {
				c.live = append(c.live, info.ID)
			}
		case r < 0.45:
			x := c.rng.IntN(len(c.live))
			if err := d.Leave(c.live[x]); err != nil {
				t.Fatalf("event %d leave %s: %v", e, c.live[x], err)
			}
			c.live[x] = c.live[len(c.live)-1]
			c.live = c.live[:len(c.live)-1]
		case r < 0.60:
			x := c.rng.IntN(len(c.live))
			zone := c.rng.IntN(d.Stats().Zones)
			if _, err := d.Move(c.live[x], zone); err != nil {
				t.Fatalf("event %d move %s: %v", e, c.live[x], err)
			}
		case r < 0.66:
			x := c.rng.IntN(len(c.live))
			row := make([]float64, len(d.Servers()))
			for i := range row {
				row[i] = c.rng.Uniform(10, 280)
			}
			if _, err := d.UpdateDelays(c.live[x], row); err != nil {
				t.Fatalf("event %d delays %s: %v", e, c.live[x], err)
			}
		case r < 0.72:
			// Interaction-graph churn: absolute sets (sometimes removals)
			// and observed-crossing accumulation.
			if z := d.Stats().Zones; z > 1 {
				z1, z2 := c.rng.IntN(z), c.rng.IntN(z)
				w := c.rng.Uniform(0.5, 4)
				switch {
				case z1 == z2:
					// Self-edge draw: skipped (would be rejected pre-journal).
				case c.rng.Float64() < 0.15:
					_, _ = d.SetAdjacency(director.Index(z1), director.Index(z2), 0)
				case c.rng.Float64() < 0.5:
					if _, err := d.SetAdjacency(director.Index(z1), director.Index(z2), w); err != nil {
						t.Fatalf("event %d set adjacency (%d,%d): %v", e, z1, z2, err)
					}
				default:
					if _, err := d.AddAdjacencyWeight(director.Index(z1), director.Index(z2), w); err != nil {
						t.Fatalf("event %d add adjacency (%d,%d): %v", e, z1, z2, err)
					}
				}
			}
		case r < 0.78:
			if _, err := d.Reassign(); err != nil {
				t.Fatalf("event %d reassign: %v", e, err)
			}
		case r < 0.84:
			node := c.rng.IntN(c.nodes)
			cap := c.rng.Uniform(30, 80)
			if _, err := d.AddServer(node, cap); err != nil {
				t.Fatalf("event %d add server: %v", e, err)
			}
		case r < 0.90:
			srv := d.Servers()
			i := c.rng.IntN(len(srv))
			avail := 0
			for _, s := range srv {
				if !s.Draining {
					avail++
				}
			}
			// By stable ID here, by the deprecated index alias elsewhere: both
			// forms of Ref cross the crash boundary.
			if srv[i].Draining {
				_, _ = d.UncordonServer(director.ID(srv[i].ID))
			} else if avail > 1 {
				_, _ = d.DrainServer(director.ID(srv[i].ID))
			}
		case r < 0.93:
			if _, err := d.AddZone(); err != nil {
				t.Fatalf("event %d add zone: %v", e, err)
			}
		case r < 0.96:
			if z := d.Stats().Zones; z > 1 {
				// Usually rejected (zone not empty) — which must replay as
				// rejected too.
				_ = d.RetireZone(director.Index(c.rng.IntN(z)))
			}
		default:
			// Remove the first empty draining server, if any — the tail of a
			// rolling-deploy drain.
			for i, s := range d.Servers() {
				if s.Draining && s.Zones == 0 {
					_ = d.RemoveServer(director.Index(i))
					break
				}
			}
		}
	}
	if c.collide {
		squat := fmt.Sprintf("c%06d", c.autos+1)
		if _, err := d.Join(squat, 0, 0); err != nil {
			t.Fatalf("squat %s: %v", squat, err)
		}
		c.live = append(c.live, squat)
		c.autos++
		if _, err := d.Join("", 0, 0); !errors.Is(err, director.ErrDuplicateClient) {
			t.Fatalf("auto-join onto squatted %s returned %v, want ErrDuplicateClient", squat, err)
		}
	}
}

type directorMachine struct {
	d     *director.Director
	churn *dirChurn
}

// directorSurface adapts the Director: four servers on a 40-node Waxman
// topology, both drift guards and the traffic term armed (adjacency edits
// and the maintained cut must survive the crash boundary bit-identically
// too).
func directorSurface(t *testing.T) durableSurface {
	t.Helper()
	g, err := topology.Waxman(xrand.New(5), topology.DefaultWaxman(40))
	if err != nil {
		t.Fatal(err)
	}
	dm, err := topology.NewDelayMatrix(g, 500, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	config := func(r proofRun) director.Config {
		cfg := director.Config{
			ServerNodes:     []int{0, 10, 20, 30},
			ServerCaps:      []float64{50, 65, 80, 45},
			Zones:           8,
			Delays:          dm,
			DelayBoundMs:    250,
			FrameRate:       25,
			MessageBytes:    100,
			Seed:            1,
			DriftPQoS:       0.05,
			DriftUtilSpread: 0.3,
			TrafficWeight:   0.5,
			Workers:         r.workers,
			DataDir:         r.dir,
			SnapshotEvery:   r.snapEvery,
		}
		if r.dir != "" {
			cfg.Telemetry = telemetry.NewRegistry()
		}
		return cfg
	}
	return durableSurface{
		open: func(t *testing.T, r proofRun) durableMachine {
			d, err := director.New(config(r))
			if err != nil {
				t.Fatal(err)
			}
			return &directorMachine{d: d, churn: &dirChurn{rng: xrand.New(r.churnSeed), nodes: dm.N(), collide: !r.golden}}
		},
		recover: func(t *testing.T, r proofRun, from durableMachine) durableMachine {
			cfg := config(r)
			cfg.ServerNodes, cfg.ServerCaps, cfg.Zones = []int{1}, []float64{5}, 2
			d, err := director.New(cfg)
			if err != nil {
				t.Fatalf("recovery: %v", err)
			}
			return &directorMachine{d: d, churn: from.(*directorMachine).churn}
		},
		errClosed: director.ErrDirectorClosed,
		rejects: func(dir string) []reopenAttempt {
			attempt := func(want string, edit func(*director.Config)) reopenAttempt {
				return reopenAttempt{want: want, open: func() error {
					cfg := config(proofRun{dir: dir})
					edit(&cfg)
					_, err := director.New(cfg)
					return err
				}}
			}
			return []reopenAttempt{
				attempt("algorithm", func(c *director.Config) { c.Algorithm = "RanZ-GreC" }),
				attempt("fingerprint", func(c *director.Config) { c.DelayBoundMs = 300 }),
			}
		},
		// The journal pin was recorded when the director moved onto the one
		// machine: its WRITE format is the machine's snapshot and vocabulary
		// from here on. What it wrote before is refused by name
		// (TestDirectorRefusesOldDataDir, internal/director).
		golden: [3]string{
			"129b8ec0502ea7b072ee8cf95e9dddee1ea889a23571cbae2df246399b35e10d",
			"aba80eca5642174f7399513034143882e5c951b8a4135ff960d53f498559030a",
			"68f32c5e7ab90c5a41446f1e0fc11d9b1f97802e4e20fe2ded3c22709c55c19e",
		},
	}
}

func (m *directorMachine) run(t *testing.T, events int) { m.churn.run(t, m.d, events) }
func (m *directorMachine) close() error                 { return m.d.Close() }
func (m *directorMachine) checkpoint() (uint64, error)  { return m.d.Checkpoint() }

func (m *directorMachine) setCrashHook(hook func(string) error) { m.d.SetCrashHook(hook) }

// state is the director's checkpoint payload (the machine's snapshot: cluster
// spec in dense order, planner sidecar, provider state, and the director
// extra — ID sequence, server and client nodes) plus everything its read API
// shows, clients IN LISTING ORDER: Snapshot's order is a function of the
// journaled history, so it too must cross the crash boundary.
func (m *directorMachine) state(t *testing.T) string {
	t.Helper()
	payload, err := m.d.DurableState()
	if err != nil {
		t.Fatal(err)
	}
	visible, err := json.Marshal([]interface{}{m.d.Snapshot(), m.d.Servers(), m.d.Zones(), m.d.Adjacency(), m.d.Stats()})
	if err != nil {
		t.Fatal(err)
	}
	return string(payload) + "\n" + string(visible)
}

func (m *directorMachine) clientIDs(*testing.T) [][]string {
	var ids []string
	for _, c := range m.d.Snapshot() {
		ids = append(ids, c.ID)
	}
	return [][]string{ids}
}

func (m *directorMachine) victim() error {
	_, err := m.d.Join("victim", 7, 2)
	return err
}

func (m *directorMachine) resolve() error {
	_, err := m.d.Reassign()
	return err
}

func (m *directorMachine) fenced(t *testing.T, want error) {
	t.Helper()
	_, auto := m.d.Join("", 3, 0)
	_, zone := m.d.AddZone()
	_, reassign := m.d.Reassign()
	for name, err := range map[string]error{"Join": m.victim(), "auto Join": auto, "AddZone": zone, "Reassign": reassign} {
		if !errors.Is(err, want) {
			t.Fatalf("%s returned %v, want %v", name, err, want)
		}
	}
}

func (m *directorMachine) numeric() map[string]func(v float64) error {
	d, id := m.d, m.churn.live[0]
	return map[string]func(v float64) error{
		"UpdateDelays": func(v float64) error {
			row := make([]float64, len(d.Servers()))
			row[len(row)-1] = v
			_, err := d.UpdateDelays(id, row)
			return err
		},
		"AddServer":      func(v float64) error { _, err := d.AddServer(5, v); return err },
		"AddSpareServer": func(v float64) error { _, err := d.AddSpareServer(5, v); return err },
		"SetAdjacency":   func(v float64) error { _, err := d.SetAdjacency(director.ID("z0"), director.ID("z1"), v); return err },
		"AddAdjacencyWeight": func(v float64) error {
			_, err := d.AddAdjacencyWeight(director.Index(0), director.Index(1), v)
			return err
		},
	}
}

// ---- the suite: every proof, through both surfaces ----

func TestDurableKillRecoverBitIdentical(t *testing.T) {
	proveKillRecoverWorkers(t, sessionSurface(DenseDelays))
}
func TestDirectorKillRecoverBitIdentical(t *testing.T) {
	proveKillRecoverWorkers(t, directorSurface(t))
}

func TestDurableKillRecoverAcrossResolve(t *testing.T) {
	proveKillRecoverAcrossResolve(t, sessionSurface(CoordDelays))
}
func TestDirectorKillRecoverAcrossResolve(t *testing.T) {
	proveKillRecoverAcrossResolve(t, directorSurface(t))
}

// The provider dimension: under the coordinate delay model the provider's
// INTERNAL state (coordinates, override maps), not just the delays it
// reports, must cross the crash boundary, so every post-recovery mutation
// stays on the uncrashed trajectory. The exact store's legs are the dense
// ones above: its snapshots carry rows, and recovery rebuilds the store. A
// director always starts on the exact store; one that recovers a data
// directory stored under the coordinate model is proved in
// internal/director (TestStoredCoordDirectorKeepsWorking).
func TestDurableKillRecoverBitIdenticalProviders(t *testing.T) {
	t.Run("coord", func(t *testing.T) { proveKillRecover(t, sessionSurface(CoordDelays), 0) })
}

func TestClientIDsOrderSurvivesRecovery(t *testing.T) {
	t.Run("session", func(t *testing.T) { proveClientOrder(t, sessionSurface(DenseDelays)) })
	t.Run("director", func(t *testing.T) { proveClientOrder(t, directorSurface(t)) })
}

func TestDurableTornTailRecovery(t *testing.T)  { proveTornTail(t, sessionSurface(DenseDelays)) }
func TestDirectorTornTailRecovery(t *testing.T) { proveTornTail(t, directorSurface(t)) }

func TestDurableCrashPointMatrix(t *testing.T) { proveCrashPointMatrix(t, sessionSurface(DenseDelays)) }
func TestDirectorCrashPointMatrix(t *testing.T) {
	proveCrashPointMatrix(t, directorSurface(t))
}

func TestDurableCheckpointCloseReopen(t *testing.T) {
	proveCheckpointCloseReopen(t, sessionSurface(DenseDelays))
}
func TestDirectorCheckpointCloseReopen(t *testing.T) {
	proveCheckpointCloseReopen(t, directorSurface(t))
}

func TestDurableOpenRejectsMismatch(t *testing.T) {
	proveRejectsMismatch(t, sessionSurface(DenseDelays))
}
func TestDirectorRecoverRejectsMismatch(t *testing.T) {
	proveRejectsMismatch(t, directorSurface(t))
}

func TestDurableRejectsNonFinite(t *testing.T) { proveRejectsNonFinite(t, sessionSurface(DenseDelays)) }
func TestDirectorRejectsNonFinite(t *testing.T) {
	proveRejectsNonFinite(t, directorSurface(t))
}

// The session's coordinate leg pins the provider state a snapshot carries —
// client coordinates fitted at join time included — beside the dense legs'
// recorded constants.
func TestDurableGoldenFormat(t *testing.T) {
	t.Run("dense", func(t *testing.T) { proveGoldenFormat(t, sessionSurface(DenseDelays)) })
	t.Run("coord", func(t *testing.T) {
		sf := sessionSurface(CoordDelays)
		sf.golden = [3]string{
			"5a19cb4f463c6d2168cfacb29eff9a26846bc3edfdd9f91197dd131224ebe59d",
			"f38a5244ce05c69034044b103b55362f0b7780c2657e24d0b060c8635534da78",
			"07d052b000e24aa6b85a937f1b582c8650cf425ce88b1adbe689bbb7bb1ba01d",
		}
		proveGoldenFormat(t, sf)
	})
}
func TestDirectorGoldenFormat(t *testing.T) {
	t.Run("dense", func(t *testing.T) { proveGoldenFormat(t, directorSurface(t)) })
}

// TestDurableOpenFailureReturnsNoSession: a durable Open whose baseline
// snapshot cannot be written returns the error and no session, not one
// whose machine is neither durable nor in memory.
func TestDurableOpenFailureReturnsNoSession(t *testing.T) {
	dir := t.TempDir()
	// A directory where the snapshot writer's temporary file goes.
	if err := os.Mkdir(dir+"/snap-0000000000000000.json.tmp", 0o755); err != nil {
		t.Fatal(err)
	}
	s, err := durTestCluster(t, 5).Open("GreZ-GreC", WithDurability(dir))
	if err == nil || s != nil {
		t.Fatalf("Open = %v, %v; want no session and the write error", s, err)
	}
}

// TestDurableSessionRefusesBeforeJournaling: a durable session refuses a
// call that names an unknown client, server or zone, adds an ID that
// exists, or carries a delay row of the wrong length BEFORE journaling it —
// NextLSN and every byte of the data directory stay put — and returns the
// sentinel the apply returns for it (nil: no sentinel, just an error).
func TestDurableSessionRefusesBeforeJournaling(t *testing.T) {
	dir := t.TempDir()
	s, err := durTestCluster(t, 5).Open("GreZ-GreC", WithDurability(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	peers := map[string]float64{"s0": 10, "s1": 10, "s2": 10, "s3": 10}
	spec := ClientSpec{Zone: "z1", BandwidthMbps: 0.3, RTTRow: []float64{20, 30, 40, 50}}
	refused := []struct {
		name string
		call func() error
		want error
	}{
		{"Leave", func() error { return s.Leave("ghost") }, ErrUnknownClient},
		{"Move", func() error { return s.Move("ghost", "z0") }, ErrUnknownClient},
		{"SetBandwidth", func() error { return s.SetBandwidth("ghost", 2) }, ErrUnknownClient},
		{"LeaveBatch", func() error { return s.LeaveBatch([]string{"ghost"}) }, ErrUnknownClient},
		{"LeaveBatch repeat", func() error { return s.LeaveBatch([]string{"c00", "c00"}) }, ErrDuplicateClient},
		{"MoveBatch", func() error { return s.MoveBatch([]string{"c00", "ghost"}, []string{"z0", "z1"}) }, ErrUnknownClient},
		{"UpdateDelayRow", func() error { return s.UpdateDelayRow("c00", []float64{5}) }, nil},
		{"UpdateServerDelays", func() error { return s.UpdateServerDelays("s0", map[string]float64{"ghost": 5}) }, ErrUnknownClient},
		{"RemoveServer", func() error { return s.RemoveServer("nope") }, ErrUnknownServer},
		{"DrainServer", func() error { return s.DrainServer("nope") }, ErrUnknownServer},
		{"UncordonServer", func() error { return s.UncordonServer("nope") }, ErrUnknownServer},
		{"RetireZone", func() error { return s.RetireZone("nope") }, ErrUnknownZone},
		{"AddServer", func() error { return s.AddServer("s0", ServerSpec{CapacityMbps: 50, RTTs: peers}) }, repair.ErrDuplicateServer},
		{"AddZone", func() error { return s.AddZone("z0", ZoneSpec{}) }, repair.ErrDuplicateZone},
		{"AddZone host", func() error { return s.AddZone("zn", ZoneSpec{Host: "nope"}) }, ErrUnknownServer},
		{"Join", func() error { return s.Join("c00", spec) }, ErrDuplicateClient},
		{"JoinBatch", func() error {
			return s.JoinBatch([]ClientJoin{{ID: "n0", Spec: spec}, {ID: "n0", Spec: spec}})
		}, ErrDuplicateClient},
	}
	lsn, before := s.m.NextLSN(), dirFiles(t, dir)
	for _, r := range refused {
		t.Run(r.name, func(t *testing.T) {
			err := r.call()
			if err == nil || (r.want != nil && !errors.Is(err, r.want)) {
				t.Errorf("err = %v, want %v", err, r.want)
			}
			if got := s.m.NextLSN(); got != lsn {
				t.Fatalf("advanced NextLSN %d → %d", lsn, got)
			}
			if !reflect.DeepEqual(dirFiles(t, dir), before) {
				t.Fatal("changed the data directory")
			}
		})
	}
}
