package sim

import (
	"math"
	"testing"

	"dvecap/internal/autoscale"
	"dvecap/internal/core"
	"dvecap/internal/repair"
	"dvecap/internal/xrand"
)

// Trajectory pins: FNV-1a digests over every float's math.Float64bits, so a
// change to how the simulator feeds churn to the planner that moves a single
// placement, sample or counter by one ulp fails here. The constants were
// computed by the simulator whose repair bridge called the planner's
// mutators directly; the event path must reproduce them bit for bit.

type pinHash uint64

func newPinHash() pinHash { return 14695981039346656037 }

func (h *pinHash) int(v int) { *h = (*h ^ pinHash(uint64(v))) * 1099511628211 }

func (h *pinHash) float(v float64) { h.int(int(math.Float64bits(v))) }

func (h *pinHash) str(s string) {
	h.int(len(s))
	for i := 0; i < len(s); i++ {
		h.int(int(s[i]))
	}
}

func (h *pinHash) samples(ss []Sample) {
	h.int(len(ss))
	for _, s := range ss {
		h.float(s.Time)
		h.str(s.Event)
		h.int(s.Clients)
		h.float(s.PQoS)
		h.float(s.Utilization)
	}
}

func (h *pinHash) stats(st repair.Stats) {
	for _, v := range []int{st.Joins, st.Leaves, st.Moves, st.DelayUpdates, st.ServerAdds,
		st.ServerDrains, st.ServerUncordons, st.ServerRemoves, st.ZoneAdds, st.ZoneRetires,
		st.Events, st.FullSolves, st.ZoneHandoffs, st.AdjacencyEdits, st.ContactSwitches, st.ImbalanceSolves} {
		h.int(v)
	}
	for _, v := range []float64{st.BaselinePQoS, st.LastDriftPQoS, st.BaselineUtilSpread, st.LastUtilSpread} {
		h.float(v)
	}
	h.str(st.LastSolveError)
}

func (h *pinHash) decisions(ds []autoscale.Decision) {
	h.int(len(ds))
	for _, d := range ds {
		h.int(d.Tick)
		h.int(int(d.Action))
		h.str(d.Reason)
		h.str(d.Target)
		h.float(d.Utilization)
		h.float(d.PQoS)
	}
}

// TestRepairTrajectoryPinned pins the repair-mode trajectory — every sample,
// the planner's counters and the handoff total — at workers 1 and 4.
func TestRepairTrajectoryPinned(t *testing.T) {
	const want = 0xf62713f7be6960eb
	for _, workers := range []int{1, 4} {
		w := buildSizedWorld(t, 30, 6, 20, 150, 300)
		e := NewEngine()
		opt := coreOpts()
		opt.Workers = workers
		cfg := repairChurn()
		cfg.JoinRate = 1
		cfg.MeanSessionSec = 150
		cfg.MoveRatePerClient = 0.08
		cfg.ReassignEverySec = 30
		cfg.SampleEverySec = 10
		d, err := NewDriver(e, w, core.GreZGreC, opt, cfg, xrand.New(41))
		if err != nil {
			t.Fatal(err)
		}
		d.Start()
		e.Run(600)
		for _, err := range d.Errors() {
			t.Fatalf("workers=%d driver error: %v", workers, err)
		}
		st, _ := d.RepairStats()
		if st.FullSolves < 2 || st.Joins == 0 || st.Leaves == 0 || st.Moves == 0 {
			t.Fatalf("workers=%d: the run does not exercise every event kind and a fallback re-solve: %+v", workers, st)
		}
		h := newPinHash()
		h.samples(d.Samples())
		h.stats(st)
		h.int(d.TotalZoneHandoffs())
		if uint64(h) != want {
			t.Errorf("workers=%d: trajectory digest %#x, pinned %#x", workers, uint64(h), uint64(want))
		}
	}
}

// TestAutoscaleTrajectoryPinned pins both autoscale modes on the acceptance
// trace: samples, server-hours, the decision log with its targets and the
// oracle's verb count.
func TestAutoscaleTrajectoryPinned(t *testing.T) {
	want := map[bool]uint64{false: 0xf943a8dc7bd2cc3, true: 0x75ad6efc6b3d48ef}
	for _, oracle := range []bool{false, true} {
		d := runAutoscale(t, 1, oracle, acceptancePolicy())
		h := newPinHash()
		h.samples(d.Samples())
		h.float(d.ServerHours())
		h.decisions(d.AutoscaleDecisions())
		h.int(d.OracleMoves())
		st, _ := d.RepairStats()
		h.stats(st)
		if uint64(h) != want[oracle] {
			t.Errorf("oracle=%v: trajectory digest %#x, pinned %#x", oracle, uint64(h), want[oracle])
		}
	}
}
