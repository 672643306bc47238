package experiments

import (
	"math"
	"testing"

	"dvecap/internal/dve"
)

// TestTrafficArmPinned pins one arm of the traffic experiment at
// TestTrafficTraceDeterministicAcrossWorkers' configuration: the per-tick
// digest, the zone-handoff count and the bits of the four float results.
// The constants were computed when the arm called the planner's mutators
// directly; the event path through a repair.Machine must reproduce them.
func TestTrafficArmPinned(t *testing.T) {
	setup := smokeSetup().withDefaults()
	opt := TrafficOptions{HorizonSec: 180, Scenario: "8s-16z-200c-200cp"}.withDefaults()
	cfg, err := dve.ParseScenario(dve.DefaultConfig(), opt.Scenario)
	if err != nil {
		t.Fatal(err)
	}
	type pin struct {
		digest                                   uint64
		zoneHandoffs                             int
		crossTraffic, broadcast, crossFrac, pqos uint64
	}
	want := map[float64]pin{
		0: {digest: 0x8810f90b801904b0, zoneHandoffs: 59, crossTraffic: 0x4050d4222222221b,
			broadcast: 0x404ce51111111103, crossFrac: 0x3fddc8f6d3cdf7a9, pqos: 0x3fea05cd7b900ae7},
		2: {digest: 0xc911d6a39e934489, zoneHandoffs: 61, crossTraffic: 0x404fef69d0369c88,
			broadcast: 0x404b890369d03621, crossFrac: 0x3fdb849619042b5d, pqos: 0x3fea121735ee4027},
	}
	for _, lambda := range []float64{0, opt.Weight} {
		arm, err := runTrafficArm(setup, opt, cfg, lambda, 11, 22, 33)
		if err != nil {
			t.Fatal(err)
		}
		got := pin{
			digest:       arm.digest,
			zoneHandoffs: arm.zoneHandoffs,
			crossTraffic: math.Float64bits(arm.crossTrafficMbps),
			broadcast:    math.Float64bits(arm.broadcastMbps),
			crossFrac:    math.Float64bits(arm.crossHandoffFrac),
			pqos:         math.Float64bits(arm.pqos),
		}
		if got != want[lambda] {
			t.Errorf("λ=%g: got %#v, pinned %#v", lambda, got, want[lambda])
		}
	}
}
