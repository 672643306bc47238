package autoscale

import "testing"

// loads is a Fleet of servers with fixed loads; a negative load marks a
// drained server.
type loads []float64

func (l loads) NumClients() int                   { return 7 }
func (l loads) NumServers() int                   { return len(l) }
func (l loads) Draining(i int) bool               { return l[i] < 0 }
func (l loads) ServerLoad(i int) float64          { return max(l[i], 0) }
func (l loads) Utilization() float64              { return 0.6 }
func (l loads) PQoS() float64                     { return 0.9 }
func (l loads) Drift() (pqos, utilSpread float64) { return 0.01, 0.2 }

func TestObserveCountsDrainedServersAsSpares(t *testing.T) {
	got := Observe(loads{3, -1, 2, -1, 5})
	want := Observation{Clients: 7, Utilization: 0.6, UtilSpread: 0.2, PQoS: 0.9, DriftPQoS: 0.01, ActiveServers: 3, SpareServers: 2}
	if got != want {
		t.Fatalf("Observe = %+v, want %+v", got, want)
	}
}

// TestTargetIsTheScalingChoice: a scale-up admits the lowest-index drained
// server, a scale-down drains the least-loaded active one, ties to the lowest
// index; an empty side is an error.
func TestTargetIsTheScalingChoice(t *testing.T) {
	for _, c := range []struct {
		fleet loads
		up    bool
		want  int
	}{
		{loads{3, -1, 2, -1, 5}, true, 1},
		{loads{3, -1, 2, -1, 5}, false, 2},
		{loads{4, 2, -1, 2, 9}, false, 1},
		{loads{0, -1}, false, 0},
	} {
		got, err := Target(c.fleet, c.up)
		if err != nil || got != c.want {
			t.Errorf("Target(%v, up=%v) = %d, %v; want %d", c.fleet, c.up, got, err, c.want)
		}
	}
	if _, err := Target(loads{1, 2}, true); err == nil {
		t.Error("scale-up with no drained server picked a target")
	}
	if _, err := Target(loads{-1, -1}, false); err == nil {
		t.Error("scale-down with no active server picked a target")
	}
}
