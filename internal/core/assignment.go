package core

import (
	"fmt"
	"math"
)

// Assignment is a complete solution to the CAP: a target server per zone
// (the initial assignment) and a contact server per client (the refined
// assignment). Client j's target server is ZoneServer[ClientZones[j]].
type Assignment struct {
	// ZoneServer[z] is the server hosting zone z.
	ZoneServer []int
	// ClientContact[j] is the server client j connects to.
	ClientContact []int
}

// NewAssignment returns an assignment with all slots unset (-1).
func NewAssignment(zones, clients int) *Assignment {
	a := &Assignment{
		ZoneServer:    make([]int, zones),
		ClientContact: make([]int, clients),
	}
	for i := range a.ZoneServer {
		a.ZoneServer[i] = -1
	}
	for i := range a.ClientContact {
		a.ClientContact[i] = -1
	}
	return a
}

// Clone deep-copies the assignment.
func (a *Assignment) Clone() *Assignment {
	return &Assignment{
		ZoneServer:    append([]int(nil), a.ZoneServer...),
		ClientContact: append([]int(nil), a.ClientContact...),
	}
}

// Target returns client j's target server under p.
func (a *Assignment) Target(p *Problem, j int) int {
	return a.ZoneServer[p.ClientZones[j]]
}

// ClientDelay returns client j's effective round-trip communication delay
// to its target server: d(c, contact) + d(contact, target), with the second
// term zero when contact == target (Definition 2.1).
func (a *Assignment) ClientDelay(p *Problem, j int) float64 {
	t := a.Target(p, j)
	c := a.ClientContact[j]
	if c == t {
		return p.CSAt(j, t)
	}
	return p.CSAt(j, c) + p.SS[c][t]
}

// HasQoS reports whether client j's effective delay is within the bound.
func (a *Assignment) HasQoS(p *Problem, j int) bool {
	return a.ClientDelay(p, j) <= p.D
}

// ServerLoads returns each server's bandwidth consumption R_{s_i}: the
// target-side requirement of every client in its zones, plus the 2×RT
// forwarding cost of every client whose contact (but not target) it is.
func (a *Assignment) ServerLoads(p *Problem) []float64 {
	return a.addLoads(p, make([]float64, p.NumServers()))
}

// addLoads adds every client's ServerLoads terms onto loads and returns it.
func (a *Assignment) addLoads(p *Problem, loads []float64) []float64 {
	for j, z := range p.ClientZones {
		t := a.ZoneServer[z]
		loads[t] += p.ClientRT[j]
		if c := a.ClientContact[j]; c != t && c >= 0 {
			loads[c] += 2 * p.ClientRT[j]
		}
	}
	return loads
}

// Validate checks that the assignment is complete and structurally valid
// for p: every zone has a server, every client a contact, and all indexes
// are in range. Capacity feasibility is checked separately (CheckCapacity)
// because some policies deliberately allow overload.
func (a *Assignment) Validate(p *Problem) error {
	if len(a.ZoneServer) != p.NumZones {
		return fmt.Errorf("core: assignment covers %d zones, want %d", len(a.ZoneServer), p.NumZones)
	}
	if len(a.ClientContact) != p.NumClients() {
		return fmt.Errorf("core: assignment covers %d clients, want %d", len(a.ClientContact), p.NumClients())
	}
	m := p.NumServers()
	for z, s := range a.ZoneServer {
		if s < 0 || s >= m {
			return fmt.Errorf("core: zone %d assigned to invalid server %d", z, s)
		}
	}
	for j, s := range a.ClientContact {
		if s < 0 || s >= m {
			return fmt.Errorf("core: client %d contact is invalid server %d", j, s)
		}
	}
	return nil
}

// CheckCapacity returns an error naming the first server whose load
// exceeds its capacity by more than tol.
func (a *Assignment) CheckCapacity(p *Problem, tol float64) error {
	loads := a.ServerLoads(p)
	for i, l := range loads {
		if l > p.ServerCaps[i]+tol {
			return fmt.Errorf("core: server %d overloaded: load %.3f > capacity %.3f", i, l, p.ServerCaps[i])
		}
	}
	return nil
}

// Metrics summarises an assignment's quality, mirroring the paper's two
// performance measures plus the delay distribution behind Figure 4.
type Metrics struct {
	// PQoS is the fraction of clients whose effective delay is within the
	// bound (the paper's pQoS).
	PQoS float64
	// Utilization is total server load over total capacity (the paper's R).
	Utilization float64
	// WithQoS is the absolute count of clients with QoS.
	WithQoS int
	// Delays holds every client's effective delay, unsorted (ms).
	Delays []float64
	// MaxLoadRatio is max_i load_i / cap_i; > 1 indicates a capacity
	// violation (possible only under permissive overflow policies).
	MaxLoadRatio float64
}

// Evaluate computes quality metrics of the assignment under problem truth.
// Pass the same problem the algorithm saw for perfect-information results,
// or a ground-truth problem (same shape, true delays) when the algorithm
// optimised against estimates.
func Evaluate(truth *Problem, a *Assignment) Metrics {
	m := Metrics{Delays: make([]float64, truth.NumClients())}
	new(Workspace).EvaluateInto(truth, a, &m)
	return m
}

// setRatios derives PQoS from WithQoS, and Utilization and MaxLoadRatio
// from the per-server loads — the one summation order every Metrics
// producer shares, so their floats are bit-equal.
func (m *Metrics) setRatios(truth *Problem, loads []float64) {
	m.PQoS, m.Utilization, m.MaxLoadRatio = 0, 0, 0
	if k := truth.NumClients(); k > 0 {
		m.PQoS = float64(m.WithQoS) / float64(k)
	}
	var used, capTotal float64
	for i, l := range loads {
		used += l
		capTotal += truth.ServerCaps[i]
		if r := l / truth.ServerCaps[i]; r > m.MaxLoadRatio {
			m.MaxLoadRatio = r
		}
	}
	if capTotal > 0 {
		m.Utilization = used / capTotal
	}
}

// TotalCost returns the CAP objective actually reported by the paper: the
// number of clients with QoS (to be maximised). Provided for solver
// cross-checks.
func TotalCost(p *Problem, a *Assignment) int {
	n := 0
	for j := 0; j < p.NumClients(); j++ {
		if a.HasQoS(p, j) {
			n++
		}
	}
	return n
}

// IAPCost returns the initial-assignment objective C^I(x) of Definition
// 2.2: summed over zones, the number of clients without QoS to their target
// server (contact choice ignored).
func IAPCost(p *Problem, zoneServer []int) int {
	cost := 0
	for j, z := range p.ClientZones {
		if p.CSAt(j, zoneServer[z]) > p.D {
			cost++
		}
	}
	return cost
}

// RAPCost returns the refined-assignment objective C^R(x) of Definition
// 2.3: summed over clients, how far their effective delay exceeds the bound
// (zero when within the bound).
func RAPCost(p *Problem, a *Assignment) float64 {
	var cost float64
	for j := range p.ClientZones {
		if d := a.ClientDelay(p, j); d > p.D {
			cost += d - p.D
		}
	}
	return cost
}

// TrafficCut returns the cross-server cut weight of the problem's
// interaction graph under a's zone hosting: the summed weight of adjacency
// edges whose endpoint zones are hosted apart. 0 without a graph.
// Canonical summation order (interact.Graph.CutWeight), so it is a pure
// function of (graph, hosting) — the oracle the evaluator's incremental
// accumulator is tested against.
func TrafficCut(p *Problem, a *Assignment) float64 {
	if p.Adjacency == nil {
		return 0
	}
	return p.Adjacency.CutWeight(a.ZoneServer)
}

// almostLE reports a <= b within a relative-absolute tolerance; used by
// capacity checks throughout the greedy algorithms so float accumulation
// never spuriously rejects a fitting item.
func almostLE(a, b float64) bool {
	return a <= b+1e-9*math.Max(1, math.Abs(b))
}

// almostEq reports a == b within the same relative-absolute tolerance as
// almostLE. Every float equality/tie decision in the algorithms goes
// through this helper so that values derived by different summation orders
// (incremental deltas vs full re-summation) compare consistently.
func almostEq(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}
