package core

import "fmt"

// EvaluatorState is the sidecar an exact snapshot of a live Evaluator
// needs beyond (Problem, Assignment). Rebuilding an evaluator from scratch
// (Reset) recomputes every derived quantity, but four of them are floating-
// point accumulators maintained incrementally across the whole event
// history — per-server loads, the total load, per-zone RT sums and the RAP
// cost — so a fresh dense-order summation can differ from the live values
// in the last bits, and those bits feed tie-breaks in later repair
// decisions. Zone membership order is history-dependent too (buckets grow
// by append and shrink by swap-remove) and decision-relevant: repair scans
// iterate buckets applying greedy contact re-placement, whose intermediate
// load states depend on visit order. Capturing both verbatim is what makes
// snapshot + replay recovery bit-identical rather than merely close
// (DESIGN.md §11). Per-client delays and the integer QoS count are pure
// functions of (Problem, Assignment) and are recomputed exactly.
type EvaluatorState struct {
	// ZoneMembers[z] lists zone z's client indices in the evaluator's
	// live bucket order.
	ZoneMembers [][]int `json:"zone_members"`
	// Loads, ZoneRT, TotalLoad and RAPCost are the incrementally
	// maintained float accumulators, captured verbatim.
	Loads     []float64 `json:"server_loads"`
	ZoneRT    []float64 `json:"zone_rt"`
	TotalLoad float64   `json:"total_load"`
	RAPCost   float64   `json:"rap_cost"`
	// Cordoned marks drained servers (evaluator_topo.go).
	Cordoned []bool `json:"cordoned,omitempty"`
	// TrafficCut is the incrementally maintained cross-server cut weight
	// of the traffic term (evaluator_traffic.go), captured verbatim for
	// the same reason as RAPCost. Absent (0) on pre-traffic snapshots,
	// which never carry an adjacency graph.
	TrafficCut float64 `json:"traffic_cut,omitempty"`
}

// ExportState deep-copies the evaluator's history-dependent state. It is
// also a cache barrier: every candidate-delta row is invalidated, as
// RestoreState does on the other side, so this evaluator and one restored
// from the exported state apply the same adjustments — an Adopt's included
// — to the same freshly built rows from here on: their caches stay
// bit-identical by construction, not merely within the tie tolerance.
func (ev *Evaluator) ExportState() *EvaluatorState {
	ev.tele.invalidations.Add(ev.cache.invalidateAll())
	st := &EvaluatorState{
		ZoneMembers: make([][]int, len(ev.zoneMembers)),
		Loads:       append([]float64(nil), ev.loads...),
		ZoneRT:      append([]float64(nil), ev.zoneRT...),
		TotalLoad:   ev.totalLoad,
		RAPCost:     ev.rapCost,
		Cordoned:    append([]bool(nil), ev.cordoned...),
		TrafficCut:  ev.trafficCut,
	}
	for z, members := range ev.zoneMembers {
		st.ZoneMembers[z] = append([]int(nil), members...)
	}
	return st
}

// RestoreState overlays a captured EvaluatorState onto an evaluator
// freshly built from the same (Problem, Assignment) pair: bucket order and
// the float accumulators are installed verbatim, posInZone is rebuilt to
// match, cordons are re-applied and the candidate-delta cache is
// invalidated, mirroring ExportState's barrier. The state is validated
// against the problem's zone membership before anything is overwritten.
func (ev *Evaluator) RestoreState(st *EvaluatorState) error {
	p := ev.p
	m, n, k := p.NumServers(), p.NumZones, p.NumClients()
	if len(st.ZoneMembers) != n {
		return fmt.Errorf("core: state has %d zone buckets, problem has %d zones", len(st.ZoneMembers), n)
	}
	if len(st.Loads) != m {
		return fmt.Errorf("core: state has %d server loads, problem has %d servers", len(st.Loads), m)
	}
	if len(st.ZoneRT) != n {
		return fmt.Errorf("core: state has %d zone RT sums, problem has %d zones", len(st.ZoneRT), n)
	}
	if st.Cordoned != nil && len(st.Cordoned) != m {
		return fmt.Errorf("core: state has %d cordon flags, problem has %d servers", len(st.Cordoned), m)
	}
	seen := make([]bool, k)
	total := 0
	for z, members := range st.ZoneMembers {
		for _, j := range members {
			if j < 0 || j >= k {
				return fmt.Errorf("core: zone %d bucket holds client %d outside [0,%d)", z, j, k)
			}
			if seen[j] {
				return fmt.Errorf("core: client %d appears in two zone buckets", j)
			}
			if p.ClientZones[j] != z {
				return fmt.Errorf("core: client %d bucketed in zone %d but assigned zone %d", j, z, p.ClientZones[j])
			}
			seen[j] = true
			total++
		}
	}
	if total != k {
		return fmt.Errorf("core: zone buckets cover %d of %d clients", total, k)
	}
	for z, members := range st.ZoneMembers {
		ev.zoneMembers[z] = append(ev.zoneMembers[z][:0], members...)
		for pos, j := range members {
			ev.posInZone[j] = pos
		}
	}
	copy(ev.loads, st.Loads)
	copy(ev.zoneRT, st.ZoneRT)
	ev.totalLoad = st.TotalLoad
	ev.rapCost = st.RAPCost
	if ev.trafficOn {
		ev.trafficCut = st.TrafficCut
	}
	if st.Cordoned != nil {
		copy(ev.cordoned, st.Cordoned)
	}
	ev.tele.invalidations.Add(ev.cache.invalidateAll())
	if ev.late != nil {
		// Rebuilt by the next solve, never restored (the index is not part of
		// any snapshot).
		ev.late.drop()
	}
	return nil
}
