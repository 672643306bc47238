// Package core implements the paper's contribution: the client assignment
// problem (CAP) for distributed virtual environments, its two-phase
// decomposition into the initial assignment problem (IAP: zones → servers)
// and the refined assignment problem (RAP: clients → contact servers), the
// four heuristics of Section 3 (RanZ, GreZ, VirC, GreC) and their two-phase
// combinations, plus extensions used for ablations (dynamic-regret greedy,
// local search).
//
// All algorithms operate on a Problem snapshot — delay matrices, per-client
// bandwidth requirements, zone membership and server capacities — and emit
// an Assignment (a target server per zone, a contact server per client).
// Problems may be built from possibly-inaccurate delay estimates; evaluation
// against ground truth is the caller's concern (see Evaluate).
package core

import (
	"fmt"
	"math"

	"dvecap/internal/interact"
)

// Problem is a snapshot of a client assignment instance.
//
// Delay entries are round-trip times in milliseconds. CS may come from a
// measurement estimator rather than ground truth; algorithms treat it as
// the truth they optimise against.
type Problem struct {
	// ServerCaps[i] is the bandwidth capacity of server i, in Mbps.
	ServerCaps []float64
	// ClientZones[j] is the zone of client j.
	ClientZones []int
	// NumZones is the zone count; zones are 0..NumZones-1. Zones may be
	// empty (no clients), but every zone still needs a target server.
	NumZones int
	// ClientRT[j] is client j's bandwidth requirement on its target server
	// (the paper's R^T_{c_j}), in Mbps. Strictly positive.
	ClientRT []float64
	// CS[j][i] is the round-trip delay between client j and server i — the
	// dense representation. When Delays is non-nil, CS is nil; read and
	// mutate either representation through the CS* methods below, which
	// alone know which one is held.
	CS [][]float64
	// Delays, when non-nil, replaces the dense CS matrix with a pluggable
	// delay provider (delayprovider.go) — the memory-diet path for
	// million-client populations. nil keeps the raw CS matrix, the one dense
	// path and the reference ("oracle") representation. Excluded from JSON:
	// providers serialise through their typed State (ProviderState), which
	// callers that marshal whole Problems must carry alongside.
	Delays DelayProvider `json:"-"`
	// SS[i][k] is the round-trip delay between servers i and k, already
	// discounted for the well-provisioned inter-server mesh.
	SS [][]float64
	// D is the DVE delay bound in milliseconds.
	D float64
	// Adjacency, when non-nil, is the weighted zone-interaction graph: for
	// each edge (z1, z2) with weight w the solution pays w of cross-server
	// traffic whenever the zones are hosted apart (DESIGN.md §15). The
	// traffic term is active only when TrafficWeight > 0 AND Adjacency is
	// set; otherwise the solver is bit-identical to a problem without
	// either. Mutating evaluators own the graph exclusively, like CS.
	// Excluded from JSON: the graph serialises through its typed State.
	Adjacency *interact.Graph `json:"-"`
	// TrafficWeight is the λ ≥ 0 scaling the traffic term against the RAP
	// cost in the search objective (both in the second lexicographic
	// level). 0 — the default — disables the term entirely.
	TrafficWeight float64
}

// TrafficOn reports whether the traffic term participates in the
// objective: an adjacency graph is bound and its weight is positive.
func (p *Problem) TrafficOn() bool {
	return p.Adjacency != nil && p.TrafficWeight > 0
}

// NumServers returns the number of servers.
func (p *Problem) NumServers() int { return len(p.ServerCaps) }

// NumClients returns the number of clients.
func (p *Problem) NumClients() int { return len(p.ClientZones) }

// ZoneClients returns, for each zone, the IDs of its clients.
func (p *Problem) ZoneClients() [][]int {
	out := make([][]int, p.NumZones)
	for j, z := range p.ClientZones {
		out[z] = append(out[z], j)
	}
	return out
}

// ZoneRT returns each zone's total target-server bandwidth requirement
// (the paper's R_{z}).
func (p *Problem) ZoneRT() []float64 {
	out := make([]float64, p.NumZones)
	for j, z := range p.ClientZones {
		out[z] += p.ClientRT[j]
	}
	return out
}

// TotalCapacity returns the summed server capacity.
func (p *Problem) TotalCapacity() float64 {
	var t float64
	for _, c := range p.ServerCaps {
		t += c
	}
	return t
}

// Validate checks structural consistency and returns the first violation:
// the shape and scalar checks of validateShape, then every stored
// client-server delay entry — O(clients × servers) on the raw matrix.
// Providers validate their own entries where they take them.
func (p *Problem) Validate() error {
	if err := p.validateShape(); err != nil {
		return err
	}
	for j, row := range p.CS {
		for i, d := range row {
			if d < 0 || math.IsNaN(d) {
				return fmt.Errorf("core: CS[%d][%d] = %v invalid", j, i, d)
			}
		}
	}
	return nil
}

// finitePos reports whether v is a finite number > 0 (NaN fails every
// comparison, so v <= 0 alone would admit it).
func finitePos(v float64) bool { return v > 0 && !math.IsInf(v, 1) }

// validateShape is Validate without the delay entries: dimensions, scalars,
// per-client zone and bandwidth, the inter-server matrix —
// O(clients + servers² + zones). All a solve needs to index safely; enough
// on its own only for a problem whose every delay entry was checked where
// it was written (TwoPhase.SolveOwned).
func (p *Problem) validateShape() error {
	m, k := p.NumServers(), p.NumClients()
	if m == 0 {
		return fmt.Errorf("core: problem has no servers")
	}
	if p.NumZones <= 0 {
		return fmt.Errorf("core: problem has %d zones, want > 0", p.NumZones)
	}
	if !finitePos(p.D) {
		return fmt.Errorf("core: delay bound %v, want finite > 0", p.D)
	}
	for i, c := range p.ServerCaps {
		if c <= 0 || math.IsNaN(c) {
			return fmt.Errorf("core: server %d capacity %v, want > 0", i, c)
		}
	}
	if len(p.ClientRT) != k {
		return fmt.Errorf("core: %d clients but %d RT entries", k, len(p.ClientRT))
	}
	if p.Delays != nil {
		if p.CS != nil {
			return fmt.Errorf("core: problem has both a dense CS matrix and a delay provider")
		}
		if kc := p.Delays.NumClients(); kc != k {
			return fmt.Errorf("core: %d clients but delay provider holds %d", k, kc)
		}
		if mc := p.Delays.NumServers(); mc != m {
			return fmt.Errorf("core: %d servers but delay provider holds %d", m, mc)
		}
	} else if len(p.CS) != k {
		return fmt.Errorf("core: %d clients but %d CS rows", k, len(p.CS))
	}
	for j := 0; j < k; j++ {
		if z := p.ClientZones[j]; z < 0 || z >= p.NumZones {
			return fmt.Errorf("core: client %d in zone %d, want [0,%d)", j, z, p.NumZones)
		}
		if p.ClientRT[j] <= 0 || math.IsNaN(p.ClientRT[j]) {
			return fmt.Errorf("core: client %d RT %v, want > 0", j, p.ClientRT[j])
		}
		if p.Delays == nil && len(p.CS[j]) != m {
			return fmt.Errorf("core: CS row %d has %d entries, want %d", j, len(p.CS[j]), m)
		}
	}
	if p.Adjacency != nil && p.Adjacency.NumZones() != p.NumZones {
		return fmt.Errorf("core: adjacency graph covers %d zones, problem has %d", p.Adjacency.NumZones(), p.NumZones)
	}
	if p.TrafficWeight < 0 || math.IsNaN(p.TrafficWeight) {
		return fmt.Errorf("core: traffic weight %v, want ≥ 0", p.TrafficWeight)
	}
	if len(p.SS) != m {
		return fmt.Errorf("core: %d servers but %d SS rows", m, len(p.SS))
	}
	for i := 0; i < m; i++ {
		if len(p.SS[i]) != m {
			return fmt.Errorf("core: SS row %d has %d entries, want %d", i, len(p.SS[i]), m)
		}
		if p.SS[i][i] != 0 {
			return fmt.Errorf("core: SS diagonal [%d] = %v, want 0", i, p.SS[i][i])
		}
		for kk, d := range p.SS[i] {
			if d < 0 || math.IsNaN(d) {
				return fmt.Errorf("core: SS[%d][%d] = %v invalid", i, kk, d)
			}
		}
	}
	return nil
}

// Clone returns a deep copy of the problem.
func (p *Problem) Clone() *Problem { return p.ClonePadded(0) }

// ClonePadded is Clone with each CS row given spare capacity for `slack`
// extra servers. The rows are carved from one contiguous arena, so dimension
// mutations (AppendCSCol appends a delay to every row) write a fixed-stride
// streaming pattern instead of chasing per-row allocations — the difference
// between memory bandwidth and a cache miss per client at 100k clients. Rows
// whose growth outruns the slack fall back to ordinary per-row appends;
// correctness never depends on the layout. Provider-backed problems have no
// rows to pad: the provider is Clone()d instead.
func (p *Problem) ClonePadded(slack int) *Problem {
	q := &Problem{
		ServerCaps:  append([]float64(nil), p.ServerCaps...),
		ClientZones: append([]int(nil), p.ClientZones...),
		NumZones:    p.NumZones,
		ClientRT:    append([]float64(nil), p.ClientRT...),
		SS:          make([][]float64, len(p.SS)),
		D:           p.D,

		Adjacency:     p.Adjacency.Clone(),
		TrafficWeight: p.TrafficWeight,
	}
	for i := range p.SS {
		q.SS[i] = append([]float64(nil), p.SS[i]...)
	}
	if p.Delays != nil {
		// CS stays nil (Validate rejects a problem carrying both
		// representations).
		q.Delays = p.Delays.Clone()
		return q
	}
	if slack < 0 {
		slack = 0
	}
	m := p.NumServers()
	stride := m + slack
	q.CS = make([][]float64, len(p.CS))
	arena := make([]float64, len(p.CS)*stride)
	for j, row := range p.CS {
		dst := arena[j*stride : j*stride+m : (j+1)*stride]
		copy(dst, row)
		q.CS[j] = dst
	}
	return q
}

// Delay storage has exactly one owner: the accessors and mutations below are
// the only code that knows whether the delays live in raw CS rows or behind
// the Delays provider (DESIGN.md §13). Every algorithm and evaluator path
// reads through CSAt/CSRow and mutates through the Append/SwapRemove/Set
// family, so dense and provider-backed problems run the identical
// arithmetic. The mutations touch the delay store only — the per-client and
// per-server slices beside it (ClientZones, ServerCaps, …) are the caller's
// to keep in step — and follow the DelayProvider contract on either
// representation: inputs are copied, a NaN entry means "unmeasured" (raw
// rows store UnmeasuredDelayMs, providers apply their own default), and
// removals renumber the last client/server into the vacated index.

// CSAt returns the client↔server delay CS[j][i].
func (p *Problem) CSAt(j, i int) float64 {
	if p.Delays != nil {
		return p.Delays.ClientServer(j, i)
	}
	return p.CS[j][i]
}

// CSRow returns client j's full delay row. Dense problems (and providers
// backed by real rows) return an internal slice without copying; otherwise
// the row is materialized into buf, which must have NumServers entries.
// Treat the result as read-only, valid only until the next mutation; for
// concurrent readers give each its own buf.
func (p *Problem) CSRow(j int, buf []float64) []float64 {
	if p.Delays != nil {
		return p.Delays.Row(j, buf)
	}
	return p.CS[j]
}

// CopyCSRow copies client j's delay row into dst (len NumServers).
// CSRow may hand back an internal row instead of filling its buffer, so the
// result is copied either way.
func (p *Problem) CopyCSRow(j int, dst []float64) { copy(dst, p.CSRow(j, dst)) }

// DenseRows returns the full client×server delay matrix, one row per client
// in dense order — the interchange and snapshot form. Dense problems return
// their own rows without copying (read-only, valid until the next
// mutation); provider-backed problems materialize every row into one fresh
// arena, which preserves the observable delays but not the provider's
// compressed representation.
func (p *Problem) DenseRows() [][]float64 {
	if p.Delays == nil {
		return p.CS
	}
	k, m := p.NumClients(), p.NumServers()
	rows := make([][]float64, k)
	arena := make([]float64, k*m)
	for j := range rows {
		rows[j] = arena[j*m : (j+1)*m : (j+1)*m]
		p.CopyCSRow(j, rows[j])
	}
	return rows
}

// AppendCSRow adds a delay row for a new last client.
func (p *Problem) AppendCSRow(row []float64) {
	if p.Delays != nil {
		p.Delays.AppendClient(row)
		return
	}
	// Reuse a spare row left behind by SwapRemoveCSRow when one has capacity.
	j := len(p.CS)
	if cap(p.CS) > j && cap(p.CS[:j+1][j]) >= len(row) {
		p.CS = p.CS[:j+1]
		p.CS[j] = p.CS[j][:len(row)]
	} else {
		p.CS = append(p.CS, make([]float64, len(row)))
	}
	p.SetCSRow(j, row)
}

// SwapRemoveCSRow removes client j's delay row, renumbering the last
// client's row to j.
func (p *Problem) SwapRemoveCSRow(j int) {
	if p.Delays != nil {
		p.Delays.SwapRemoveClient(j)
		return
	}
	// Swapped rather than overwritten so the vacated row's capacity is
	// retained for the next AppendCSRow.
	l := len(p.CS) - 1
	p.CS[j], p.CS[l] = p.CS[l], p.CS[j]
	p.CS = p.CS[:l]
}

// AppendCSCol adds a delay column for a new last server: col[j] is client
// j's delay to it, a nil col marks every client unmeasured.
func (p *Problem) AppendCSCol(col []float64) {
	if p.Delays != nil {
		p.Delays.AppendServer(col)
		return
	}
	for j := range p.CS {
		d := UnmeasuredDelayMs
		if col != nil {
			d = resolveUnmeasured(col[j])
		}
		p.CS[j] = append(p.CS[j], d)
	}
}

// SwapRemoveCSCol removes server i's delay column, renumbering the last
// server's column to i.
func (p *Problem) SwapRemoveCSCol(i int) {
	if p.Delays != nil {
		p.Delays.SwapRemoveServer(i)
		return
	}
	for j, row := range p.CS {
		l := len(row) - 1
		row[i] = row[l]
		p.CS[j] = row[:l]
	}
}

// SetCSRow replaces client j's entire delay row.
func (p *Problem) SetCSRow(j int, row []float64) {
	if p.Delays != nil {
		p.Delays.SetClientDelays(j, row)
		return
	}
	for i, d := range row {
		p.CS[j][i] = resolveUnmeasured(d)
	}
}

// SetCSAt overlays one delay entry: client j to server i.
func (p *Problem) SetCSAt(j, i int, d float64) {
	if p.Delays != nil {
		p.Delays.SetClientServerDelay(j, i, d)
		return
	}
	p.CS[j][i] = resolveUnmeasured(d)
}

// WithDelaysOwned returns a copy of the problem whose CS and SS matrices
// are cs and ss — used to evaluate an assignment computed from estimated
// delays against the ground truth. The returned problem aliases cs and ss
// directly, so the caller must not mutate them afterwards. Any bound delay
// provider is dropped: the explicit matrices win.
func (p *Problem) WithDelaysOwned(cs, ss [][]float64) *Problem {
	q := *p
	q.CS = cs
	q.SS = ss
	q.Delays = nil
	return &q
}
