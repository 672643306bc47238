package core

import "sync"

// Workspace holds reusable scratch buffers for the assignment algorithms'
// hot paths: the IAP cost matrix, zone bandwidth totals, per-server load
// accumulators, the greedy phases' two candidates per zone and per late
// client, materialized delay rows and evaluation delay vectors.
// The cost matrix has two sources: a solve without a filled Options.Late
// counts it from every client's delay row (countInitialCosts, the only code
// that builds it from delays); a solve handed a filled one derives it from
// the late bitsets without reading a delay (lateindex.go).
// Pass one through Options.Scratch (or use its EvaluateInto method) to
// make repeated Solve/Evaluate calls — e.g. replication loops, churn
// re-optimisation — allocation-free apart from the returned assignments,
// which are always freshly allocated and safe to retain.
//
// Retained size is O(clients + servers × zones) — the cost matrix is its
// only servers × zones term, no preference list is kept for any item — and
// nothing scales with clients × servers.
//
// The zero value is ready to use. A Workspace is not safe for concurrent
// use; give each goroutine its own.
type Workspace struct {
	ci         [][]int
	ciFlat     []int
	ciPart     []int     // per-worker partial count matrices, workers × m × n
	ciPartRows [][]int   // row headers into ciPart, workers × m
	rows       []float64 // materialized provider rows, one buffer per worker
	zoneRT     []float64
	zoneSize   []int
	loads      []float64
	mu         []float64
	order      []int
	candidates []int
	late       []int
	choices    []regretChoice
	unassigned []bool
	evLoads    []float64

	// Counts left by the most recent GreC run (see GreCCounts and
	// GreCLateRowsRead).
	lateClients, rebuilds, lateRowsRead int
	// What fed the most recent cost matrix (see CostMatrixSource).
	ciSource string
}

// NewWorkspace returns an empty workspace. Buffers grow on first use and
// are retained between calls.
func NewWorkspace() *Workspace { return &Workspace{} }

// grow returns s resized to n, reallocating only when capacity is
// insufficient. Contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// initialCostsParallel is InitialCosts writing into the workspace's reusable
// matrix (valid until the next workspace use), with the O(clients × servers)
// count pass sharded across workers: each worker accumulates a private partial
// count matrix over a contiguous client block, and the partials are summed
// into the result. Counts are integers, so the merge is exact and the
// matrix is identical for every worker count. Small instances (or workers
// ≤ 1) take the sequential path — the partial matrices wouldn't pay for
// themselves.
//
// With a late index the delays are not read at all when it is valid for p;
// otherwise this pass fills it on the way (shards own disjoint clients), so
// the caller's next build is the cheap one.
func (w *Workspace) initialCostsParallel(p *Problem, maxWorkers int, late *LateIndex) [][]int {
	m, n := p.NumServers(), p.NumZones
	k := p.NumClients()
	w.ciFlat = grow(w.ciFlat, m*n)
	flat := w.ciFlat
	for i := range flat {
		flat[i] = 0
	}
	if cap(w.ci) < m {
		w.ci = make([][]int, m)
	}
	w.ci = w.ci[:m]
	for i := range w.ci {
		w.ci[i], flat = flat[:n], flat[n:]
	}
	if late.ValidFor(p) {
		w.ciSource = CostMatrixFromIndex
		late.countInto(p, w.ci)
		return w.ci
	}
	w.ciSource = CostMatrixFromRows
	if late != nil {
		late.bind(p)
	}
	// Never reassigned, so the shard goroutines capture it by value and the
	// sequential path allocates nothing.
	workers := min(maxWorkers, k)
	if workers <= 1 || k*m < 1<<15 {
		w.rows = grow(w.rows, m)
		countInitialCosts(p, w.ci, 0, k, w.rows, late)
		return w.ci
	}
	w.ciPart = grow(w.ciPart, workers*m*n)
	w.ciPartRows = grow(w.ciPartRows, workers*m)
	rowStride := m + 8 // a cache line between neighbouring workers' row buffers
	w.rows = grow(w.rows, workers*rowStride)
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			part := w.ciPart[wk*m*n : (wk+1)*m*n]
			for i := range part {
				part[i] = 0
			}
			// Contiguous client blocks: CS rows stream in order per worker.
			lo, hi := wk*k/workers, (wk+1)*k/workers
			rows := w.ciPartRows[wk*m : (wk+1)*m]
			rest := part
			for i := range rows {
				rows[i], rest = rest[:n], rest[n:]
			}
			countInitialCosts(p, rows, lo, hi, w.rows[wk*rowStride:wk*rowStride+m], late)
		}(wk)
	}
	wg.Wait()
	for wk := 0; wk < workers; wk++ {
		part := w.ciPart[wk*m*n : (wk+1)*m*n]
		for i, v := range part {
			if v != 0 {
				w.ciFlat[i] += v
			}
		}
	}
	return w.ci
}

// countInitialCosts accumulates the IAP cost counts of clients [lo, hi)
// into ci (an m × n matrix). Provider-backed rows are materialized into
// rowBuf (m entries); the parallel shards of initialCostsParallel each pass
// their own. A non-nil late (bound to p) is handed every row while it is at
// hand and keeps its late bits, so the next build needs no row at all.
func countInitialCosts(p *Problem, ci [][]int, lo, hi int, rowBuf []float64, late *LateIndex) {
	for j := lo; j < hi; j++ {
		row := p.CSRow(j, rowBuf)
		addLateRow(ci, p.ClientZones[j], row, p.D)
		if late != nil {
			late.fillRow(j, row, p.D)
		}
	}
}

// addLateRow adds the servers one client's delay row is late at to zone z's
// column of ci. Kept apart from its caller's loop so the index branch there
// costs the one-shot count nothing (measured: 22 → 28 ms on a 100k × 50
// solve with the two fused).
func addLateRow(ci [][]int, z int, row []float64, bound float64) {
	for i, d := range row {
		if isLate(d, bound) {
			ci[i][z]++
		}
	}
}

// zoneRTs is Problem.ZoneRT writing into the workspace's reusable vector.
func (w *Workspace) zoneRTs(p *Problem) []float64 {
	w.zoneRT = grow(w.zoneRT, p.NumZones)
	out := w.zoneRT
	for i := range out {
		out[i] = 0
	}
	for j, z := range p.ClientZones {
		out[z] += p.ClientRT[j]
	}
	return out
}

// zeroLoads returns the workspace's per-server load accumulator, zeroed.
func (w *Workspace) zeroLoads(m int) []float64 {
	w.loads = grow(w.loads, m)
	for i := range w.loads {
		w.loads[i] = 0
	}
	return w.loads
}

// Sources of a cost matrix, as CostMatrixSource reports them.
const (
	CostMatrixFromRows  = "rows"
	CostMatrixFromIndex = "index"
)

// CostMatrixSource reports what fed the most recent cost-matrix build on
// this workspace: CostMatrixFromRows (every client's delay row was read),
// CostMatrixFromIndex (a filled Options.Late; no delay read), or "" when no
// algorithm has built one.
func (w *Workspace) CostMatrixSource() string { return w.ciSource }

// GreCCounts reports what the most recent GreC run on this workspace saw:
// how many clients missed the bound at their target (the paper's list L_E)
// and how many of those both kept candidates refused, so they were placed
// on a third choice: a second read of the delay row and one arg-max over
// the servers that still accepted them — no sort.
func (w *Workspace) GreCCounts() (lateClients, rebuilds int) {
	return w.lateClients, w.rebuilds
}

// GreCLateRowsRead reports how many late clients' delay rows the most
// recent GreC run read to choose their two kept candidates: all of them
// without a filled Options.Late, and with one only those whose remembered
// choice was forgotten (a row written since the last solve, a new late
// client) or made for another target. Third choices read their row again
// and are counted by GreCCounts, not here.
func (w *Workspace) GreCLateRowsRead() int { return w.lateRowsRead }

// EvaluateInto is Evaluate reusing the workspace's load accumulator and
// out's Delays buffer: repeated quality evaluation (simulation sampling,
// replication loops) allocates nothing once the buffers have grown.
// out is fully overwritten.
func (w *Workspace) EvaluateInto(truth *Problem, a *Assignment, out *Metrics) {
	k := truth.NumClients()
	out.Delays = grow(out.Delays, k)
	out.WithQoS = 0
	for j := 0; j < k; j++ {
		d := a.ClientDelay(truth, j)
		out.Delays[j] = d
		if d <= truth.D {
			out.WithQoS++
		}
	}
	w.evLoads = grow(w.evLoads, truth.NumServers())
	loads := w.evLoads
	for i := range loads {
		loads[i] = 0
	}
	for j, z := range truth.ClientZones {
		t := a.ZoneServer[z]
		loads[t] += truth.ClientRT[j]
		if c := a.ClientContact[j]; c != t && c >= 0 {
			loads[c] += 2 * truth.ClientRT[j]
		}
	}
	out.setRatios(truth, loads)
}
