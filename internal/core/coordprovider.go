package core

import (
	"maps"
	"math"
	"slices"
)

// CoordProvider is the memory-diet DelayProvider: Vivaldi-style network
// coordinates plus a per-client sparse override list for the measured
// candidate servers. A client costs dim floats of coordinates plus ~12
// bytes per measured server instead of a full m-entry row — at 1M clients
// × 100 servers with a handful of measured candidates each, tens of
// megabytes instead of ~800 MB.
//
// Reads: ClientServer(j, i) returns the measured override when one exists
// for (j, i) and the Euclidean coordinate distance otherwise. Overrides
// are exact — a client whose override list covers every server reads
// bit-identically to the exact store, which is how the oracle equivalence
// suite pins this provider to it.
//
// Writes keep the diet only when they are sparse: the generic row-oriented
// hooks (AppendClient, SetClientDelays) store an override for every
// non-NaN entry they are handed, so sessions that join clients with full
// measured rows erode back toward dense storage client by client. The
// native sparse joins (AddClientAt, AddClientOwned) are the
// million-client path.
//
// Deferred fits: a client that joins through AppendClient with a full row
// (no NaN entry) reads nothing but its overrides, so its coordinate is not
// fitted at the join. The client is recorded in unfit and its coordinate
// stays zero until something could observe it or change what the fit
// reads — a delay write to that client, a server added or removed, or
// State. It is fitted then, from the server coordinates, override list and
// seed the join would have used, so every coordinate comes out
// bit-identical to an eager fit.
//
// Determinism: every fit and every prediction is a fixed-order float
// computation with no randomness and no time dependence, so replaying the
// same mutation stream (durable-session recovery) reproduces coordinates
// and overrides bit-identically.
type CoordProvider struct {
	dim int
	srv []float64 // server coordinates, m × dim flat
	cli []float64 // client coordinates, k × dim flat

	// Sorted sparse overrides: ovSrv[j] lists the measured server indices
	// of client j in ascending order, ovVal[j] the measured delays.
	ovSrv [][]int32
	ovVal [][]float64

	// unfit maps each fully measured client whose coordinate is not
	// fitted yet to its fit seed, the index it joined at.
	unfit map[int32]uint32
}

// unfitEntryBytes estimates one unfit entry's share of the map: key,
// value and the per-slot overhead at the map's load factor.
const unfitEntryBytes = 12

// DefaultCoordDim is the coordinate dimensionality used when the caller
// does not choose one: high enough that realistic RTT spaces embed with
// low error, low enough that a coordinate stays cheap next to a dense row.
const DefaultCoordDim = 5

// coordFitIters is the relaxation pass count for fitting a single new
// point against its measured anchors.
const coordFitIters = 16

// coordFitSample caps how many measured anchors a single fit consults —
// fits stay O(1) in the population size.
const coordFitSample = 256

// NewCoordProvider returns an empty coordinate provider with the given
// dimensionality (DefaultCoordDim when dim <= 0, clamped to 16) and no
// servers.
func NewCoordProvider(dim int) *CoordProvider {
	if dim <= 0 {
		dim = DefaultCoordDim
	}
	if dim > 16 {
		dim = 16
	}
	return &CoordProvider{dim: dim}
}

// NewCoordProviderFromSS returns a coordinate provider whose server
// coordinates are embedded from the inter-server delay matrix ss by
// deterministic spring relaxation — the natural seeding when the
// deployment already measures its server mesh (the King/pathmetrics
// estimators produce exactly such a matrix). No clients yet.
func NewCoordProviderFromSS(ss [][]float64, dim int) *CoordProvider {
	cp := NewCoordProvider(dim)
	cp.srv = EmbedCoordinates(ss, cp.dim, 48)
	return cp
}

// Dim returns the coordinate dimensionality.
func (cp *CoordProvider) Dim() int { return cp.dim }

// ServerCoord returns server i's coordinate (read-only view).
func (cp *CoordProvider) ServerCoord(i int) []float64 {
	return cp.srv[i*cp.dim : (i+1)*cp.dim]
}

// AddClientAt is the native sparse join: the client arrives with a
// coordinate (len Dim; fitted client-side or by the session's estimator)
// and measured delays to a candidate subset of servers (srvs ascending or
// not — they are sorted; vals aligned with srvs, NaN entries skipped; a
// server listed twice keeps the later value). Everything is copied.
// Returns the new client's index.
func (cp *CoordProvider) AddClientAt(coord []float64, srvs []int32, vals []float64) int {
	c := make([]float64, cp.dim)
	copy(c, coord)
	var os []int32
	var ov []float64
	for x, s := range srvs {
		if vals[x] == vals[x] { // not NaN: measured
			os, ov = append(os, s), append(ov, vals[x])
		}
	}
	return cp.AddClientOwned(c, os, ov)
}

// AddClientOwned is AddClientAt keeping srvs and vals (no NaN; hand them
// over capped at their length): it sorts them in place, and later writes
// may rewrite them in place. A nil coord is fitted from the lists, at once
// when they miss a server, on first need when they cover every server.
func (cp *CoordProvider) AddClientOwned(coord []float64, srvs []int32, vals []float64) int {
	j := len(cp.ovSrv)
	srvs, vals = sortOverrides(srvs, vals)
	cp.ovSrv, cp.ovVal = append(cp.ovSrv, srvs), append(cp.ovVal, vals)
	cp.cli = append(cp.cli, make([]float64, cp.dim)...)
	switch {
	case coord != nil:
		copy(cp.cli[j*cp.dim:], coord)
	case len(srvs) < cp.NumServers():
		cp.fitAt(j, uint64(j))
	default:
		if cp.unfit == nil {
			cp.unfit = make(map[int32]uint32)
		}
		cp.unfit[int32(j)] = uint32(j)
	}
	return j
}

// Reserve makes room for k more clients, so that many adds append in place.
func (cp *CoordProvider) Reserve(k int) {
	cp.cli = slices.Grow(cp.cli, k*cp.dim)
	cp.ovSrv, cp.ovVal = slices.Grow(cp.ovSrv, k), slices.Grow(cp.ovVal, k)
}

// ShareCoords replaces the client coordinates with cli, holding the same
// values, so a caller keeping them too keeps one copy. Fits and removals
// write them in place: share them only with a provider cloned before that.
func (cp *CoordProvider) ShareCoords(cli []float64) { cp.cli = cli }

// NumClients implements DelayProvider.
func (cp *CoordProvider) NumClients() int { return len(cp.ovSrv) }

// NumServers implements DelayProvider.
func (cp *CoordProvider) NumServers() int { return len(cp.srv) / cp.dim }

// predict returns the coordinate-space delay between client j and server i.
func (cp *CoordProvider) predict(j, i int) float64 {
	a := cp.cli[j*cp.dim : (j+1)*cp.dim]
	b := cp.srv[i*cp.dim : (i+1)*cp.dim]
	var s2 float64
	for c := range a {
		d := a[c] - b[c]
		s2 += d * d
	}
	return math.Sqrt(s2)
}

// ClientServer implements DelayProvider. Override indices are unique and
// ascending, so srvs[x] ≥ x: where srvs[i] = i the first i+1 servers are
// all measured and entry i is the i-th — always, for a fully measured
// client — and otherwise server i can only sit below position i, found by
// binary search; a miss reads the prediction.
func (cp *CoordProvider) ClientServer(j, i int) float64 {
	srvs := cp.ovSrv[j]
	if i < len(srvs) {
		if int(srvs[i]) == i {
			return cp.ovVal[j][i]
		}
		srvs = srvs[:i]
	}
	if x, ok := slices.BinarySearch(srvs, int32(i)); ok {
		return cp.ovVal[j][x]
	}
	return cp.predict(j, i)
}

// Row implements DelayProvider. A fully measured client's row is copied
// from its overrides. Otherwise the client coordinate is loaded once and
// the flat server array streamed past it; at the default dimension the
// distance loop is unrolled. Both branches perform predict's operations in
// predict's order, so every entry is bit-equal to ClientServer(j, i).
func (cp *CoordProvider) Row(j int, dst []float64) []float64 {
	m := cp.NumServers()
	dst = dst[:m]
	if ov := cp.ovVal[j]; len(ov) == m {
		// Every server measured (override indices are unique): the row is
		// the override list, and the coordinate — perhaps not fitted yet —
		// is never read.
		copy(dst, ov)
		return dst
	}
	if cp.dim == DefaultCoordDim {
		a := cp.cli[j*DefaultCoordDim : (j+1)*DefaultCoordDim]
		a0, a1, a2, a3, a4 := a[0], a[1], a[2], a[3], a[4]
		srv := cp.srv[:m*DefaultCoordDim]
		for i := range dst {
			b := srv[i*DefaultCoordDim : (i+1)*DefaultCoordDim : (i+1)*DefaultCoordDim]
			d0, d1, d2, d3, d4 := a0-b[0], a1-b[1], a2-b[2], a3-b[3], a4-b[4]
			dst[i] = math.Sqrt(d0*d0 + d1*d1 + d2*d2 + d3*d3 + d4*d4)
		}
	} else {
		for i := range dst {
			dst[i] = cp.predict(j, i)
		}
	}
	for x, s := range cp.ovSrv[j] {
		dst[s] = cp.ovVal[j][x]
	}
	return dst
}

// SetClientDelays implements DelayProvider: every non-NaN entry becomes an
// override (full rows erode the diet; see the type comment), NaN entries
// drop back to the coordinate prediction.
func (cp *CoordProvider) SetClientDelays(j int, row []float64) {
	cp.fit(j)
	os := cp.ovSrv[j][:0]
	ov := cp.ovVal[j][:0]
	for i, d := range row {
		if d != d { // NaN: unmeasured
			continue
		}
		os = append(os, int32(i))
		ov = append(ov, d)
	}
	cp.ovSrv[j], cp.ovVal[j] = os, ov
}

// SetClientServerDelay implements DelayProvider: inserts or replaces the
// (j, i) override; a NaN delay removes it (back to prediction).
func (cp *CoordProvider) SetClientServerDelay(j, i int, d float64) {
	cp.fit(j)
	srvs, vals := cp.ovSrv[j], cp.ovVal[j]
	x, found := slices.BinarySearch(srvs, int32(i))
	if found {
		if d != d { // NaN: drop the override
			copy(srvs[x:], srvs[x+1:])
			copy(vals[x:], vals[x+1:])
			cp.ovSrv[j], cp.ovVal[j] = srvs[:len(srvs)-1], vals[:len(vals)-1]
			return
		}
		vals[x] = d
		return
	}
	if d != d {
		return
	}
	srvs = append(srvs, 0)
	vals = append(vals, 0)
	copy(srvs[x+1:], srvs[x:])
	copy(vals[x+1:], vals[x:])
	srvs[x], vals[x] = int32(i), d
	cp.ovSrv[j], cp.ovVal[j] = srvs, vals
}

// AppendClient implements DelayProvider: every non-NaN entry is stored as
// an override and the client's coordinate is fitted against the servers it
// measured (deterministically) — at once for a row with NaN entries, on
// first need for a full row (see the type comment).
func (cp *CoordProvider) AppendClient(row []float64) {
	n := 0
	for _, d := range row {
		if d == d {
			n++
		}
	}
	srvs := make([]int32, 0, n)
	vals := make([]float64, 0, n)
	for i, d := range row {
		if d == d {
			srvs, vals = append(srvs, int32(i)), append(vals, d)
		}
	}
	cp.AddClientOwned(nil, srvs, vals)
}

// fitAt fits client j's coordinate, zero until now, against the servers
// its override list names.
func (cp *CoordProvider) fitAt(j int, seed uint64) {
	fitPoint(cp.cli[j*cp.dim:(j+1)*cp.dim], cp.srv, cp.dim, cp.ovSrv[j], cp.ovVal[j], seed)
}

// fit fits client j's coordinate if it is still deferred. Nothing the fit
// reads has changed since the join: every mutation that would change it
// fits first.
func (cp *CoordProvider) fit(j int) {
	if seed, ok := cp.unfit[int32(j)]; ok {
		delete(cp.unfit, int32(j))
		cp.fitAt(j, uint64(seed))
	}
}

// fitAll fits every deferred coordinate. Each fit reads only the server
// coordinates and its own client's overrides, so the order is immaterial.
func (cp *CoordProvider) fitAll() {
	for j, seed := range cp.unfit {
		cp.fitAt(int(j), uint64(seed))
	}
	cp.unfit = nil
}

// SwapRemoveClient implements DelayProvider.
func (cp *CoordProvider) SwapRemoveClient(j int) {
	l := len(cp.ovSrv) - 1
	copy(cp.cli[j*cp.dim:(j+1)*cp.dim], cp.cli[l*cp.dim:(l+1)*cp.dim])
	cp.cli = cp.cli[:l*cp.dim]
	// Slice swap keeps the vacated lists' capacity for a later append.
	cp.ovSrv[j], cp.ovSrv[l] = cp.ovSrv[l], cp.ovSrv[j]
	cp.ovVal[j], cp.ovVal[l] = cp.ovVal[l], cp.ovVal[j]
	cp.ovSrv = cp.ovSrv[:l]
	cp.ovVal = cp.ovVal[:l]
	delete(cp.unfit, int32(j))
	if seed, ok := cp.unfit[int32(l)]; ok {
		delete(cp.unfit, int32(l))
		cp.unfit[int32(j)] = seed
	}
}

// AppendServer implements DelayProvider: the server's coordinate is fitted
// against the clients that measured it (a deterministic capped sample; the
// centroid of the existing servers when none did), and each non-NaN entry
// becomes that client's override for the new column. Deferred client fits
// run first: they are anchors here, and the new column changes their
// inputs.
func (cp *CoordProvider) AppendServer(col []float64) {
	cp.fitAll()
	i := cp.NumServers()
	var anchIdx []int32
	var anchVal []float64
	if col != nil {
		for j, d := range col {
			if d != d {
				continue
			}
			if len(anchIdx) < coordFitSample {
				anchIdx = append(anchIdx, int32(j))
				anchVal = append(anchVal, d)
			}
		}
	}
	coord := make([]float64, cp.dim)
	if len(anchIdx) > 0 {
		fitPoint(coord, cp.cli, cp.dim, anchIdx, anchVal, uint64(i))
	} else if m := cp.NumServers(); m > 0 {
		for s := 0; s < m; s++ {
			for c := 0; c < cp.dim; c++ {
				coord[c] += cp.srv[s*cp.dim+c]
			}
		}
		for c := range coord {
			coord[c] /= float64(m)
		}
	}
	cp.srv = append(cp.srv, coord...)
	if col != nil {
		for j, d := range col {
			if d != d {
				continue
			}
			// The new index is the largest: append keeps the list sorted.
			cp.ovSrv[j] = append(cp.ovSrv[j], int32(i))
			cp.ovVal[j] = append(cp.ovVal[j], d)
		}
	}
}

// SwapRemoveServer implements DelayProvider: column i's overrides are
// dropped and the last column's overrides renumbered to i, mirroring the
// dense column compaction. Deferred client fits run first: the removal
// changes their inputs.
func (cp *CoordProvider) SwapRemoveServer(i int) {
	cp.fitAll()
	l := cp.NumServers() - 1
	copy(cp.srv[i*cp.dim:(i+1)*cp.dim], cp.srv[l*cp.dim:(l+1)*cp.dim])
	cp.srv = cp.srv[:l*cp.dim]
	for j := range cp.ovSrv {
		srvs, vals := cp.ovSrv[j], cp.ovVal[j]
		var lv float64
		hasL := false
		w := 0
		for x, s := range srvs {
			switch s {
			case int32(i):
				// Override for the removed server: dropped. (When i == l this
				// case wins, which is exactly the drop we want.)
			case int32(l):
				hasL, lv = true, vals[x]
			default:
				srvs[w], vals[w] = s, vals[x]
				w++
			}
		}
		srvs, vals = srvs[:w], vals[:w]
		if hasL {
			x, _ := slices.BinarySearch(srvs, int32(i))
			srvs = append(srvs, 0)
			vals = append(vals, 0)
			copy(srvs[x+1:], srvs[x:])
			copy(vals[x+1:], vals[x:])
			srvs[x], vals[x] = int32(i), lv
		}
		cp.ovSrv[j], cp.ovVal[j] = srvs, vals
	}
}

// Clone implements DelayProvider. The override lists are copied into one
// []int32 and one []float64 arena, each list capped at its length: a
// rewrite in place stays in the list's own span, and growth reallocates.
func (cp *CoordProvider) Clone() DelayProvider {
	q := &CoordProvider{
		dim:   cp.dim,
		srv:   append([]float64(nil), cp.srv...),
		cli:   append([]float64(nil), cp.cli...),
		ovSrv: make([][]int32, len(cp.ovSrv)),
		ovVal: make([][]float64, len(cp.ovVal)),
		unfit: maps.Clone(cp.unfit),
	}
	n := 0
	for _, srvs := range cp.ovSrv {
		n += len(srvs)
	}
	srvs, vals := make([]int32, 0, n), make([]float64, 0, n)
	for j := range cp.ovSrv {
		lo := len(srvs)
		srvs, vals = append(srvs, cp.ovSrv[j]...), append(vals, cp.ovVal[j]...)
		q.ovSrv[j], q.ovVal[j] = srvs[lo:len(srvs):len(srvs)], vals[lo:len(vals):len(vals)]
	}
	return q
}

// MemoryBytes implements DelayProvider.
func (cp *CoordProvider) MemoryBytes() int {
	n := 8*(cap(cp.srv)+cap(cp.cli)) + 48*cap(cp.ovSrv) + unfitEntryBytes*len(cp.unfit)
	for j := range cp.ovSrv {
		n += 4*cap(cp.ovSrv[j]) + 8*cap(cp.ovVal[j])
	}
	return n
}

// State implements DelayProvider. It fits every deferred coordinate first,
// so the snapshot holds the coordinates an eager fit would have stored.
// Those fits write only coordinates no read touches and the unfit table
// no read consults, so State may run beside concurrent reads.
func (cp *CoordProvider) State() *ProviderState {
	cp.fitAll()
	st := &CoordState{
		Dim:   cp.dim,
		Srv:   append([]float64(nil), cp.srv...),
		Cli:   append([]float64(nil), cp.cli...),
		OvSrv: make([][]int32, len(cp.ovSrv)),
		OvVal: make([][]float64, len(cp.ovVal)),
	}
	for j := range cp.ovSrv {
		st.OvSrv[j] = append([]int32(nil), cp.ovSrv[j]...)
		st.OvVal[j] = append([]float64(nil), cp.ovVal[j]...)
	}
	return &ProviderState{Kind: ProviderCoord, Coord: st}
}

// sortOverrides sorts the (srvs, vals) pairs by ascending server index —
// insertion sort, since candidate lists are short — and collapses a server
// listed more than once to the last value given (the sort is stable), so
// the indices come out unique.
func sortOverrides(srvs []int32, vals []float64) ([]int32, []float64) {
	for a := 1; a < len(srvs); a++ {
		s, v := srvs[a], vals[a]
		b := a - 1
		for b >= 0 && srvs[b] > s {
			srvs[b+1], vals[b+1] = srvs[b], vals[b]
			b--
		}
		srvs[b+1], vals[b+1] = s, v
	}
	w := 0
	for x, s := range srvs {
		if w > 0 && srvs[w-1] == s {
			vals[w-1] = vals[x]
			continue
		}
		srvs[w], vals[w] = s, vals[x]
		w++
	}
	return srvs[:w], vals[:w]
}

// splitmix64 is the deterministic seed expander behind coordinate
// initialization — no global randomness, so embeds are reproducible.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// seedUnit writes a deterministic pseudo-random point in [-scale, scale)^dim.
func seedUnit(dst []float64, seed uint64, scale float64) {
	for c := range dst {
		u := splitmix64(seed + uint64(c)*0x9e3779b97f4a7c15)
		dst[c] = (float64(u>>11)/float64(1<<53)*2 - 1) * scale
	}
}

// EmbedCoordinates fits dim-dimensional Euclidean coordinates to the
// symmetric delay matrix d (d[i][k] in ms, zero diagonal) by deterministic
// spring relaxation — Vivaldi's update rule with seeded initial positions,
// a fixed pair order and a decaying step, so the same matrix always embeds
// to the same coordinates. Returns an n × dim flat array. O(iters × n²).
func EmbedCoordinates(d [][]float64, dim, iters int) []float64 {
	n := len(d)
	coords := make([]float64, n*dim)
	var scale float64
	for i := range d {
		for _, v := range d[i] {
			if v > scale && v < UnmeasuredDelayMs {
				scale = v
			}
		}
	}
	if scale == 0 {
		scale = 1
	}
	for i := 0; i < n; i++ {
		seedUnit(coords[i*dim:(i+1)*dim], uint64(i)+1, scale/4)
	}
	for it := 0; it < iters; it++ {
		step := 0.5 / float64(2+it)
		for i := 0; i < n; i++ {
			xi := coords[i*dim : (i+1)*dim]
			for k := 0; k < n; k++ {
				if k == i || d[i][k] >= UnmeasuredDelayMs {
					continue
				}
				springMove(xi, coords[k*dim:(k+1)*dim], d[i][k], step, uint64(i*n+k))
			}
		}
	}
	return coords
}

// springMove moves xi along the (xi − xk) axis by step × (target − dist),
// the Vivaldi spring update for one measurement. Coincident points repel
// along a seeded deterministic direction.
func springMove(xi, xk []float64, target, step float64, seed uint64) {
	var dist float64
	for c := range xi {
		dd := xi[c] - xk[c]
		dist += dd * dd
	}
	dist = math.Sqrt(dist)
	if dist < 1e-9 {
		var dir [16]float64
		u := dir[:]
		if len(xi) > len(dir) {
			u = make([]float64, len(xi))
		}
		u = u[:len(xi)]
		seedUnit(u, seed+0x632be59bd9b4e019, 1)
		var norm float64
		for _, v := range u {
			norm += v * v
		}
		norm = math.Sqrt(norm)
		if norm < 1e-12 {
			return
		}
		for c := range xi {
			xi[c] += step * target * u[c] / norm
		}
		return
	}
	f := step * (target - dist) / dist
	for c := range xi {
		xi[c] += f * (xi[c] - xk[c])
	}
}

// fitPoint fits one new point against fixed anchor coordinates (flat,
// n × dim) given measured distances to the anchors listed in idx:
// initialized at the measured anchors' centroid (seeded when there are
// none), then refined with coordFitIters deterministic spring passes.
func fitPoint(dst, anchors []float64, dim int, idx []int32, dists []float64, seed uint64) {
	if len(idx) == 0 {
		n := len(anchors) / dim
		if n == 0 {
			seedUnit(dst, seed+1, 1)
			return
		}
		for a := 0; a < n; a++ {
			for c := 0; c < dim; c++ {
				dst[c] += anchors[a*dim+c]
			}
		}
		for c := range dst {
			dst[c] /= float64(n)
		}
		return
	}
	sample := idx
	vals := dists
	if len(sample) > coordFitSample {
		sample = sample[:coordFitSample]
		vals = vals[:coordFitSample]
	}
	for _, a := range sample {
		for c := 0; c < dim; c++ {
			dst[c] += anchors[int(a)*dim+c]
		}
	}
	for c := range dst {
		dst[c] /= float64(len(sample))
	}
	for it := 0; it < coordFitIters; it++ {
		step := 0.5 / float64(1+it)
		for x, a := range sample {
			if vals[x] >= UnmeasuredDelayMs {
				continue
			}
			springMove(dst, anchors[int(a)*dim:int(a+1)*dim], vals[x], step, seed+uint64(x))
		}
	}
}
