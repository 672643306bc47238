package core

import (
	"math"
	"sort"
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
// bit-identically to the dense matrix, which is how the oracle equivalence
// suite pins this provider to the dense path.
//
// Writes keep the diet only when they are sparse: the generic row-oriented
// hooks (AppendClient, SetClientDelays) store an override for every
// non-NaN entry they are handed, so sessions that join clients with full
// measured rows erode back toward dense storage client by client. The
// native sparse constructors (AddClientAt, AddServerAt) are the
// million-client path.
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
}

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

// ClientCoord returns client j's coordinate (read-only view).
func (cp *CoordProvider) ClientCoord(j int) []float64 {
	return cp.cli[j*cp.dim : (j+1)*cp.dim]
}

// Overrides returns how many measured overrides client j holds.
func (cp *CoordProvider) Overrides(j int) int { return len(cp.ovSrv[j]) }

// AddClientAt is the native sparse join: the client arrives with a
// coordinate (len Dim; fitted client-side or by the session's estimator)
// and measured delays to a candidate subset of servers (srvs ascending or
// not — they are sorted; vals aligned with srvs, NaN entries skipped).
// Everything is copied. Returns the new client's index.
func (cp *CoordProvider) AddClientAt(coord []float64, srvs []int32, vals []float64) int {
	j := len(cp.ovSrv)
	c := make([]float64, cp.dim)
	copy(c, coord)
	cp.cli = append(cp.cli, c...)
	var os []int32
	var ov []float64
	for x, s := range srvs {
		if vals[x] != vals[x] { // NaN: unmeasured
			continue
		}
		os = append(os, s)
		ov = append(ov, vals[x])
	}
	sortOverrides(os, ov)
	cp.ovSrv = append(cp.ovSrv, os)
	cp.ovVal = append(cp.ovVal, ov)
	return j
}

// AddClientFitted is AddClientAt with the coordinate fitted (deterministically)
// from the measured delays instead of supplied — for callers that hold
// sparse measurements but no client-side coordinate. Returns the new
// client's index.
func (cp *CoordProvider) AddClientFitted(srvs []int32, vals []float64) int {
	var os []int32
	var ov []float64
	for x, s := range srvs {
		if vals[x] != vals[x] { // NaN: unmeasured
			continue
		}
		os = append(os, s)
		ov = append(ov, vals[x])
	}
	sortOverrides(os, ov)
	coord := make([]float64, cp.dim)
	fitPoint(coord, cp.srv, cp.dim, os, ov, uint64(len(cp.ovSrv)))
	cp.cli = append(cp.cli, coord...)
	j := len(cp.ovSrv)
	cp.ovSrv = append(cp.ovSrv, os)
	cp.ovVal = append(cp.ovVal, ov)
	return j
}

// AddServerAt is the native server add: the server arrives with a
// coordinate only (len Dim; copied) and no per-client overrides — every
// existing client reads the coordinate prediction until measurements
// stream in via SetClientServerDelay / UpdateServerDelayColumn.
func (cp *CoordProvider) AddServerAt(coord []float64) int {
	i := cp.NumServers()
	c := make([]float64, cp.dim)
	copy(c, coord)
	cp.srv = append(cp.srv, c...)
	return i
}

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

// ClientServer implements DelayProvider.
func (cp *CoordProvider) ClientServer(j, i int) float64 {
	srvs := cp.ovSrv[j]
	x := sort.Search(len(srvs), func(x int) bool { return srvs[x] >= int32(i) })
	if x < len(srvs) && srvs[x] == int32(i) {
		return cp.ovVal[j][x]
	}
	return cp.predict(j, i)
}

// Row implements DelayProvider. The client coordinate is loaded once and
// the flat server array streamed past it; at the default dimension the
// distance loop is unrolled. Both branches perform predict's operations in
// predict's order, so every entry is bit-equal to ClientServer(j, i).
func (cp *CoordProvider) Row(j int, dst []float64) []float64 {
	m := cp.NumServers()
	dst = dst[:m]
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
	srvs, vals := cp.ovSrv[j], cp.ovVal[j]
	x := sort.Search(len(srvs), func(x int) bool { return srvs[x] >= int32(i) })
	if x < len(srvs) && srvs[x] == int32(i) {
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

// AppendClient implements DelayProvider: the client's coordinate is fitted
// against the servers it measured (deterministically) and every non-NaN
// entry is stored as an override.
func (cp *CoordProvider) AppendClient(row []float64) {
	var srvs []int32
	var vals []float64
	for i, d := range row {
		if d != d {
			continue
		}
		srvs = append(srvs, int32(i))
		vals = append(vals, d)
	}
	coord := make([]float64, cp.dim)
	fitPoint(coord, cp.srv, cp.dim, srvs, vals, uint64(len(cp.ovSrv)))
	cp.cli = append(cp.cli, coord...)
	cp.ovSrv = append(cp.ovSrv, srvs)
	cp.ovVal = append(cp.ovVal, vals)
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
}

// AppendServer implements DelayProvider: the server's coordinate is fitted
// against the clients that measured it (a deterministic capped sample; the
// centroid of the existing servers when none did), and each non-NaN entry
// becomes that client's override for the new column.
func (cp *CoordProvider) AppendServer(col []float64) {
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
// dense column compaction.
func (cp *CoordProvider) SwapRemoveServer(i int) {
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
			x := sort.Search(len(srvs), func(x int) bool { return srvs[x] >= int32(i) })
			srvs = append(srvs, 0)
			vals = append(vals, 0)
			copy(srvs[x+1:], srvs[x:])
			copy(vals[x+1:], vals[x:])
			srvs[x], vals[x] = int32(i), lv
		}
		cp.ovSrv[j], cp.ovVal[j] = srvs, vals
	}
}

// Clone implements DelayProvider.
func (cp *CoordProvider) Clone() DelayProvider {
	q := &CoordProvider{
		dim:   cp.dim,
		srv:   append([]float64(nil), cp.srv...),
		cli:   append([]float64(nil), cp.cli...),
		ovSrv: make([][]int32, len(cp.ovSrv)),
		ovVal: make([][]float64, len(cp.ovVal)),
	}
	for j := range cp.ovSrv {
		q.ovSrv[j] = append([]int32(nil), cp.ovSrv[j]...)
		q.ovVal[j] = append([]float64(nil), cp.ovVal[j]...)
	}
	return q
}

// MemoryBytes implements DelayProvider.
func (cp *CoordProvider) MemoryBytes() int {
	n := 8*(cap(cp.srv)+cap(cp.cli)) + 48*cap(cp.ovSrv)
	for j := range cp.ovSrv {
		n += 4*cap(cp.ovSrv[j]) + 8*cap(cp.ovVal[j])
	}
	return n
}

// State implements DelayProvider.
func (cp *CoordProvider) State() *ProviderState {
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
// insertion sort, since candidate lists are short.
func sortOverrides(srvs []int32, vals []float64) {
	for a := 1; a < len(srvs); a++ {
		s, v := srvs[a], vals[a]
		b := a - 1
		for b >= 0 && srvs[b] > s {
			srvs[b+1], vals[b+1] = srvs[b], vals[b]
			b--
		}
		srvs[b+1], vals[b+1] = s, v
	}
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
