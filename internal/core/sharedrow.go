package core

import (
	"maps"
	"math"
	"slices"
)

// SharedRowProvider is the exact delay store, the one behind every exact
// problem a planner owns: clients at the same network node (or behind the
// same access network) see identical delays to every server, so their rows
// are stored ONCE as a refcounted group row and each client carries only a
// 4-byte group id. Divergence is copy-on-write: the first client-specific
// measurement detaches the client onto its own row.
//
// Group identity is content-based — AppendClient deduplicates against a
// hash index of the live rows, so feeding a million clients whose rows
// repeat across a few thousand access networks stores a few thousand rows.
// Rows that later become equal again (e.g. after a column removal) are NOT
// re-merged; dedup happens at insertion and the memory cost of missed
// merges is bounded by the mutation count.
//
// Reads are exact row lookups — never approximations — so any population
// whose per-client rows equal a plain matrix's reads bit-identically to
// it, regardless of how the rows are grouped: no read depends on a group
// id, which is why a snapshot may carry plain rows and recovery may group
// them afresh. Determinism: group ids are allocated from a LIFO free list
// in mutation order and a join that finds several equal live rows takes
// the lowest id, so the same mutation stream always produces the same
// State, whatever the content hash and the order of its chains.
type SharedRowProvider struct {
	servers int
	group   []int32 // per client → group id
	refs    []int32 // group id → member count; 0 marks a free slot
	free    []int32 // freed group ids, LIFO
	// The rows live in chunks of chunkRows slots of stride entries, the
	// first servers of each in use: a column mutation streams through
	// them, and a new group never moves the others. The stride keeps spare
	// entries once a server has been added, so later additions rarely
	// re-lay the chunks.
	stride int
	chunks [][]float64
	// The content index: sums[g] is hashRow of live group g's row, first
	// maps a hash to a live group with it, and next chains the others (-1
	// ends a chain). A column mutation changes every hash, so it marks the
	// index stale, and the next join or delay write rebuilds it; sums stay
	// current throughout.
	sums  []uint64
	first map[uint64]int32
	next  []int32
	stale bool
	buf   []float64 // mutation scratch
}

// NewSharedRowProvider returns an empty provider for `servers` servers.
func NewSharedRowProvider(servers int) *SharedRowProvider {
	return &SharedRowProvider{servers: servers, stride: servers, first: make(map[uint64]int32)}
}

// NumClients implements DelayProvider.
func (sp *SharedRowProvider) NumClients() int { return len(sp.group) }

// NumServers implements DelayProvider.
func (sp *SharedRowProvider) NumServers() int { return sp.servers }

// ClientServer implements DelayProvider.
func (sp *SharedRowProvider) ClientServer(j, i int) float64 {
	return sp.slot(sp.group[j])[i]
}

// Row implements DelayProvider: the internal group row is returned without
// copying (read-only, valid until the next mutation).
func (sp *SharedRowProvider) Row(j int, _ []float64) []float64 {
	return sp.row(sp.group[j])
}

// chunkRows is the number of group slots per chunk.
const chunkRows = 128

// slot returns the storage of group g's row, from its first entry on.
func (sp *SharedRowProvider) slot(g int32) []float64 {
	return sp.chunks[g/chunkRows][int(g%chunkRows)*sp.stride:]
}

// row returns group g's row, capped so an append cannot reach the next slot.
func (sp *SharedRowProvider) row(g int32) []float64 {
	return sp.slot(g)[:sp.servers:sp.servers]
}

// Row hashes are sums of per-entry terms: an entry's float bits xored with
// its position's salt, multiplied by an odd constant and folded (one
// multiply-xor each). A sum lets a column append, removal or overwrite
// update a group's hash in O(1) instead of rehashing its row. Equality is
// rowsEqual's: the hash only narrows the candidates, and the lowest equal
// id wins, so nothing the store allocates depends on it.
const (
	hashSalt = 0x9e3779b97f4a7c15
	hashMul  = 0xff51afd7ed558ccd
)

// salt returns entry i's position salt.
func salt(i int) uint64 { return uint64(i+1) * hashSalt }

// rowTerm is the hash term of value v at the position with salt s.
func rowTerm(s uint64, v float64) uint64 {
	t := (math.Float64bits(v) ^ s) * hashMul
	return t ^ t>>32
}

// hashRow returns the content hash of a row: the sum of its entries' terms.
func hashRow(row []float64) uint64 {
	var h uint64
	for i, v := range row {
		h += rowTerm(salt(i), v)
	}
	return h
}

func rowsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for x := range a {
		if math.Float64bits(a[x]) != math.Float64bits(b[x]) {
			return false
		}
	}
	return true
}

// findOrAdd returns the id of the lowest live group whose row equals row
// (bit-wise), creating one (copying row) when none exists; new ids come
// from the free list first.
func (sp *SharedRowProvider) findOrAdd(row []float64) int32 {
	if sp.stale {
		sp.rebuildIndex()
	}
	h, found := hashRow(row), int32(-1)
	if g, ok := sp.first[h]; ok {
		for ; g >= 0; g = sp.next[g] {
			if (found < 0 || g < found) && rowsEqual(sp.row(g), row) {
				found = g
			}
		}
	}
	if found >= 0 {
		sp.refs[found]++
		return found
	}
	g := sp.newGroup(row)
	sp.sums[g] = h
	sp.link(g)
	return g
}

// newGroup allocates a group holding a copy of row, with one reference: the
// most recently freed slot, or a new id. It is not yet in the index.
func (sp *SharedRowProvider) newGroup(row []float64) int32 {
	var g int32
	if n := len(sp.free); n > 0 {
		g = sp.free[n-1]
		sp.free = sp.free[:n-1]
		sp.refs[g] = 1
	} else {
		g = int32(len(sp.refs))
		sp.refs = append(sp.refs, 1)
		sp.sums = append(sp.sums, 0)
		sp.next = append(sp.next, -1)
		if g%chunkRows == 0 {
			sp.chunks = append(sp.chunks, make([]float64, chunkRows*sp.stride))
		}
	}
	copy(sp.row(g), row)
	return g
}

// link puts live group g at the head of the chain of its hash.
func (sp *SharedRowProvider) link(g int32) {
	sp.next[g] = -1
	if head, ok := sp.first[sp.sums[g]]; ok {
		sp.next[g] = head
	}
	sp.first[sp.sums[g]] = g
}

// unlink removes group g from the chain of its hash.
func (sp *SharedRowProvider) unlink(g int32) {
	h := sp.sums[g]
	if head := sp.first[h]; head == g {
		if sp.next[g] < 0 {
			delete(sp.first, h)
		} else {
			sp.first[h] = sp.next[g]
		}
		return
	}
	at := sp.first[h]
	for sp.next[at] != g {
		at = sp.next[at]
	}
	sp.next[at] = sp.next[g]
}

// unref drops one reference from group g, freeing the slot at zero.
func (sp *SharedRowProvider) unref(g int32) {
	sp.refs[g]--
	if sp.refs[g] == 0 {
		if !sp.stale {
			sp.unlink(g)
		}
		sp.free = append(sp.free, g)
	}
}

// resolve returns row with NaN entries resolved, in the store's scratch
// buffer (mutations are exclusive, so one buffer serves them all).
func (sp *SharedRowProvider) resolve(row []float64) []float64 {
	sp.buf = sp.buf[:0]
	for _, d := range row {
		sp.buf = append(sp.buf, resolveUnmeasured(d))
	}
	return sp.buf
}

// SetClientDelays implements DelayProvider: the client leaves its old
// group (copy-on-write) and joins — or founds — the group matching the new
// row.
func (sp *SharedRowProvider) SetClientDelays(j int, row []float64) {
	row = sp.resolve(row)
	sp.unref(sp.group[j])
	sp.group[j] = sp.findOrAdd(row)
}

// SetClientServerDelay implements DelayProvider: copy-on-write divergence —
// the client's row with entry i replaced is re-grouped.
func (sp *SharedRowProvider) SetClientServerDelay(j, i int, d float64) {
	row := sp.resolve(sp.row(sp.group[j]))
	row[i] = resolveUnmeasured(d)
	sp.unref(sp.group[j])
	sp.group[j] = sp.findOrAdd(row)
}

// AppendClient implements DelayProvider, deduplicating against the live
// group rows.
func (sp *SharedRowProvider) AppendClient(row []float64) {
	sp.group = append(sp.group, sp.findOrAdd(sp.resolve(row)))
}

// SwapRemoveClient implements DelayProvider.
func (sp *SharedRowProvider) SwapRemoveClient(j int) {
	l := len(sp.group) - 1
	sp.unref(sp.group[j])
	sp.group[j] = sp.group[l]
	sp.group = sp.group[:l]
}

// AppendServer implements DelayProvider. Members of one group may measure
// different delays to the new server, so the group splits: the first
// member (lowest client index) claims the shared row's new entry and every
// member that disagrees detaches onto a fresh group. Every live row gains
// an entry, so the index goes stale — and until it is rebuilt, next marks
// the groups whose entry is claimed.
func (sp *SharedRowProvider) AppendServer(col []float64) {
	m := sp.servers
	if m == sp.stride {
		sp.relayout(m + 8 + m/4)
	}
	sp.servers = m + 1
	sp.stale = true
	const unclaimed, claimed = -2, -3
	sm := salt(m)
	for g := range sp.next {
		sp.next[g] = unclaimed
	}
	// Members claim or detach in client order (deterministic). The claimer
	// stays, so no group empties.
	for j, g := range sp.group {
		v := UnmeasuredDelayMs
		if col != nil {
			v = resolveUnmeasured(col[j])
		}
		slot := sp.slot(g)
		if sp.next[g] == unclaimed {
			sp.next[g] = claimed
			slot[m] = v
			sp.sums[g] += rowTerm(sm, v)
			continue
		}
		cur := slot[m]
		if math.Float64bits(cur) == math.Float64bits(v) {
			continue
		}
		// Disagreement: detach onto a fresh group (no dedup: the index is
		// stale).
		sp.refs[g]--
		ng := sp.newGroup(sp.row(g))
		sp.next[ng] = claimed
		sp.slot(ng)[m] = v
		sp.sums[ng] = sp.sums[g] - rowTerm(sm, cur) + rowTerm(sm, v)
		sp.group[j] = ng
	}
}

// relayout moves every slot to a new stride (≥ servers).
func (sp *SharedRowProvider) relayout(stride int) {
	for c, old := range sp.chunks {
		chunk := make([]float64, chunkRows*stride)
		for x := 0; x < chunkRows; x++ {
			copy(chunk[x*stride:], old[x*sp.stride:x*sp.stride+sp.servers])
		}
		sp.chunks[c] = chunk
	}
	sp.stride = stride
}

// SwapRemoveServer implements DelayProvider: column compaction on every
// live row, which leaves the index stale. Rows that become equal are not
// merged.
func (sp *SharedRowProvider) SwapRemoveServer(i int) {
	l := sp.servers - 1
	si, sl := salt(i), salt(l)
	for g, refs := range sp.refs {
		if refs == 0 {
			continue // free slot: contents are scratch
		}
		row := sp.slot(int32(g))
		sp.sums[g] += rowTerm(si, row[l]) - rowTerm(si, row[i]) - rowTerm(sl, row[l])
		row[i] = row[l]
	}
	sp.servers = l
	sp.stale = true
}

// rebuildIndex reconstructs the content index over the live groups' hashes.
func (sp *SharedRowProvider) rebuildIndex() {
	if sp.first == nil {
		sp.first = make(map[uint64]int32, len(sp.refs)-len(sp.free))
	}
	clear(sp.first)
	sp.stale = false
	for g, refs := range sp.refs {
		if refs > 0 {
			sp.link(int32(g))
		}
	}
}

// Clone implements DelayProvider.
func (sp *SharedRowProvider) Clone() DelayProvider {
	q := &SharedRowProvider{
		servers: sp.servers,
		group:   slices.Clone(sp.group),
		refs:    slices.Clone(sp.refs),
		free:    slices.Clone(sp.free),
		stride:  sp.stride,
		chunks:  make([][]float64, len(sp.chunks)),
		sums:    slices.Clone(sp.sums),
		first:   maps.Clone(sp.first),
		next:    slices.Clone(sp.next),
		stale:   sp.stale,
	}
	for c, chunk := range sp.chunks {
		q.chunks[c] = slices.Clone(chunk)
	}
	return q
}

// MemoryBytes implements DelayProvider.
func (sp *SharedRowProvider) MemoryBytes() int {
	n := 4*cap(sp.group) + 4*cap(sp.refs) + 4*cap(sp.free) + 24*cap(sp.chunks) +
		8*cap(sp.sums) + 4*cap(sp.next) + 16*len(sp.first)
	for _, chunk := range sp.chunks {
		n += 8 * cap(chunk)
	}
	return n
}

// State implements DelayProvider. The free list is serialized too: group
// id allocation order is part of the deterministic-replay contract.
func (sp *SharedRowProvider) State() *ProviderState {
	st := &SharedRowState{
		Servers: sp.servers,
		Group:   append([]int32(nil), sp.group...),
		Refs:    append([]int32(nil), sp.refs...),
		Free:    append([]int32(nil), sp.free...),
		Rows:    make([][]float64, len(sp.refs)),
	}
	for g, refs := range sp.refs {
		if refs > 0 {
			st.Rows[g] = slices.Clone(sp.row(int32(g)))
		} else {
			st.Rows[g] = []float64{} // free slot: contents are scratch
		}
	}
	return &ProviderState{Kind: ProviderSharedRow, Shared: st}
}
