package core

import (
	"math/bits"
	"slices"
)

// LateIndex memoises the one comparison the IAP cost matrix of Equation (3)
// is made of: per client a bitset over servers, ⌈m/64⌉ words, bit i set iff
// the stored delay CSRow(j)[i] > D (DESIGN.md §3). A bit is a fact about one
// client's delay row — not its zone, contact or bandwidth, not cordons or
// adjacency — so it is written only where a row is written (the Evaluator's
// AddClient, SetClientDelays, SetClientServerDelay, AddServer, RemoveServer,
// and RemoveClient's swap).
//
// Beside the bits it keeps the count matrix itself, zone-major: costs[z·m+i]
// is CI[i][z], the clients of zone z whose bit i is set. The filling pass
// counts it anyway and keeps the result; from then on every hook that
// writes a bit moves its client's zone by the word's difference, and the
// zone verbs the bits ignore move counts too: a zone crossing (MoveClient)
// takes the client's words out of one run of m counts and into another, a
// new zone appends a zero run, a retired (empty) zone's run is swapped with
// the last, and a server added or removed adds or swaps a column. A solve
// copies the matrix in O(m × n) and reads neither a delay nor a bit for it.
//
// It also keeps GreC's choice for each client the last indexed GreC run
// found late at its target: the two most desirable contacts and their
// regret (topTwo), tagged with the target they were computed for. The
// choice is a pure function of the client's row, that target, SS and D, so
// the bit hooks forget it: a row or entry write forgets its client, a
// swap-remove both ends, a server added or removed (SS changes) and a
// refill or drop forget every choice. The choices are held in GreC's
// processing order, (regret desc, client asc): a solve keeps, in one walk,
// every choice that holds for its client's current target, reads rows only
// for the other late clients, sorts only those and merges the two runs, so
// a repeat solve reads and sorts only what changed since the last one.
// Only late clients have an entry: 24 bytes each, rewritten in place by
// every indexed GreC run, plus one bit a client saying whether its entry
// still holds, so a hook forgets in O(1).
//
// Lifecycle: the owner of a long-lived problem passes one index to its
// solves (Options.Late). The first cost matrix counted from rows fills it on
// the way; later builds for the same *Problem copy its matrix, and GreC's
// first pass tests bit (j, target) instead of reading a delay. The repair
// planner also attaches it to its evaluator (SetLateIndex), which keeps it
// current under every delay write and zone verb, and starts from a copy
// (CopyFrom) when the problem it clones came with a filled one. The dvecap
// Cluster holds one for its cached problem, which nothing writes until a
// rebuild discards it. It is never serialised, and dropped — refilled by the
// next solve — when its evaluator is restored or rebound to another
// problem. The zero value is an empty, invalid index.
type LateIndex struct {
	p     *Problem   // the problem the words describe; nil while unfilled
	m     int        // servers covered
	wpc   int        // words per client, ⌈m/64⌉
	words []uint64   // client-major, clients × wpc; spare high bits are zero
	costs []int32    // zone-major, zones × m: the cost matrix CI transposed
	memo  choiceMemo // GreC's choices for the late clients of its last run
}

// lateChoice is GreC's choice for one late client, as topTwo made it from
// the client's row for its target server then.
type lateChoice struct {
	client, target int32
	best, second   int32
	regret         float64
}

// choiceMemo is the choices of one GreC run, in its (regret desc, client
// asc) order, and which of them still hold: a client's bit is cleared by
// any write that could change its choice.
type choiceMemo struct {
	entries []lateChoice
	live    []uint64 // bit j set iff client j has an entry and it holds
}

// held appends to kept, in the memo's order, the choice of every client
// whose entry holds and was made for its current target under zoneServer,
// and sets the client's bit in covered. Such a client is late at that
// target: its row is unchanged since the choice was made, when its bit
// there was set.
func (cm *choiceMemo) held(p *Problem, zoneServer []int, kept []regretChoice, covered []uint64) []regretChoice {
	for _, e := range cm.entries {
		j := int(e.client)
		if !cm.holds(j) || int(e.target) != zoneServer[p.ClientZones[j]] {
			continue
		}
		kept = append(kept, regretChoice{item: j, best: e.best, second: e.second, regret: e.regret})
		covered[j>>6] |= 1 << (uint(j) & 63)
	}
	return kept
}

// holds reports whether client j's entry holds.
func (cm *choiceMemo) holds(j int) bool {
	w := j >> 6
	return w < len(cm.live) && cm.live[w]>>(uint(j)&63)&1 != 0
}

// forget drops client j's choice, if it has one: O(1).
func (cm *choiceMemo) forget(j int) {
	if w := j >> 6; w < len(cm.live) {
		cm.live[w] &^= 1 << (uint(j) & 63)
	}
}

// forgetAll drops every choice.
func (cm *choiceMemo) forgetAll() {
	cm.entries = cm.entries[:0]
	clear(cm.live)
}

// isLate is the one place a late bit is decided: strictly beyond the bound,
// the comparison of Equation (3). A delay equal to D is in bound.
func isLate(delay, bound float64) bool { return delay > bound }

// lateWord packs the late bits of up to 64 consecutive delays, bit i for
// delays[i]. High to low with a constant shift: the loop compiles without a
// data-dependent branch, which is what keeps the filling pass cheap.
func lateWord(delays []float64, bound float64) uint64 {
	var w uint64
	for i := len(delays) - 1; i >= 0; i-- {
		w <<= 1
		if isLate(delays[i], bound) {
			w |= 1
		}
	}
	return w
}

// ValidFor reports whether the index is filled and describes p as it
// stands; a dimension mismatch (a missed hook) means a refill, not a wrong
// matrix. Safe on a nil index.
func (li *LateIndex) ValidFor(p *Problem) bool {
	return li != nil && li.p == p && li.m == p.NumServers() &&
		len(li.words) == p.NumClients()*li.wpc && len(li.costs) == p.NumZones*li.m
}

// bind sizes the index for p ahead of a filling pass, which must fillRow
// every client and then keepCosts, and forgets every choice.
func (li *LateIndex) bind(p *Problem) {
	li.p, li.m = p, p.NumServers()
	li.wpc = (li.m + 63) / 64
	li.words = grow(li.words, p.NumClients()*li.wpc)
	li.costs = grow(li.costs, p.NumZones*li.m)
	li.memo.forgetAll()
}

// drop invalidates the index; the next cost-matrix build refills it.
func (li *LateIndex) drop() {
	li.p = nil
	li.memo.forgetAll()
}

// CopyFrom makes li a copy of src rebound to p, a clone of the problem src
// is valid for. The words, counts and choices are copied, never shared: the
// two owners maintain their indexes apart from then on.
func (li *LateIndex) CopyFrom(src *LateIndex, p *Problem) {
	li.p, li.m, li.wpc = p, src.m, src.wpc
	li.words = append(li.words[:0], src.words...)
	li.costs = append(li.costs[:0], src.costs...)
	li.memo.entries = append(li.memo.entries[:0], src.memo.entries...)
	li.memo.live = append(li.memo.live[:0], src.memo.live...)
}

// keepCosts stores ci (m × n), the filling pass's count, as the index's
// matrix.
func (li *LateIndex) keepCosts(ci [][]int) {
	for i, col := range ci {
		for z, c := range col {
			li.costs[z*li.m+i] = int32(c)
		}
	}
}

// costsInto writes the index's matrix into ci (m × n): the cost matrix in
// O(m × n), without a delay or a bit read.
func (li *LateIndex) costsInto(ci [][]int) {
	for i, col := range ci {
		for z := range col {
			col[z] = int(li.costs[z*li.m+i])
		}
	}
}

// remember replaces the memo with one GreC run's choices, in its regret
// order, each tagged with its client's target under zoneServer. The
// buffers are reused, and the entries grow by append's factor, so neither
// a warm solve nor one whose late list grew by a few clients allocates
// here; entries over four times what the run needs (a spike of late
// clients has passed) are released, so at most 4 × late + 64 are kept.
func (li *LateIndex) remember(p *Problem, zoneServer []int, choices []regretChoice) {
	cm := &li.memo
	n := len(choices)
	if cap(cm.entries) > 4*n+64 {
		cm.entries = nil
	}
	cm.entries = slices.Grow(cm.entries[:0], n)[:n]
	cm.live = grow(cm.live, (p.NumClients()+63)/64)
	clear(cm.live)
	for x, c := range choices {
		t := zoneServer[p.ClientZones[c.item]]
		cm.entries[x] = lateChoice{client: int32(c.item), target: int32(t), best: c.best, second: c.second, regret: c.regret}
		cm.live[c.item>>6] |= 1 << (uint(c.item) & 63)
	}
}

// clientWords returns client j's words.
func (li *LateIndex) clientWords(j int) []uint64 {
	return li.words[j*li.wpc : (j+1)*li.wpc]
}

// has reports whether client j is late at server i.
func (li *LateIndex) has(j, i int) bool {
	return li.words[j*li.wpc+i>>6]>>(uint(i)&63)&1 != 0
}

// rowWord packs word w of a client's delay row.
func (li *LateIndex) rowWord(row []float64, w int, bound float64) uint64 {
	return lateWord(row[w*64:min(w*64+64, li.m)], bound)
}

// count moves zone z's counts by delta at the servers set in w, numbered
// from base.
func (li *LateIndex) count(z, base int, w uint64, delta int32) {
	run := li.costs[z*li.m+base:]
	for ; w != 0; w &= w - 1 {
		run[bits.TrailingZeros64(w)] += delta
	}
}

// putWord sets word w of client j, of zone z, to nw, moving z's counts by
// the bits that changed.
func (li *LateIndex) putWord(j, z, w int, nw uint64) {
	old := &li.words[j*li.wpc+w]
	diff := *old ^ nw
	li.count(z, w*64, *old&diff, -1)
	li.count(z, w*64, nw&diff, 1)
	*old = nw
}

// setRow rewrites client j's words from its new delay row and forgets its
// choice.
func (li *LateIndex) setRow(j int, row []float64, bound float64) {
	li.memo.forget(j)
	li.writeRow(j, row, bound)
}

// writeRow rewrites client j's words from its delay row, moving its zone's
// counts by the bits that changed.
func (li *LateIndex) writeRow(j int, row []float64, bound float64) {
	z := li.p.ClientZones[j]
	for w := range li.wpc {
		li.putWord(j, z, w, li.rowWord(row, w, bound))
	}
}

// fillRow writes client j's words from its delay row, leaving the counts
// to the filling pass.
func (li *LateIndex) fillRow(j int, row []float64, bound float64) {
	words := li.clientWords(j)
	for w := range words {
		words[w] = li.rowWord(row, w, bound)
	}
}

// appendClient adds the words of a new last client (its zone already
// stored) with the given row. It has no choice to forget: swapRemoveClient
// forgot the index's last holder.
func (li *LateIndex) appendClient(row []float64, bound float64) {
	j := len(li.words) / li.wpc
	li.words = append(li.words, make([]uint64, li.wpc)...)
	li.writeRow(j, row, bound)
}

// swapRemoveClient drops client j, of zone z, renumbering the last
// client's words to j, and forgets the choices of both.
func (li *LateIndex) swapRemoveClient(j, z int) {
	l := len(li.words) - li.wpc
	li.memo.forget(j)
	li.memo.forget(l / li.wpc)
	for w, word := range li.clientWords(j) {
		li.count(z, w*64, word, -1)
	}
	copy(li.clientWords(j), li.words[l:])
	li.words = li.words[:l]
}

// moveClient moves client j's late servers from zone from's counts to zone
// to's: a zone crossing writes no bit and keeps the client's choice, which
// GreC's target check retires if the new zone is hosted elsewhere.
func (li *LateIndex) moveClient(j, from, to int) {
	out, in := li.costs[from*li.m:(from+1)*li.m], li.costs[to*li.m:(to+1)*li.m]
	for w, word := range li.clientWords(j) {
		for ; word != 0; word &= word - 1 {
			i := w*64 + bits.TrailingZeros64(word)
			out[i]--
			in[i]++
		}
	}
}

// setBit records whether client j is late at server i after a write of
// that one delay, and forgets j's choice.
func (li *LateIndex) setBit(j, i int, late bool) {
	li.memo.forget(j)
	if li.has(j, i) == late {
		return
	}
	z := li.p.ClientZones[j]
	if late {
		li.costs[z*li.m+i]++
	} else {
		li.costs[z*li.m+i]--
	}
	li.putBit(j, i, late)
}

// putBit writes bit (j, i).
func (li *LateIndex) putBit(j, i int, late bool) {
	word, bit := &li.words[j*li.wpc+i>>6], uint64(1)<<(uint(i)&63)
	if late {
		*word |= bit
	} else {
		*word &^= bit
	}
}

// appendServer adds the column of p's new last server (already stored),
// growing every client by a word when m crosses a multiple of 64 and every
// zone's run by a count. Every choice is forgotten: the new server is a
// candidate contact for all.
func (li *LateIndex) appendServer(p *Problem) {
	li.memo.forgetAll()
	i := li.m
	li.m++
	li.costs = restride(li.costs, i, li.m)
	if i%64 == 0 {
		li.words = restride(li.words, li.wpc, li.wpc+1)
		li.wpc++
	}
	for j, z := range p.ClientZones {
		if isLate(p.CSAt(j, i), p.D) {
			li.putBit(j, i, true)
			li.costs[z*li.m+i]++
		}
	}
}

// swapRemoveServer drops server i's column, renumbering the last server's
// to i, and sheds the word the last server was alone in. Every choice is
// forgotten: its servers are renumbered.
func (li *LateIndex) swapRemoveServer(i int) {
	li.memo.forgetAll()
	l := li.m - 1
	for j := 0; j < len(li.words)/li.wpc; j++ {
		li.putBit(j, i, li.has(j, l))
		li.putBit(j, l, false)
	}
	for run := 0; run < len(li.costs); run += li.m {
		li.costs[run+i] = li.costs[run+l]
	}
	li.costs = restride(li.costs, li.m, l)
	li.m = l
	if l%64 == 0 {
		li.words = restride(li.words, li.wpc, li.wpc-1)
		li.wpc--
	}
}

// addZone appends the empty run of a new zone.
func (li *LateIndex) addZone() {
	li.costs = append(li.costs, make([]int32, li.m)...)
}

// swapRemoveZone drops the run of zone z, which is empty, renumbering the
// last zone's (l) to z.
func (li *LateIndex) swapRemoveZone(z, l int) {
	copy(li.costs[z*li.m:(z+1)*li.m], li.costs[l*li.m:])
	li.costs = li.costs[:l*li.m]
}

// restride re-lays s, rows of old entries, out at new entries a row, one
// more or one fewer, keeping each row's leading entries and zeroing a new
// one: the words when m crosses a multiple of 64, the counts when m moves.
func restride[T uint64 | int32](s []T, old, new int) []T {
	rows := len(s) / old
	if new < old {
		for r := 0; r < rows; r++ {
			copy(s[r*new:(r+1)*new], s[r*old:])
		}
		return s[:rows*new]
	}
	s = growCopy(s, rows*new)
	for r := rows - 1; r >= 0; r-- {
		copy(s[r*new:], s[r*old:(r+1)*old])
		s[r*new+old] = 0
	}
	return s
}

// SetLateIndex attaches li (nil detaches): the evaluator keeps it current
// under every mutation that writes a delay. It may be unfilled; the owner's
// next solve with Options.Late fills it.
func (ev *Evaluator) SetLateIndex(li *LateIndex) { ev.late = li }

// lateIndex returns the attached index if it is filled for the bound
// problem, and so needs maintaining; nil otherwise.
func (ev *Evaluator) lateIndex() *LateIndex {
	if ev.late != nil && ev.late.p == ev.p {
		return ev.late
	}
	return nil
}
