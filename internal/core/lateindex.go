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
// and RemoveClient's swap); a zone crossing, the bulk of live churn, leaves
// it alone. The count matrix itself is NOT maintained: a solve derives it by
// walking each client's set bits into its zone's column, O(clients × ⌈m/64⌉
// + set bits) instead of a delay-row read per client, and a move pays
// nothing.
//
// Beside the bits it keeps GreC's choice for each client the last indexed
// GreC run found late at its target: the two most desirable contacts and
// their regret (topTwo), tagged with the target they were computed for. The
// choice is a pure function of the client's row, that target, SS and D, so
// the same hooks forget it: a row or entry write forgets its client, a
// swap-remove both ends, a server added or removed (SS changes) and a
// refill or drop forget every choice. GreC reuses a choice whose tag equals
// the client's current target and reads the row otherwise, so a repeat
// solve reads only rows written since the last solve, or of clients whose
// target changed. Only late clients have an entry: 24 bytes each, held in
// ascending client order and rewritten in place by every indexed GreC run,
// plus one bit a client saying whether its entry still holds, so a hook
// forgets in O(1).
//
// Lifecycle: the owner of a long-lived problem passes one index to its
// solves (Options.Late). The first cost matrix counted from rows fills it on
// the way; later builds for the same *Problem read it, and GreC's first pass
// tests bit (j, target) instead of reading a delay. The repair planner also
// attaches it to its evaluator (SetLateIndex), which keeps it current under
// every delay write, and starts from a copy (CopyFrom) when the problem it
// clones came with a filled one. The dvecap Cluster holds one for its cached
// problem, which nothing writes until a rebuild discards it. It is never
// serialised, and dropped — refilled by the next solve — when its evaluator
// is restored or rebound to another problem. The zero value is an empty,
// invalid index.
type LateIndex struct {
	p     *Problem   // the problem the words describe; nil while unfilled
	m     int        // servers covered
	wpc   int        // words per client, ⌈m/64⌉
	words []uint64   // client-major, clients × wpc; spare high bits are zero
	memo  choiceMemo // GreC's choices for the late clients of its last run
}

// lateChoice is GreC's choice for one late client, as topTwo made it from
// the client's row for its target server then.
type lateChoice struct {
	client, target int32
	best, second   int32
	regret         float64
}

// choiceMemo is the choices of one GreC run, ascending by client, and which
// of them still hold: a client's bit is cleared by any write that could
// change its choice.
type choiceMemo struct {
	entries []lateChoice
	live    []uint64 // bit j set iff client j has an entry and it holds
}

// recall returns client j's choice if it holds and was made for target t,
// first advancing past the entries of clients below j: GreC asks for its
// late clients in ascending order, so one run walks the memo once.
func (cm *choiceMemo) recall(j, t int) (regretChoice, bool) {
	e := cm.entries
	for len(e) > 0 && int(e[0].client) < j {
		e = e[1:]
	}
	cm.entries = e
	if len(e) == 0 || int(e[0].client) != j || int(e[0].target) != t || !cm.holds(j) {
		return regretChoice{}, false
	}
	return regretChoice{item: j, best: e[0].best, second: e[0].second, regret: e[0].regret}, true
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

// addLateWord adds the servers set in w (numbered from base) to zone z's
// column of the cost matrix.
func addLateWord(ci [][]int, z, base int, w uint64) {
	for ; w != 0; w &= w - 1 {
		ci[base+bits.TrailingZeros64(w)][z]++
	}
}

// ValidFor reports whether the index is filled and describes p as it
// stands; a dimension mismatch (a missed hook) means a refill, not a wrong
// matrix. Safe on a nil index.
func (li *LateIndex) ValidFor(p *Problem) bool {
	return li != nil && li.p == p && li.m == p.NumServers() &&
		len(li.words) == p.NumClients()*li.wpc
}

// bind sizes the index for p ahead of a filling pass, which must fillRow
// every client, and forgets every choice.
func (li *LateIndex) bind(p *Problem) {
	li.p, li.m = p, p.NumServers()
	li.wpc = (li.m + 63) / 64
	li.words = grow(li.words, p.NumClients()*li.wpc)
	li.memo.forgetAll()
}

// drop invalidates the index; the next cost-matrix build refills it.
func (li *LateIndex) drop() {
	li.p = nil
	li.memo.forgetAll()
}

// CopyFrom makes li a copy of src rebound to p, a clone of the problem src
// is valid for. The words and choices are copied, never shared: the two
// owners maintain their indexes apart from then on.
func (li *LateIndex) CopyFrom(src *LateIndex, p *Problem) {
	li.p, li.m, li.wpc = p, src.m, src.wpc
	li.words = append(li.words[:0], src.words...)
	li.memo.entries = append(li.memo.entries[:0], src.memo.entries...)
	li.memo.live = append(li.memo.live[:0], src.memo.live...)
}

// remember replaces the memo with one GreC run's choices, ascending by
// client, each tagged with its client's target under zoneServer. The
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

// countInto adds every client's late servers into ci (m × n, zeroed by the
// caller): the cost matrix without a delay read.
func (li *LateIndex) countInto(p *Problem, ci [][]int) {
	for j, z := range p.ClientZones {
		for w, word := range li.clientWords(j) {
			addLateWord(ci, z, w*64, word)
		}
	}
}

// rowWord packs word w of a client's delay row.
func (li *LateIndex) rowWord(row []float64, w int, bound float64) uint64 {
	return lateWord(row[w*64:min(w*64+64, li.m)], bound)
}

// setRow rewrites client j's words from its new delay row and forgets its
// choice.
func (li *LateIndex) setRow(j int, row []float64, bound float64) {
	li.memo.forget(j)
	li.fillRow(j, row, bound)
}

// fillRow writes client j's words from its delay row.
func (li *LateIndex) fillRow(j int, row []float64, bound float64) {
	words := li.clientWords(j)
	for w := range words {
		words[w] = li.rowWord(row, w, bound)
	}
}

// appendClient adds the words of a new last client with the given row. It
// has no choice to forget: swapRemoveClient forgot the index's last holder.
func (li *LateIndex) appendClient(row []float64, bound float64) {
	j := len(li.words) / li.wpc
	li.words = append(li.words, make([]uint64, li.wpc)...)
	li.fillRow(j, row, bound)
}

// swapRemoveClient drops client j's words, renumbering the last client's
// to j, and forgets the choices of both.
func (li *LateIndex) swapRemoveClient(j int) {
	l := len(li.words) - li.wpc
	li.memo.forget(j)
	li.memo.forget(l / li.wpc)
	copy(li.clientWords(j), li.words[l:])
	li.words = li.words[:l]
}

// setBit records whether client j is late at server i after a write of
// that one delay, and forgets j's choice.
func (li *LateIndex) setBit(j, i int, late bool) {
	li.memo.forget(j)
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
// growing every client by a word when m crosses a multiple of 64. Every
// choice is forgotten: the new server is a candidate contact for all.
func (li *LateIndex) appendServer(p *Problem) {
	li.memo.forgetAll()
	i := li.m
	li.m++
	if i%64 == 0 {
		li.restride(li.wpc + 1)
	}
	for j := range p.ClientZones {
		if isLate(p.CSAt(j, i), p.D) {
			li.putBit(j, i, true)
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
	li.m = l
	if l%64 == 0 {
		li.restride(li.wpc - 1)
	}
}

// restride re-lays the words out at wpc words per client, one more or one
// fewer than now, keeping each client's low words and zeroing a new one.
func (li *LateIndex) restride(wpc int) {
	old := li.wpc
	k := len(li.words) / old
	li.wpc = wpc
	if wpc < old {
		for j := 0; j < k; j++ {
			copy(li.words[j*wpc:(j+1)*wpc], li.words[j*old:])
		}
		li.words = li.words[:k*wpc]
		return
	}
	li.words = growCopy(li.words, k*wpc)
	for j := k - 1; j >= 0; j-- {
		copy(li.words[j*wpc:], li.words[j*old:(j+1)*old])
		li.words[j*wpc+old] = 0
	}
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
