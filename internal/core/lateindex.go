package core

import (
	"fmt"
	"math/bits"
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
	p     *Problem // the problem the words describe; nil while unfilled
	m     int      // servers covered
	wpc   int      // words per client, ⌈m/64⌉
	words []uint64 // client-major, clients × wpc; spare high bits are zero
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

// Verify recomputes every client's words from p's delay rows and returns
// the first disagreement; an index not valid for p asserts nothing. For
// tests and self-checks, O(clients × servers).
func (li *LateIndex) Verify(p *Problem) error {
	if !li.ValidFor(p) {
		return nil
	}
	buf := make([]float64, li.m)
	for j := range p.ClientZones {
		row := p.CSRow(j, buf)
		for w, have := range li.clientWords(j) {
			if want := li.rowWord(row, w, p.D); have != want {
				return fmt.Errorf("core: late index client %d word %d is %#x, delay row gives %#x", j, w, have, want)
			}
		}
	}
	return nil
}

// bind sizes the index for p ahead of a filling pass, which must setRow
// every client.
func (li *LateIndex) bind(p *Problem) {
	li.p, li.m = p, p.NumServers()
	li.wpc = (li.m + 63) / 64
	li.words = grow(li.words, p.NumClients()*li.wpc)
}

// drop invalidates the index; the next cost-matrix build refills it.
func (li *LateIndex) drop() { li.p = nil }

// CopyFrom makes li a copy of src rebound to p, a clone of the problem src
// is valid for. The words are copied, never shared: the two owners maintain
// their indexes apart from then on.
func (li *LateIndex) CopyFrom(src *LateIndex, p *Problem) {
	li.p, li.m, li.wpc = p, src.m, src.wpc
	li.words = append(li.words[:0], src.words...)
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

// setRow rewrites client j's words from its delay row.
func (li *LateIndex) setRow(j int, row []float64, bound float64) {
	words := li.clientWords(j)
	for w := range words {
		words[w] = li.rowWord(row, w, bound)
	}
}

// appendClient adds the words of a new last client with the given row.
func (li *LateIndex) appendClient(row []float64, bound float64) {
	j := len(li.words) / li.wpc
	li.words = append(li.words, make([]uint64, li.wpc)...)
	li.setRow(j, row, bound)
}

// swapRemoveClient drops client j's words, renumbering the last client's
// to j.
func (li *LateIndex) swapRemoveClient(j int) {
	l := len(li.words) - li.wpc
	copy(li.clientWords(j), li.words[l:])
	li.words = li.words[:l]
}

// setBit records whether client j is late at server i.
func (li *LateIndex) setBit(j, i int, late bool) {
	word, bit := &li.words[j*li.wpc+i>>6], uint64(1)<<(uint(i)&63)
	if late {
		*word |= bit
	} else {
		*word &^= bit
	}
}

// appendServer adds the column of p's new last server (already stored),
// growing every client by a word when m crosses a multiple of 64.
func (li *LateIndex) appendServer(p *Problem) {
	i := li.m
	li.m++
	if i%64 == 0 {
		li.restride(li.wpc + 1)
	}
	for j := range p.ClientZones {
		if isLate(p.CSAt(j, i), p.D) {
			li.setBit(j, i, true)
		}
	}
}

// swapRemoveServer drops server i's column, renumbering the last server's
// to i, and sheds the word the last server was alone in.
func (li *LateIndex) swapRemoveServer(i int) {
	l := li.m - 1
	for j := 0; j < len(li.words)/li.wpc; j++ {
		li.setBit(j, i, li.has(j, l))
		li.setBit(j, l, false)
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
