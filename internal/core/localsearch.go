package core

// score is the lexicographic objective of the local search.
type score struct {
	withQoS int
	rapCost float64
	// traffic is the weighted cross-server interaction cost λ × cut
	// (DESIGN.md §15). It shares the second lexicographic level with the
	// RAP cost — quality = rapCost + traffic — so traffic never trades
	// against the QoS count, only against residual delay excess. Always
	// exactly 0.0 when the traffic term is off, which keeps every
	// comparison bit-identical to the pre-traffic objective (x + 0.0 ≡ x).
	traffic float64
	load    float64
}

// quality is the second lexicographic level: RAP cost plus the weighted
// traffic term. With traffic off this is bitwise the RAP cost.
func (s score) quality() float64 { return s.rapCost + s.traffic }

// betterThan compares scores lexicographically. Float components are
// compared through the shared tolerance helper so that incremental
// accumulation and full re-summation — which differ only by rounding —
// order candidates identically.
func (s score) betterThan(o score) bool {
	if s.withQoS != o.withQoS {
		return s.withQoS > o.withQoS
	}
	if sq, oq := s.quality(), o.quality(); !almostEq(sq, oq) {
		return sq < oq
	}
	return s.load < o.load && !almostEq(s.load, o.load)
}
