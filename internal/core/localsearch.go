package core

// LocalSearchOpt is a best-improvement hill climber layered on top of any
// two-phase result — an extension beyond the paper used to measure how much
// headroom the greedy heuristics leave (DESIGN.md §5). Two neighbourhoods:
//
//  1. zone moves: rehost one zone on a different server with capacity for
//     it; clients of the zone whose contact was the old target follow to
//     the new target, other contacts are kept;
//  2. contact switches: change one client's contact server (respecting the
//     2×RT forwarding load on a non-target contact).
//
// Moves are accepted when they improve (WithQoS, -RAPCost, -totalLoad)
// lexicographically. The search stops after maxRounds full passes or when
// no move improves.
//
// Scoring is incremental: the search runs on an Evaluator, so a zone move
// costs O(clients of the zone) and a contact switch O(1), with no cloning
// and no per-candidate allocation. The zone-move scan runs through the
// evaluator's candidate-delta cache, so rounds after the first pay only
// for zones the previous round touched (DESIGN.md §8). localSearchOracle
// retains the original clone-and-rescore implementation as a test oracle;
// the equivalence tests in evaluator_test.go prove both accept identical
// move sequences. To amortise the evaluator's buffers across repeated
// searches (replication or churn loops), hold an Evaluator, Reset it, and
// call its LocalSearch method directly.
//
// Options.Workers > 1 shards the zone-move candidate scan across that many
// goroutines (Workers < 0 uses all CPUs), with accepted moves bit-identical
// to the sequential scan for every worker count — see parallel_test.go.
func LocalSearchOpt(p *Problem, a *Assignment, maxRounds int, opt Options) *Assignment {
	ev := NewEvaluator(p, a)
	ev.SetWorkers(opt.workerCount())
	ev.LocalSearch(maxRounds)
	return ev.Assignment()
}

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
