// Package bench is the repository's end-to-end benchmark: four long,
// deterministic workloads driven through the public surfaces of the
// director service and the dvecap library, nine end-to-end metrics, and a
// traced "layered replay" run that times the same operation stream at each
// module boundary. README.md documents every metric, workload and design
// rule; capbench/main.go is the command.
package bench

import (
	"math"
	"sort"
)

// latencies collects per-call durations in nanoseconds. int32 keeps a
// 200k-sample phase under a megabyte, so the recorder does not distort
// live_heap_mb; a call slower than ~2.1 s saturates.
type latencies []int32

func (l *latencies) add(ns int64) {
	if ns > math.MaxInt32 {
		ns = math.MaxInt32
	}
	*l = append(*l, int32(ns))
}

// sortedCopy returns the samples as ascending float64 nanoseconds.
func (l latencies) sortedCopy() []float64 {
	out := make([]float64, len(l))
	for i, v := range l {
		out[i] = float64(v)
	}
	sort.Float64s(out)
	return out
}

// percentile returns the q-quantile (0 ≤ q ≤ 1) of an ascending slice by
// linear interpolation between closest ranks; NaN on an empty slice.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// median returns the middle value of xs (which it sorts in place).
func median(xs []float64) float64 {
	sort.Float64s(xs)
	return percentile(xs, 0.5)
}

// quartiles returns the first quartile, median and third quartile of xs the
// way Python's statistics.quantiles(xs, n=4) computes them (the exclusive
// method), because that is the rule the acceptance gate applies to repeated
// runs. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based rank
		j := int(math.Floor(pos))
		delta := pos - float64(j)
		if j < 1 {
			j, delta = 1, 0
		}
		if j > n-1 {
			j, delta = n-1, 1
		}
		return s[j-1] + delta*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// highestPercentile names the highest of p99 / p99.9 that still has at
// least ten samples beyond it, and its value — the tail this sample size
// supports.
func highestPercentile(sorted []float64) (name string, value float64) {
	n := float64(len(sorted))
	switch {
	case n*0.001 >= 10:
		return "p99.9", percentile(sorted, 0.999)
	case n*0.01 >= 10:
		return "p99", percentile(sorted, 0.99)
	default:
		return "p50", percentile(sorted, 0.5)
	}
}

// segments accumulates the measured phase as a fixed number of
// equal-call-count slices, each holding the client-level mutations it
// completed, the time spent inside the system for them, and when (on the
// weather clock) it began and ended.
type segments struct {
	per      int // calls per segment
	calls    int // calls in the last segment
	ops, ns  []float64
	from, to []float64
}

func newSegments(totalCalls, n int) *segments {
	return &segments{per: max(totalCalls/n, 1)}
}

func (s *segments) add(mutations int, ns int64, now float64) {
	if len(s.ops) == 0 || s.calls == s.per {
		s.ops, s.ns, s.calls = append(s.ops, 0), append(s.ns, 0), 0
		s.from, s.to = append(s.from, now), append(s.to, now)
	}
	last := len(s.ops) - 1
	s.ops[last] += float64(mutations)
	s.ns[last] += float64(ns)
	s.to[last] = now
	s.calls++
}

// full is the number of complete segments; a trailing partial one (call
// count not divisible) is left out of every statistic.
func (s *segments) full() int {
	if s.calls < s.per {
		return len(s.ops) - 1
	}
	return len(s.ops)
}

// rates is each full segment's mutations per second of time in the system.
func (s *segments) rates() []float64 {
	out := make([]float64, s.full())
	for i := range out {
		out[i] = s.ops[i] / (s.ns[i] / 1e9)
	}
	return out
}

// chunkMedians splits samples (in time order) into n equal-count chunks
// and returns each chunk's median, in nanoseconds, with the chunk's bounds.
func chunkMedians(l latencies, n int) (p50 []float64, lo, hi []int) {
	per := len(l) / n
	if per < 1 {
		per, n = 1, len(l)
	}
	for i := 0; i < n; i++ {
		p50 = append(p50, percentile(l[i*per:(i+1)*per].sortedCopy(), 0.5))
		lo, hi = append(lo, i*per), append(hi, (i+1)*per-1)
	}
	return p50, lo, hi
}
