// Package xrand provides deterministic, splittable random number utilities
// used throughout dvecap. Every stochastic component (topology generation,
// client placement, algorithm randomisation, churn) draws from an xrand.RNG
// derived from a single experiment seed, so that any result in the paper
// reproduction can be regenerated bit-for-bit from that one seed.
//
// The package wraps math/rand's PCG-backed sources (Go 1.22+) and adds the
// handful of distributions the simulation needs: bounded uniforms, integer
// ranges, Bernoulli trials, exponential inter-arrival times,
// Dirichlet-like simplex splits and sampling without replacement.
package xrand

import (
	"math/rand/v2"
)

// RNG is a deterministic random number generator. It is NOT safe for
// concurrent use; derive one per goroutine with Split.
type RNG struct {
	src *rand.Rand
	// pcg retains the underlying source so State can marshal the stream
	// position (rand.Rand hides it).
	pcg *rand.PCG
	// seq tracks how many child generators have been split off, so that
	// repeated Split calls yield independent, reproducible streams.
	seq uint64
	// seed records the construction seed for diagnostics.
	seed uint64
}

// New returns an RNG seeded with the given value. Two RNGs constructed with
// the same seed produce identical streams.
func New(seed uint64) *RNG {
	pcg := rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)
	return &RNG{src: rand.New(pcg), pcg: pcg, seed: seed}
}

// Seed reports the seed this RNG was constructed with.
func (r *RNG) Seed() uint64 { return r.seed }

// State is the serializable form of an RNG: the construction seed, the
// split counter and the marshalled PCG stream position. Restore rebuilds a
// generator that continues both the value stream and the Split derivation
// sequence exactly where State captured them — the foundation of durable
// sessions, whose snapshots must resume bit-identical trajectories.
type State struct {
	Seed uint64 `json:"seed"`
	Seq  uint64 `json:"seq"`
	// Src is the PCG source's binary marshalling (encoding/json emits it
	// base64-encoded).
	Src []byte `json:"src"`
}

// State captures the RNG's current position.
func (r *RNG) State() (State, error) {
	b, err := r.pcg.MarshalBinary()
	if err != nil {
		return State{}, err
	}
	return State{Seed: r.seed, Seq: r.seq, Src: b}, nil
}

// Restore rebuilds the RNG a State captured: same seed, same split
// counter, same stream position.
func Restore(st State) (*RNG, error) {
	r := New(st.Seed)
	r.seq = st.Seq
	if len(st.Src) > 0 {
		if err := r.pcg.UnmarshalBinary(st.Src); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// Split derives an independent child generator. The child's stream is a
// pure function of the parent's seed and the number of prior splits, so a
// fixed derivation order yields fixed child streams regardless of how many
// values the parent has consumed in between.
func (r *RNG) Split() *RNG {
	r.seq++
	child := splitMix(r.seed + r.seq*0xbf58476d1ce4e5b9)
	return New(child)
}

// SplitN derives the n-th child directly, independent of prior Split calls:
// for n >= 1, SplitN(n) yields the same stream as the n-th Split() from a
// fresh parent. n = 0 is yet another independent stream. Useful to hand
// goroutine i its own reproducible generator.
func (r *RNG) SplitN(n uint64) *RNG {
	child := splitMix(r.seed + n*0xbf58476d1ce4e5b9)
	return New(child)
}

// splitMix is the SplitMix64 finalizer; it decorrelates sequential seeds.
func splitMix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Float64 returns a uniform value in [0,1).
func (r *RNG) Float64() float64 { return r.src.Float64() }

// Uniform returns a uniform value in [lo,hi).
func (r *RNG) Uniform(lo, hi float64) float64 { return lo + (hi-lo)*r.src.Float64() }

// IntN returns a uniform integer in [0,n). It panics if n <= 0.
func (r *RNG) IntN(n int) int { return r.src.IntN(n) }

// IntRange returns a uniform integer in [lo,hi]. It panics if hi < lo.
func (r *RNG) IntRange(lo, hi int) int {
	if hi < lo {
		panic("xrand: IntRange with hi < lo")
	}
	return lo + r.src.IntN(hi-lo+1)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.src.Float64() < p }

// Exp returns an exponentially distributed value with the given rate
// (mean 1/rate). It panics if rate <= 0.
func (r *RNG) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("xrand: Exp with non-positive rate")
	}
	return r.src.ExpFloat64() / rate
}

// Norm returns a normally distributed value with the given mean and
// standard deviation.
func (r *RNG) Norm(mean, stddev float64) float64 {
	return mean + stddev*r.src.NormFloat64()
}

// Perm returns a random permutation of [0,n).
func (r *RNG) Perm(n int) []int { return r.src.Perm(n) }

// Simplex splits total into n non-negative parts that sum to total, each at
// least minimum. It panics if n*minimum > total. The split is a uniform
// Dirichlet(1,...,1) sample of the residual mass, used e.g. to allocate
// server capacities with a per-server floor.
func (r *RNG) Simplex(n int, total, minimum float64) []float64 {
	if n <= 0 {
		panic("xrand: Simplex with n <= 0")
	}
	residual := total - float64(n)*minimum
	if residual < 0 {
		panic("xrand: Simplex minimum exceeds total")
	}
	// Sample n-1 cut points in [0,residual], sort via insertion (n is small),
	// and use the gaps as shares.
	cuts := make([]float64, n+1)
	cuts[0], cuts[n] = 0, residual
	for i := 1; i < n; i++ {
		cuts[i] = r.Uniform(0, residual)
	}
	insertionSort(cuts)
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		out[i] = minimum + (cuts[i+1] - cuts[i])
	}
	return out
}

func insertionSort(a []float64) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] > v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}

// SampleWithout returns k distinct integers drawn uniformly from [0,n)
// using a partial Fisher–Yates pass. It panics if k > n or k < 0.
func (r *RNG) SampleWithout(n, k int) []int {
	if k < 0 || k > n {
		panic("xrand: SampleWithout k out of range")
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + r.src.IntN(n-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx[:k]
}
