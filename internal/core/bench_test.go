package core

import (
	"fmt"
	"runtime"
	"testing"

	"dvecap/internal/xrand"
	"dvecap/telemetry"
)

// benchSyntheticCAP builds a plane-embedded CAP instance of the given shape
// directly (no topology generation), so benchmarks can scale to sizes the
// paper's 500-node substrate cannot express. Zone centres and servers are
// uniform in the unit square; clients scatter around their zone's centre,
// giving the locality structure that makes zone moves meaningful.
func benchSyntheticCAP(seed uint64, m, n, k int) *Problem {
	return benchSyntheticCAPProvisioned(seed, m, n, k, 1.5)
}

// benchSyntheticCAPProvisioned is benchSyntheticCAP with an explicit
// capacity provisioning factor (total capacity as a multiple of total
// target-load demand). 1.5 saturates once forwarding load is added —
// after a solve almost no destination passes the capacity check, so
// zone-move scans are feasibility-bound; 3 leaves the headroom a
// provisioned production system runs with, making the scans
// delta-computation-bound — the regime the candidate-delta cache and the
// sharded scan accelerate.
func benchSyntheticCAPProvisioned(seed uint64, m, n, k int, factor float64) *Problem {
	rng := xrand.New(seed)
	sx := make([]float64, m)
	sy := make([]float64, m)
	for i := range sx {
		sx[i], sy[i] = rng.Float64(), rng.Float64()
	}
	zx := make([]float64, n)
	zy := make([]float64, n)
	for z := range zx {
		zx[z], zy[z] = rng.Float64(), rng.Float64()
	}
	p := &Problem{
		ServerCaps:  make([]float64, m),
		ClientZones: make([]int, k),
		NumZones:    n,
		ClientRT:    make([]float64, k),
		CS:          make([][]float64, k),
		SS:          make([][]float64, m),
		D:           150,
	}
	rtt := func(dx, dy float64) float64 { return 20 + 450*(dx*dx+dy*dy) }
	csFlat := make([]float64, k*m)
	var totalRT float64
	for j := 0; j < k; j++ {
		z := rng.IntN(n)
		p.ClientZones[j] = z
		cx := zx[z] + rng.Norm(0, 0.08)
		cy := zy[z] + rng.Norm(0, 0.08)
		p.ClientRT[j] = rng.Uniform(0.1, 0.3)
		totalRT += p.ClientRT[j]
		p.CS[j], csFlat = csFlat[:m], csFlat[m:]
		for i := 0; i < m; i++ {
			p.CS[j][i] = rtt(cx-sx[i], cy-sy[i])
		}
	}
	ssFlat := make([]float64, m*m)
	for i := 0; i < m; i++ {
		p.SS[i], ssFlat = ssFlat[:m], ssFlat[m:]
		for l := 0; l < m; l++ {
			if l != i {
				p.SS[i][l] = 0.5 * rtt(sx[i]-sx[l], sy[i]-sy[l])
			}
		}
	}
	for i := 0; i < m; i++ {
		p.ServerCaps[i] = factor * totalRT / float64(m) * rng.Uniform(0.9, 1.1)
	}
	return p
}

// benchStart gives the local search a deliberately mediocre starting point:
// the delay-oblivious RanZ-VirC, the paper's baseline.
func benchStart(b *testing.B, p *Problem) *Assignment {
	b.Helper()
	a, err := RanZVirC.Solve(xrand.New(7), p, Options{Overflow: SpillLargestResidual})
	if err != nil {
		b.Fatal(err)
	}
	return a
}

// The medium shape keeps the clone-and-rescore oracle affordable so the
// two implementations can be compared head to head on identical inputs:
//
//	go test ./internal/core -bench='LocalSearch(Incremental|Oracle)Medium' -benchmem
func benchMedium(b *testing.B) (*Problem, *Assignment) {
	b.Helper()
	p := benchSyntheticCAP(42, 20, 80, 2000)
	return p, benchStart(b, p)
}

// BenchmarkLocalSearchIncrementalMedium measures the Evaluator-based local
// search on the medium instance.
func BenchmarkLocalSearchIncrementalMedium(b *testing.B) {
	p, a := benchMedium(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewEvaluator(p, a).LocalSearch(3)
	}
}

// BenchmarkLocalSearchOracleMedium measures the retained clone-and-rescore
// oracle on the same instance — the implementation the Evaluator replaced.
func BenchmarkLocalSearchOracleMedium(b *testing.B) {
	p, a := benchMedium(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		localSearchOracle(p, a, 3)
	}
}

// BenchmarkEvaluatorResetMedium measures rebinding a reused evaluator —
// the fixed cost a churn loop pays per re-optimisation cycle.
func BenchmarkEvaluatorResetMedium(b *testing.B) {
	p, a := benchMedium(b)
	ev := NewEvaluator(p, a)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.Reset(p, a)
	}
}

// BenchmarkOracleLargeLocalSearch runs the clone-and-rescore oracle on the
// churn-scale shape of the repo-root BenchmarkLocalSearch (50 servers /
// 500 zones / 100k clients). One iteration takes minutes; run explicitly
// with -benchtime=1x to document the gap the Evaluator closes. (Named so
// -bench=BenchmarkLocalSearch smoke runs do not match it.)
func BenchmarkOracleLargeLocalSearch(b *testing.B) {
	p := benchSyntheticCAP(271, 50, 500, 100_000)
	a := benchStart(b, p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		localSearchOracle(p, a, 3)
	}
}

// BenchmarkParallelLocalSearch measures the parallel sharded zone-move
// search with candidate-delta caching on the churn-scale scenario — 50
// servers / 500 zones / 100k clients at 3× capacity provisioning (the
// headroom regime where the scan is delta-bound rather than
// feasibility-bound; see benchSyntheticCAPProvisioned), RanZ-VirC start,
// 8 hill-climbing rounds — against the retained cache-free sequential
// rescan ("rescan", the pre-cache implementation, which pays a full
// (zone × server × clients) scan every round). The sweep crosses
// GOMAXPROCS 1 and 4 with worker counts 1, 2 and 4; every variant accepts
// the identical move sequence (TestParallelLocalSearchMatchesSequential),
// so the ratios are pure speedup. BENCH_parallel.json records the
// measured baseline.
//
//	go test ./internal/core -bench=BenchmarkParallelLocalSearch -benchtime=3x
func BenchmarkParallelLocalSearch(b *testing.B) {
	p := benchSyntheticCAPProvisioned(271, 50, 500, 100_000, 3)
	a := benchStart(b, p)
	const rounds = 8
	b.Run("rescan", func(b *testing.B) {
		ev := NewEvaluator(p, a)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ev.Reset(p, a)
			ev.localSearchRescan(rounds)
		}
	})
	for _, gmp := range []int{1, 4} {
		for _, workers := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("gomaxprocs=%d/workers=%d", gmp, workers), func(b *testing.B) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(gmp))
				ev := NewEvaluator(p, a)
				ev.SetWorkers(workers)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					// Reset invalidates the cache: each iteration measures one
					// cold search, cache-build cost included.
					ev.Reset(p, a)
					ev.LocalSearch(rounds)
				}
			})
		}
	}
}

// BenchmarkLocalSearchTelemetry measures the instrumentation tax on the
// evaluator's sharded zone-move search (churn-scale scenario, 4 workers,
// cache-cold per iteration): telemetry detached ("off") against a live
// registry recording cache-row and scan-round series ("on"). The budget is
// 2%; BENCH_observability.json records the measured gap.
func BenchmarkLocalSearchTelemetry(b *testing.B) {
	p := benchSyntheticCAPProvisioned(271, 50, 500, 100_000, 3)
	a := benchStart(b, p)
	const rounds = 8
	for _, on := range []bool{false, true} {
		name := "off"
		if on {
			name = "on"
		}
		b.Run("telemetry="+name, func(b *testing.B) {
			ev := NewEvaluator(p, a)
			ev.SetWorkers(4)
			if on {
				ev.SetTelemetry(telemetry.NewRegistry())
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev.Reset(p, a)
				ev.LocalSearch(rounds)
			}
		})
	}
}

// BenchmarkGreZWorkspaceReuse measures the greedy zone assignment with a
// reused workspace (compare BenchmarkGreZ at the repo root, which solves
// scratch-free).
func BenchmarkGreZWorkspaceReuse(b *testing.B) {
	p := benchSyntheticCAP(42, 20, 80, 2000)
	opt := Options{Overflow: SpillLargestResidual, Scratch: NewWorkspace()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := GreZ(nil, p, opt); err != nil {
			b.Fatal(err)
		}
	}
}
