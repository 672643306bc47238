package repair

import (
	"math"
	"testing"
	"time"

	"dvecap/internal/core"
	"dvecap/internal/xrand"
	"dvecap/telemetry"
)

// TestSolvePhasesSumToFullSolve: with a registry attached, every phase of
// dvecap_solve_phase_seconds — the solve's and adopt — is observed once a
// full solve, and together they sum to dvecap_full_solve_duration_seconds
// within 5 %: the phases cover the solve end to end, leaving out only the
// planner's bookkeeping after the adoption. Without a registry the
// workspace's phase clock stays disarmed.
func TestSolvePhasesSumToFullSolve(t *testing.T) {
	const m, n, k, solves = 20, 50, 20000, 5
	rng := xrand.New(41)
	p := &core.Problem{
		ServerCaps:  make([]float64, m),
		ClientZones: make([]int, k),
		NumZones:    n,
		ClientRT:    make([]float64, k),
		CS:          make([][]float64, k),
		SS:          make([][]float64, m),
		D:           250,
	}
	for i := range p.SS {
		p.SS[i] = make([]float64, m)
		for l := range p.SS[i] {
			if l != i {
				p.SS[i][l] = rng.Uniform(5, 60)
			}
		}
		p.ServerCaps[i] = 1.3 * k * 0.1 / m
	}
	for j := range p.CS {
		p.ClientZones[j], p.ClientRT[j], p.CS[j] = rng.IntN(n), 0.1, randRow(rng, m)
	}
	pl, err := New(testConfig(), p, rng.Split())
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.FullSolve(); err != nil {
		t.Fatal(err)
	}
	if spent, _ := pl.cfg.Opt.Scratch.PhaseTimes(); spent != [core.NumPhases]time.Duration{} {
		t.Fatalf("a solve without telemetry timed its phases: %v", spent)
	}

	reg := telemetry.NewRegistry()
	pl.SetTelemetry(reg)
	for s := 0; s < solves; s++ {
		for e := 0; e < 200; e++ {
			if err := pl.Move(rng.IntN(k), rng.IntN(n)); err != nil {
				t.Fatal(err)
			}
			if err := pl.UpdateDelays(rng.IntN(k), randRow(rng, m)); err != nil {
				t.Fatal(err)
			}
		}
		if err := pl.FullSolve(); err != nil {
			t.Fatal(err)
		}
	}
	total := reg.Histogram("dvecap_full_solve_duration_seconds", "", nil)
	if total.Count() != solves {
		t.Fatalf("%d full solves observed, want %d", total.Count(), solves)
	}
	sum := 0.0
	for _, name := range solvePhaseNames {
		h := reg.Histogram("dvecap_solve_phase_seconds", "", nil, "phase", name)
		if h.Count() != solves {
			t.Fatalf("phase %s observed %d times, want %d", name, h.Count(), solves)
		}
		sum += h.Sum()
	}
	if d := math.Abs(sum - total.Sum()); d > 0.05*total.Sum() {
		t.Fatalf("phases sum to %.6f s, full solves took %.6f s: %.1f %% apart, want within 5 %%", sum, total.Sum(), 100*d/total.Sum())
	}
}
