package repair

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"dvecap/internal/core"
	"dvecap/internal/xrand"
)

// plannerBytes serialises everything a refused write must leave alone: the
// planner's exported state (assignment, evaluator accumulators, counters,
// RNG position) and every stored delay.
func plannerBytes(t *testing.T, pl *Planner) []byte {
	t.Helper()
	st, err := pl.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(struct {
		State     *State
		Delays    [][]float64
		ServerCap []float64
	}{st, pl.Problem().DenseRows(), pl.Problem().ServerCaps})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDelayWritersCheckEntries drives a bad delay entry through each of the
// planner's five delay-storing entry points, over every delay storage. A
// negative entry is refused before anything is applied — the whole batch,
// in the batch forms — and a NaN (unmeasured) or +Inf entry is stored in a
// form the full Problem.Validate accepts. Either way the next full solve
// succeeds: the solve trusts these checks instead of re-reading every
// stored entry (core.TwoPhase.SolveOwned), and a stored negative used to
// fail every full solve until its client left.
func TestDelayWritersCheckEntries(t *testing.T) {
	entries := []struct {
		name    string
		v       float64
		refused bool
	}{
		{"negative", -1, true},
		{"-Inf", math.Inf(-1), true},
		{"NaN", math.NaN(), false},
		{"+Inf", math.Inf(1), false},
	}
	// Each writer stores rows or a column that are valid except for one
	// entry, placed past the first item so a batch has applied-looking work
	// before it.
	writers := []struct {
		name  string
		write func(pl *Planner, rng *xrand.RNG, bad float64) error
	}{
		{"Join", func(pl *Planner, rng *xrand.RNG, bad float64) error {
			row := randRow(rng, pl.NumServers())
			row[1] = bad
			_, err := pl.Join(0, 0.1, row)
			return err
		}},
		{"JoinBatch", func(pl *Planner, rng *xrand.RNG, bad float64) error {
			css := [][]float64{randRow(rng, pl.NumServers()), randRow(rng, pl.NumServers()), randRow(rng, pl.NumServers())}
			css[1][0] = bad
			return pl.JoinBatch([]int{0, 1, 0}, []float64{0.1, 0.2, 0.1}, css)
		}},
		{"UpdateDelays", func(pl *Planner, rng *xrand.RNG, bad float64) error {
			row := randRow(rng, pl.NumServers())
			row[pl.NumServers()-1] = bad
			return pl.UpdateDelays(0, row)
		}},
		{"AddServer", func(pl *Planner, rng *xrand.RNG, bad float64) error {
			col := randRow(rng, pl.NumClients())
			col[1] = bad
			_, err := pl.AddServer(5, randRow(rng, pl.NumServers()), col)
			return err
		}},
		{"UpdateServerDelayColumn", func(pl *Planner, rng *xrand.RNG, bad float64) error {
			return pl.UpdateServerDelayColumn(1, []int{0, 1}, []float64{rng.Uniform(0, 500), bad})
		}},
	}
	storages := []struct {
		name  string
		build func(*core.Problem) *core.Problem
	}{
		{"dense", func(p *core.Problem) *core.Problem { return p }},
		{core.ProviderCoord, coordBacked},
	}
	for _, st := range storages {
		for _, w := range writers {
			for _, e := range entries {
				t.Run(st.name+"/"+w.name+"/"+e.name, func(t *testing.T) {
					rng := xrand.New(4711)
					pl, err := New(testConfig(), st.build(randProblem(rng.Split(), 8)), rng.Split())
					if err != nil {
						t.Fatal(err)
					}
					before := plannerBytes(t, pl)
					err = w.write(pl, rng, e.v)
					if e.refused {
						if err == nil || !strings.Contains(err.Error(), "want >= 0 (NaN marks unmeasured)") {
							t.Fatalf("%s stored a %v delay: error %v", w.name, e.v, err)
						}
						if after := plannerBytes(t, pl); !bytes.Equal(before, after) {
							t.Fatalf("refused %s changed the planner:\nbefore %s\nafter  %s", w.name, before, after)
						}
						audit(t, pl)
					} else {
						if err != nil {
							t.Fatalf("%s refused a %v delay: %v", w.name, e.v, err)
						}
						if err := pl.Problem().Validate(); err != nil {
							t.Fatalf("%s stored a %v delay the full validation rejects: %v", w.name, e.v, err)
						}
					}
					if err := pl.FullSolve(); err != nil {
						t.Fatalf("full solve after %s(%v): %v", w.name, e.v, err)
					}
					if err := pl.Problem().Validate(); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}
