package estimator

import (
	"math"
	"testing"

	"dvecap/internal/core"
	"dvecap/internal/xrand"
)

func sampleProblem() *core.Problem {
	return &core.Problem{
		ServerCaps:  []float64{10, 10, 10},
		ClientZones: []int{0, 0, 1, 1},
		NumZones:    2,
		ClientRT:    []float64{1, 1, 1, 1},
		CS: [][]float64{
			{100, 200, 300},
			{150, 250, 350},
			{120, 220, 320},
			{130, 230, 330},
		},
		SS: [][]float64{
			{0, 40, 60},
			{40, 0, 80},
			{60, 80, 0},
		},
		D: 250,
	}
}

// TestPerfectModelIsIdentity: over raw rows and over the exact store, the
// estimate is raw rows equal to the truth's delays, and no store of the
// truth's rides along.
func TestPerfectModelIsIdentity(t *testing.T) {
	for _, truth := range []*core.Problem{sampleProblem(), sampleProblem().Clone()} {
		got, err := (Model{Name: "perfect", Factor: 1, PerturbCS: true, PerturbSS: true}).PerturbProblem(xrand.New(1), truth)
		if err != nil {
			t.Fatal(err)
		}
		if got.Delays != nil {
			t.Fatal("the estimate kept the truth's delay store")
		}
		for j := 0; j < truth.NumClients(); j++ {
			for i := 0; i < truth.NumServers(); i++ {
				if got.CS[j][i] != truth.CSAt(j, i) {
					t.Fatalf("perfect model changed CS[%d][%d]", j, i)
				}
			}
		}
		for i := range truth.SS {
			for l := range truth.SS[i] {
				if got.SS[i][l] != truth.SS[i][l] {
					t.Fatalf("perfect model changed SS[%d][%d]", i, l)
				}
			}
		}
	}
}

func TestPerturbationBounds(t *testing.T) {
	truth := sampleProblem()
	for _, m := range []Model{King(), IDMaps(), WithFactor(3)} {
		got, err := m.PerturbProblem(xrand.New(7), truth)
		if err != nil {
			t.Fatal(err)
		}
		for j := range truth.CS {
			for i := range truth.CS[j] {
				d, e := truth.CS[j][i], m.Factor
				if got.CS[j][i] < d/e-1e-9 || got.CS[j][i] > d*e+1e-9 {
					t.Fatalf("%s: estimate %v outside [%v,%v]", m.Name, got.CS[j][i], d/e, d*e)
				}
			}
		}
	}
}

func TestPerturbationKeepsSSSymmetricZeroDiagonal(t *testing.T) {
	truth := sampleProblem()
	got, err := IDMaps().PerturbProblem(xrand.New(3), truth)
	if err != nil {
		t.Fatal(err)
	}
	n := len(got.SS)
	for i := 0; i < n; i++ {
		if got.SS[i][i] != 0 {
			t.Fatalf("diagonal perturbed: SS[%d][%d] = %v", i, i, got.SS[i][i])
		}
		for l := 0; l < n; l++ {
			if got.SS[i][l] != got.SS[l][i] {
				t.Fatalf("asymmetric estimate at (%d,%d)", i, l)
			}
		}
	}
}

func TestPerturbedProblemStillValid(t *testing.T) {
	truth := sampleProblem()
	got, err := IDMaps().PerturbProblem(xrand.New(9), truth)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTruthUntouched(t *testing.T) {
	truth := sampleProblem()
	before := truth.CS[0][0]
	if _, err := IDMaps().PerturbProblem(xrand.New(11), truth); err != nil {
		t.Fatal(err)
	}
	if truth.CS[0][0] != before {
		t.Fatal("PerturbProblem mutated the truth")
	}
}

func TestSelectivePerturbation(t *testing.T) {
	truth := sampleProblem()
	m := IDMaps()
	m.PerturbSS = false
	got, err := m.PerturbProblem(xrand.New(13), truth)
	if err != nil {
		t.Fatal(err)
	}
	for i := range truth.SS {
		for l := range truth.SS[i] {
			if got.SS[i][l] != truth.SS[i][l] {
				t.Fatal("SS perturbed despite PerturbSS=false")
			}
		}
	}
	changed := false
	for j := range truth.CS {
		for i := range truth.CS[j] {
			if got.CS[j][i] != truth.CS[j][i] {
				changed = true
			}
		}
	}
	if !changed {
		t.Fatal("CS not perturbed despite PerturbCS=true")
	}
}

func TestErrorMeanIsRoughlyUnbiasedInLog(t *testing.T) {
	// Uniform on [d/e, d·e] has mean d(e+1/e)/2 ≥ d — slight upward bias,
	// exactly like the cited error model. Just sanity-check the spread.
	m := WithFactor(2)
	rng := xrand.New(17)
	d := 100.0
	var sum float64
	n := 20000
	for i := 0; i < n; i++ {
		sum += m.estimate(rng, d)
	}
	mean := sum / float64(n)
	want := d * (2 + 0.5) / 2 // 125
	if math.Abs(mean-want) > 2 {
		t.Fatalf("empirical mean %v, want ≈%v", mean, want)
	}
}

func TestValidateRejectsBadFactor(t *testing.T) {
	m := WithFactor(0.5)
	if err := m.Validate(); err == nil {
		t.Fatal("factor < 1 accepted")
	}
	if _, err := m.PerturbProblem(xrand.New(1), sampleProblem()); err == nil {
		t.Fatal("PerturbProblem accepted bad factor")
	}
}
