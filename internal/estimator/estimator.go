// Package estimator models imperfect network-delay measurement, the
// paper's §4.2 "impact of imperfect input data" study. Real systems obtain
// client-server delays from scalable estimation services — King (Gummadi et
// al., IMW 2002) or IDMaps (Francis et al., ToN 2001) — whose estimates
// carry multiplicative error. Following the paper (which follows Qiu,
// Padmanabhan & Voelker), an estimate of a true delay d is drawn uniformly
// from [d/e, d·e], with e = 1.2 matching King's published accuracy and
// e = 2.0 matching IDMaps'.
package estimator

import (
	"fmt"

	"dvecap/internal/core"
	"dvecap/internal/xrand"
)

// Model is a multiplicative delay-estimation error model.
type Model struct {
	// Name labels the modelled measurement service.
	Name string
	// Factor is the error factor e ≥ 1: estimates fall in [d/e, d·e].
	Factor float64
	// PerturbCS / PerturbSS select which delay matrices are affected.
	// The paper's input data "includes the client-server and inter-server
	// round-trip network delays", so both default to true.
	PerturbCS bool
	PerturbSS bool
}

// King returns the error model of the King measurement tool (e = 1.2).
func King() Model {
	return Model{Name: "King", Factor: 1.2, PerturbCS: true, PerturbSS: true}
}

// IDMaps returns the error model of the IDMaps service (e = 2.0).
func IDMaps() Model {
	return Model{Name: "IDMaps", Factor: 2.0, PerturbCS: true, PerturbSS: true}
}

// WithFactor returns a custom-error model.
func WithFactor(e float64) Model {
	return Model{Name: fmt.Sprintf("e=%.2f", e), Factor: e, PerturbCS: true, PerturbSS: true}
}

// Validate reports whether the model is usable.
func (m Model) Validate() error {
	if m.Factor < 1 {
		return fmt.Errorf("estimator: factor %v, want >= 1", m.Factor)
	}
	return nil
}

// estimate draws one noisy observation of true delay d.
func (m Model) estimate(rng *xrand.RNG, d float64) float64 {
	if m.Factor == 1 || d == 0 {
		return d
	}
	return rng.Uniform(d/m.Factor, d*m.Factor)
}

// PerturbProblem returns a copy of truth whose delay matrices are replaced
// by noisy estimates. The returned problem is what an assignment algorithm
// would see in production; evaluate its output against the original truth.
// Inter-server estimates stay symmetric (one draw per unordered pair), as
// a measurement service reports a single value per path.
func (m Model) PerturbProblem(rng *xrand.RNG, truth *core.Problem) (*core.Problem, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	k, srv := truth.NumClients(), truth.NumServers()
	cs := make([][]float64, k)
	csFlat := make([]float64, k*srv)
	for j := 0; j < k; j++ {
		cs[j], csFlat = csFlat[:srv], csFlat[srv:]
		for i := 0; i < srv; i++ {
			if m.PerturbCS {
				cs[j][i] = m.estimate(rng, truth.CSAt(j, i))
			} else {
				cs[j][i] = truth.CSAt(j, i)
			}
		}
	}
	ss := make([][]float64, srv)
	ssFlat := make([]float64, srv*srv)
	for i := range ss {
		ss[i], ssFlat = ssFlat[:srv], ssFlat[srv:]
	}
	for i := 0; i < srv; i++ {
		for l := i + 1; l < srv; l++ {
			d := truth.SS[i][l]
			if m.PerturbSS {
				d = m.estimate(rng, d)
			}
			ss[i][l], ss[l][i] = d, d
		}
	}
	// The estimates replace every delay; the rest of the copy is the truth's
	// own, which a solve only reads.
	est := *truth
	est.CS, est.SS, est.Delays = cs, ss, nil
	return &est, nil
}
