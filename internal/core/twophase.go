package core

import (
	"fmt"
	"sort"

	"dvecap/internal/xrand"
)

// TwoPhase is a complete CAP algorithm: an initial (zone) assigner combined
// with a refined (contact) assigner, named like the paper ("GreZ-GreC").
type TwoPhase struct {
	Name   string
	Init   IAPFunc
	Refine RAPFunc
}

// Solve runs both phases and returns the resulting assignment. The
// returned assignment is always freshly allocated and safe to retain;
// callers that solve repeatedly (replication or churn loops) should set
// Options.Scratch so both phases reuse their internal buffers — cost
// matrices, candidate pairs, load accumulators — across calls. The problem
// is fully validated first, every stored delay entry included: the entry
// for every caller that was handed its problem.
func (tp TwoPhase) Solve(rng *xrand.RNG, p *Problem, opt Options) (*Assignment, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", tp.Name, err)
	}
	return tp.SolveOwned(rng, p, opt)
}

// SolveOwned is Solve for the owner of every writer of p's delay entries,
// who refuses a bad entry where it is written (the repair planner): the
// shape and scalar checks and the assignment's validation still run, the
// O(clients × servers) re-read of stored entries does not.
func (tp TwoPhase) SolveOwned(rng *xrand.RNG, p *Problem, opt Options) (*Assignment, error) {
	if err := p.validateShape(); err != nil {
		return nil, fmt.Errorf("%s: %w", tp.Name, err)
	}
	zoneServer, err := tp.Init(rng, p, opt)
	if err != nil {
		return nil, fmt.Errorf("%s initial phase: %w", tp.Name, err)
	}
	contact, err := tp.Refine(rng, p, zoneServer, opt)
	if err != nil {
		return nil, fmt.Errorf("%s refined phase: %w", tp.Name, err)
	}
	a := &Assignment{ZoneServer: zoneServer, ClientContact: contact}
	if err := a.Validate(p); err != nil {
		return nil, fmt.Errorf("%s produced invalid assignment: %w", tp.Name, err)
	}
	return a, nil
}

// The paper's four two-phase algorithms (§3.3), plus extensions.
var (
	RanZVirC = TwoPhase{Name: "RanZ-VirC", Init: RanZ, Refine: VirC}
	RanZGreC = TwoPhase{Name: "RanZ-GreC", Init: RanZ, Refine: GreC}
	GreZVirC = TwoPhase{Name: "GreZ-VirC", Init: GreZ, Refine: VirC}
	GreZGreC = TwoPhase{Name: "GreZ-GreC", Init: GreZ, Refine: GreC}

	// DynZGreC uses the recomputing (dynamic-regret) zone assigner; an
	// ablation of the paper's compute-once pseudocode.
	DynZGreC = TwoPhase{Name: "DynZ-GreC", Init: GreZDynamic, Refine: GreC}
)

// PaperAlgorithms returns the four algorithms of the paper, in the order
// the tables report them.
func PaperAlgorithms() []TwoPhase {
	return []TwoPhase{RanZVirC, RanZGreC, GreZVirC, GreZGreC}
}

// registry of all known algorithms for lookup by name.
var registry = map[string]TwoPhase{
	RanZVirC.Name: RanZVirC,
	RanZGreC.Name: RanZGreC,
	GreZVirC.Name: GreZVirC,
	GreZGreC.Name: GreZGreC,
	DynZGreC.Name: DynZGreC,
}

// ByName looks an algorithm up by its paper name (e.g. "GreZ-GreC").
func ByName(name string) (TwoPhase, bool) {
	tp, ok := registry[name]
	return tp, ok
}

// AlgorithmNames returns all registered algorithm names, sorted.
func AlgorithmNames() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
