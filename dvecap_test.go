package dvecap

import (
	"math"
	"strings"
	"testing"
)

func TestNewScenarioDefaults(t *testing.T) {
	scn, err := NewScenario(ScenarioParams{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := scn.world.Cfg
	if cfg.Scenario() != "20s-80z-1000c-500cp" {
		t.Fatalf("default scenario = %s", cfg.Scenario())
	}
	if scn.NumClients() != 1000 {
		t.Fatalf("clients = %d", scn.NumClients())
	}
}

func TestNewScenarioNotation(t *testing.T) {
	scn, err := NewScenario(ScenarioParams{Seed: 1, Notation: "5s-15z-200c-100cp"})
	if err != nil {
		t.Fatal(err)
	}
	cfg := scn.world.Cfg
	if cfg.Servers != 5 || cfg.Zones != 15 || cfg.Clients != 200 {
		t.Fatalf("notation not applied: %+v", cfg)
	}
}

func TestNewScenarioOverrides(t *testing.T) {
	scn, err := NewScenario(ScenarioParams{
		Seed: 2, Servers: 8, Zones: 16, Clients: 300, TotalCapacityMbps: 200,
		DelayBoundMs: 200,
	}, WithCorrelation(0))
	if err != nil {
		t.Fatal(err)
	}
	cfg := scn.world.Cfg
	if cfg.Servers != 8 || cfg.Zones != 16 || cfg.Clients != 300 {
		t.Fatalf("overrides not applied: %+v", cfg)
	}
	if cfg.DelayBoundMs != 200 {
		t.Fatalf("bound = %v", cfg.DelayBoundMs)
	}
	if cfg.Correlation != 0 {
		t.Fatalf("zero correlation not applied: %v", cfg.Correlation)
	}
}

func TestNewScenarioDefaultCorrelation(t *testing.T) {
	scn, err := NewScenario(ScenarioParams{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := scn.world.Cfg.Correlation; got != 0.5 {
		t.Fatalf("correlation = %v, want default 0.5", got)
	}
}

func TestNewScenarioRejectsBadInput(t *testing.T) {
	if _, err := NewScenario(ScenarioParams{Notation: "garbage"}); err == nil {
		t.Fatal("bad notation accepted")
	}
	if _, err := NewScenario(ScenarioParams{}, WithCorrelation(2)); err == nil {
		t.Fatal("correlation > 1 accepted")
	}
}

// TestNewScenarioRejectsUnusableParams: zero means "paper default"; a
// negative or non-finite value is neither a size nor a default, and the
// error names the field.
func TestNewScenarioRejectsUnusableParams(t *testing.T) {
	for _, tc := range []struct {
		field string
		p     ScenarioParams
		opts  []Option
	}{
		{"Servers", ScenarioParams{Servers: -1}, nil},
		{"Zones", ScenarioParams{Zones: -8}, nil},
		{"Clients", ScenarioParams{Clients: -100}, nil},
		{"TotalCapacityMbps", ScenarioParams{TotalCapacityMbps: -500}, nil},
		{"TotalCapacityMbps", ScenarioParams{TotalCapacityMbps: math.NaN()}, nil},
		{"TotalCapacityMbps", ScenarioParams{TotalCapacityMbps: math.Inf(1)}, nil},
		{"DelayBoundMs", ScenarioParams{DelayBoundMs: -250}, nil},
		{"DelayBoundMs", ScenarioParams{DelayBoundMs: math.NaN()}, nil},
		{"DelayBoundMs", ScenarioParams{DelayBoundMs: math.Inf(1)}, nil},
		{"DelayBoundMs", ScenarioParams{Notation: "5s-15z-200c-100cp", DelayBoundMs: math.Inf(1)}, nil},
		{"correlation", ScenarioParams{}, []Option{WithCorrelation(math.NaN())}},
		{"correlation", ScenarioParams{}, []Option{WithCorrelation(-0.1)}},
	} {
		if _, err := NewScenario(tc.p, tc.opts...); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%+v: error %v, want one naming %s", tc.p, err, tc.field)
		}
	}
	// Zeros still take the defaults.
	scn, err := NewScenario(ScenarioParams{Seed: 1, Servers: 0, DelayBoundMs: 0, TotalCapacityMbps: 0})
	if err != nil {
		t.Fatal(err)
	}
	if p := scn.Params(); p.Servers != 20 || p.Zones != 80 || p.Clients != 1000 || p.TotalCapacityMbps != 500 || p.DelayBoundMs != 250 {
		t.Fatalf("resolved params %+v, want the paper's defaults", p)
	}
}

func TestAssignAllAlgorithms(t *testing.T) {
	scn, err := NewScenario(ScenarioParams{Seed: 3, Notation: "10s-30z-400c-200cp"})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range Algorithms() {
		res, err := scn.Assign(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.PQoS < 0 || res.PQoS > 1 {
			t.Fatalf("%s pQoS %v", name, res.PQoS)
		}
		if res.Clients != 400 || len(res.Delays) != 400 {
			t.Fatalf("%s delays/clients wrong", name)
		}
		if len(res.ZoneServer) != 30 || len(res.ClientContact) != 400 {
			t.Fatalf("%s raw assignment shape wrong", name)
		}
	}
}

func TestAssignUnknownAlgorithm(t *testing.T) {
	scn, _ := NewScenario(ScenarioParams{Seed: 1, Notation: "5s-15z-200c-100cp"})
	if _, err := scn.Assign("Magic"); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if _, err := scn.AssignWithEstimationError("Magic", 1.2); err == nil {
		t.Fatal("unknown algorithm accepted (noisy)")
	}
}

func TestAssignWithEstimationError(t *testing.T) {
	scn, err := NewScenario(ScenarioParams{Seed: 4, Notation: "10s-30z-400c-200cp"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := scn.AssignWithEstimationError("GreZ-GreC", 2.0)
	if err != nil {
		t.Fatal(err)
	}
	if res.PQoS <= 0 || res.PQoS > 1 {
		t.Fatalf("noisy pQoS %v", res.PQoS)
	}
	if _, err := scn.AssignWithEstimationError("GreZ-GreC", 0.5); err == nil {
		t.Fatal("error factor < 1 accepted")
	}
}

func TestChurnThenAssign(t *testing.T) {
	scn, err := NewScenario(ScenarioParams{Seed: 5, Notation: "10s-30z-400c-200cp"}, WithCorrelation(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := scn.Churn(50, 30, 40); err != nil {
		t.Fatal(err)
	}
	if scn.NumClients() != 420 {
		t.Fatalf("clients after churn = %d", scn.NumClients())
	}
	res, err := scn.Assign("GreZ-GreC")
	if err != nil {
		t.Fatal(err)
	}
	if res.Clients != 420 {
		t.Fatalf("result clients = %d", res.Clients)
	}
}

func TestUSBackboneScenario(t *testing.T) {
	scn, err := NewScenario(ScenarioParams{
		Seed: 6, Notation: "5s-15z-200c-100cp", UseUSBackbone: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := scn.Assign("GreZ-GreC")
	if err != nil {
		t.Fatal(err)
	}
	if res.PQoS <= 0 {
		t.Fatalf("backbone pQoS %v", res.PQoS)
	}
}

func TestScenarioDeterminism(t *testing.T) {
	build := func() *Result {
		scn, err := NewScenario(ScenarioParams{Seed: 9, Notation: "10s-30z-400c-200cp"})
		if err != nil {
			t.Fatal(err)
		}
		res, err := scn.Assign("GreZ-GreC")
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := build(), build()
	if a.PQoS != b.PQoS || a.Utilization != b.Utilization {
		t.Fatalf("non-deterministic: %v/%v vs %v/%v", a.PQoS, a.Utilization, b.PQoS, b.Utilization)
	}
	for i := range a.ZoneServer {
		if a.ZoneServer[i] != b.ZoneServer[i] {
			t.Fatalf("zone %d differs", i)
		}
	}
}

func TestPaperOrderingHoldsThroughFacade(t *testing.T) {
	scn, err := NewScenario(ScenarioParams{Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	get := func(name string) float64 {
		res, err := scn.Assign(name)
		if err != nil {
			t.Fatal(err)
		}
		return res.PQoS
	}
	if get("GreZ-GreC") < get("RanZ-VirC") {
		t.Fatal("GreZ-GreC lost to RanZ-VirC; paper's ordering violated")
	}
}
