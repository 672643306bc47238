package dve

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestScenarioRoundTrip(t *testing.T) {
	for _, s := range []string{
		"5s-15z-200c-100cp",
		"10s-30z-400c-200cp",
		"20s-80z-1000c-500cp",
		"30s-160z-2000c-1000cp",
	} {
		cfg, err := ParseScenario(DefaultConfig(), s)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if got := scenario(cfg); got != s {
			t.Fatalf("round trip %q → %q", s, got)
		}
	}
}

func TestParseScenarioValues(t *testing.T) {
	cfg, err := ParseScenario(DefaultConfig(), "5s-15z-200c-100cp")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Servers != 5 || cfg.Zones != 15 || cfg.Clients != 200 || cfg.TotalCapacityMbps != 100 {
		t.Fatalf("parsed %+v", cfg)
	}
	// Unrelated defaults preserved.
	if cfg.DelayBoundMs != 250 || cfg.Correlation != 0.5 {
		t.Fatal("ParseScenario clobbered defaults")
	}
}

func TestParseScenarioRejectsGarbage(t *testing.T) {
	for _, s := range []string{"", "20s-80z", "20s-80z-1000c-500", "s-z-c-cp", "20s-80z-1000c-500cp-extra"} {
		if _, err := ParseScenario(DefaultConfig(), s); err == nil {
			t.Errorf("accepted %q", s)
		}
	}
}

func TestParseScenarioValidatesResult(t *testing.T) {
	// 50 servers × 10 Mbps floor > 100 Mbps total.
	if _, err := ParseScenario(DefaultConfig(), "50s-80z-1000c-100cp"); err == nil {
		t.Fatal("infeasible capacity floor accepted")
	}
}

func TestConfigValidateCases(t *testing.T) {
	mk := func(f func(*Config)) Config {
		c := DefaultConfig()
		f(&c)
		return c
	}
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"servers", mk(func(c *Config) { c.Servers = 0 }), "Servers"},
		{"zones", mk(func(c *Config) { c.Zones = -1 }), "Zones"},
		{"clients", mk(func(c *Config) { c.Clients = -5 }), "Clients"},
		{"capacity", mk(func(c *Config) { c.TotalCapacityMbps = 0 }), "TotalCapacity"},
		{"floor", mk(func(c *Config) { c.MinCapacityMbps = 1000 }), "floor"},
		{"bound", mk(func(c *Config) { c.DelayBoundMs = 0 }), "DelayBound"},
		{"correlation", mk(func(c *Config) { c.Correlation = 1.5 }), "Correlation"},
		{"weight", mk(func(c *Config) { c.ClusterWeight = 0.5 }), "ClusterWeight"},
		{"hot", mk(func(c *Config) { c.HotFraction = 0 }), "HotFraction"},
		{"rate", mk(func(c *Config) { c.FrameRate = 0 }), "FrameRate"},
		{"bytes", mk(func(c *Config) { c.MessageBytes = 0 }), "MessageBytes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if err == nil {
				t.Fatal("invalid config accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestDistributionTypeApply(t *testing.T) {
	cases := []struct {
		t      DistributionType
		pw, vw Distribution
	}{
		{TypeUniform, Uniform, Uniform},
		{TypePhysicalClusters, Clustered, Uniform},
		{TypeVirtualClusters, Uniform, Clustered},
		{TypeBothClusters, Clustered, Clustered},
	}
	for _, tc := range cases {
		cfg := DefaultConfig()
		tc.t.Apply(&cfg)
		if cfg.PhysicalDist != tc.pw || cfg.VirtualDist != tc.vw {
			t.Fatalf("%v applied wrong: %v/%v", tc.t, cfg.PhysicalDist, cfg.VirtualDist)
		}
	}
}

func TestDistributionStrings(t *testing.T) {
	if Uniform.String() != "uniform" || Clustered.String() != "clustered" {
		t.Fatal("Distribution.String broken")
	}
	if !strings.Contains(TypeBothClusters.String(), "clustered") {
		t.Fatal("DistributionType.String broken")
	}
}

func TestBandwidthModelMatchesPaperScale(t *testing.T) {
	cfg := DefaultConfig()
	// A uniformly populated default world has 1000/80 = 12.5 clients/zone.
	// Per-client RT at N=12: 25 × (100 + 12×100) × 8 / 1e6 = 0.26 Mbps.
	got := cfg.ClientRTMbps(12)
	want := 25.0 * (100 + 12*100) * 8 / 1e6
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("ClientRTMbps(12) = %v, want %v", got, want)
	}
	// 1000 such clients demand ~260 Mbps of the 500 Mbps system — the
	// ~0.55 utilisation floor seen for the VirC algorithms in Table 1.
	if total := 1000 * got; total < 200 || total > 350 {
		t.Fatalf("default-world demand %v Mbps implausible vs paper's ~55%% of 500", total)
	}
}

func TestZoneRTQuadratic(t *testing.T) {
	cfg := DefaultConfig()
	r10 := 10 * cfg.ClientRTMbps(10)
	r100 := 100 * cfg.ClientRTMbps(100)
	// Zone demand must grow ~quadratically (N(N+1) form): 100 clients cost
	// ~83× the 10-client zone, far beyond linear 10×.
	if ratio := r100 / r10; ratio < 50 || ratio > 120 {
		t.Fatalf("zone RT ratio %v not quadratic-like", ratio)
	}
}

func TestClientRTMbpsFloorsPopulation(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.ClientRTMbps(0) != cfg.ClientRTMbps(1) {
		t.Fatal("zero population should floor to 1")
	}
	if cfg.ClientRTMbps(1) <= 0 {
		t.Fatal("RT must be strictly positive")
	}
}

// scenario renders cfg in the tables' notation, e.g. "20s-80z-1000c-500cp".
func scenario(c Config) string {
	return fmt.Sprintf("%ds-%dz-%dc-%dcp", c.Servers, c.Zones, c.Clients, int(c.TotalCapacityMbps))
}
