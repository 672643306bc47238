package autoscale

import (
	"encoding/json"
	"strings"
	"testing"
)

// obs builds an observation with sane filler around the fields a test
// varies.
func obs(util, pqos float64, active, spares int) Observation {
	return Observation{Clients: 1000, Utilization: util, PQoS: pqos, ActiveServers: active, SpareServers: spares}
}

func mustPolicy(t *testing.T, cfg Config) *Policy {
	t.Helper()
	p, err := NewPolicy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{UtilHigh: 1.2},
		{UtilLow: 0.9, UtilHigh: 0.8},
		{PQoSFloor: 1},
		{HighWindowTicks: -1},
		{LowWindowTicks: -3},
		{MinActive: -2},
		{MinActive: 5, MaxActive: 3},
		{DrainGuardUtil: 0.1, UtilLow: 0.5},
		{RetireAfterTicks: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: Validate(%+v) = nil, want error", i, c)
		}
	}
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("zero config must default to valid, got %v", err)
	}
	// Defaults resolve as documented.
	p := mustPolicy(t, Config{})
	c := p.Config()
	if c.UtilHigh != 0.85 || c.UtilLow != 0.50 || c.HighWindowTicks != 3 ||
		c.LowWindowTicks != 6 || c.UpCooldownTicks != 2 || c.DownCooldownTicks != 6 ||
		c.MinActive != 1 || c.DrainGuardUtil != c.UtilHigh {
		t.Fatalf("unexpected defaults: %+v", c)
	}
	// Negative cooldowns mean none.
	c = mustPolicy(t, Config{UpCooldownTicks: -1, DownCooldownTicks: -1}).Config()
	if c.UpCooldownTicks != 0 || c.DownCooldownTicks != 0 {
		t.Fatalf("negative cooldowns resolved to %d/%d, want 0/0", c.UpCooldownTicks, c.DownCooldownTicks)
	}
}

// TestHighWaterWindow: the high-water condition must hold for the whole
// window before a scale-up fires, and one clean tick resets the streak.
func TestHighWaterWindow(t *testing.T) {
	p := mustPolicy(t, Config{UtilHigh: 0.8, HighWindowTicks: 3})
	for i := 0; i < 2; i++ {
		if d := p.Observe(obs(0.9, 0.95, 4, 2)); d.Action != ActionNone {
			t.Fatalf("tick %d: fired before the window completed: %+v", i, d)
		}
	}
	// A dip resets the streak: two more hot ticks must not fire.
	p.Observe(obs(0.5, 0.95, 4, 2))
	for i := 0; i < 2; i++ {
		if d := p.Observe(obs(0.9, 0.95, 4, 2)); d.Action != ActionNone {
			t.Fatalf("post-dip tick %d: streak did not reset: %+v", i, d)
		}
	}
	d := p.Observe(obs(0.9, 0.95, 4, 2))
	if d.Action != ActionScaleUp || d.Reason != ReasonHighUtil {
		t.Fatalf("completed window gave %+v, want scale_up/high-util", d)
	}
}

// TestPQoSErosionTriggersScaleUp: quality erosion counts as high water
// even at modest utilization, with its own reason label.
func TestPQoSErosionTriggersScaleUp(t *testing.T) {
	p := mustPolicy(t, Config{UtilHigh: 0.9, PQoSFloor: 0.9, HighWindowTicks: 2})
	p.Observe(obs(0.6, 0.7, 4, 2))
	d := p.Observe(obs(0.6, 0.7, 4, 2))
	if d.Action != ActionScaleUp || d.Reason != ReasonPQoSErosion {
		t.Fatalf("eroded pQoS gave %+v, want scale_up/pqos-erosion", d)
	}
	// Erosion also vetoes scale-down: low utilization with bad quality
	// must never shed capacity.
	p = mustPolicy(t, Config{UtilHigh: 0.9, PQoSFloor: 0.9, LowWindowTicks: 1, DownCooldownTicks: -1, UtilLow: 0.5})
	if d := p.Observe(obs(0.2, 0.5, 4, 2)); d.Action == ActionScaleDown {
		t.Fatalf("scale-down fired while pQoS was below the floor: %+v", d)
	}
}

// TestCooldownSuppresses: after a fire, the same direction holds its
// fire for the cooldown even when the window is complete again.
func TestCooldownSuppresses(t *testing.T) {
	p := mustPolicy(t, Config{UtilHigh: 0.8, HighWindowTicks: 1, UpCooldownTicks: 3})
	if d := p.Observe(obs(0.9, 0.95, 4, 3)); d.Action != ActionScaleUp {
		t.Fatalf("window-1 policy did not fire immediately: %+v", d)
	}
	fires := 0
	for i := 0; i < 3; i++ {
		if d := p.Observe(obs(0.9, 0.95, 5, 2)); d.Action == ActionScaleUp {
			fires++
		}
	}
	if fires != 1 {
		t.Fatalf("got %d scale-ups during a 3-tick cooldown, want exactly 1 (at expiry)", fires)
	}
}

// TestLowWaterGuards: the floor, the drain guard, and the starved pool
// all hold with their reasons instead of firing.
func TestLowWaterGuards(t *testing.T) {
	// At the floor: hold with at-min-servers.
	p := mustPolicy(t, Config{UtilLow: 0.4, LowWindowTicks: 1, DownCooldownTicks: -1, MinActive: 2})
	if d := p.Observe(obs(0.2, 1, 2, 3)); d.Action != ActionNone || d.Reason != ReasonAtMin {
		t.Fatalf("at the floor: %+v, want hold/at-min-servers", d)
	}
	// Drain guard: utilization 0.6 on 3 servers projects to 0.9 on 2,
	// above the 0.8 guard → hold.
	p = mustPolicy(t, Config{UtilHigh: 0.8, UtilLow: 0.65, LowWindowTicks: 1, DownCooldownTicks: -1})
	if d := p.Observe(obs(0.6, 1, 3, 1)); d.Action != ActionNone || d.Reason != ReasonDrainGuard {
		t.Fatalf("projected flap: %+v, want hold/drain-guard-held", d)
	}
	// Same load on a big fleet projects fine → fires.
	p = mustPolicy(t, Config{UtilHigh: 0.8, UtilLow: 0.65, LowWindowTicks: 1, DownCooldownTicks: -1})
	if d := p.Observe(obs(0.6, 1, 12, 1)); d.Action != ActionScaleDown || d.Reason != ReasonLowUtil {
		t.Fatalf("safe drain: %+v, want scale_down/low-util", d)
	}
	// Scale-up with an empty pool: hold with spares-exhausted, and the
	// window re-arms (no hold spam on the next tick).
	p = mustPolicy(t, Config{UtilHigh: 0.8, HighWindowTicks: 2, UpCooldownTicks: -1})
	p.Observe(obs(0.9, 1, 4, 0))
	if d := p.Observe(obs(0.9, 1, 4, 0)); d.Action != ActionNone || d.Reason != ReasonStarved {
		t.Fatalf("starved pool: %+v, want hold/spares-exhausted", d)
	}
	if d := p.Observe(obs(0.9, 1, 4, 0)); d.Reason != "" {
		t.Fatalf("starved hold repeated on the very next tick: %+v", d)
	}
	// MaxActive cap.
	p = mustPolicy(t, Config{UtilHigh: 0.8, HighWindowTicks: 1, UpCooldownTicks: -1, MaxActive: 4})
	if d := p.Observe(obs(0.9, 1, 4, 2)); d.Action != ActionNone || d.Reason != ReasonAtMax {
		t.Fatalf("at the cap: %+v, want hold/at-max-servers", d)
	}
}

// TestPolicyDeterminism: two policies fed the same observation stream
// produce identical decision sequences — the pure-function half of the
// §14 determinism argument.
func TestPolicyDeterminism(t *testing.T) {
	cfg := Config{UtilHigh: 0.8, UtilLow: 0.4, PQoSFloor: 0.9, HighWindowTicks: 2, LowWindowTicks: 3, UpCooldownTicks: 2, DownCooldownTicks: 4}
	a, b := mustPolicy(t, cfg), mustPolicy(t, cfg)
	// A deterministic pseudo-load sweep crossing both watermarks.
	for i := 0; i < 200; i++ {
		u := 0.3 + 0.6*float64(i%17)/16
		q := 0.85 + 0.15*float64(i%11)/10
		o := obs(u, q, 4+(i%3), 2)
		o.Tick = i
		da, db := a.Observe(o), b.Observe(o)
		if da != db {
			t.Fatalf("tick %d: decisions diverge: %+v vs %+v", i, da, db)
		}
	}
}

// TestActionLabels pins the metric label strings.
func TestActionLabels(t *testing.T) {
	for a, want := range map[Action]string{ActionNone: "none", ActionScaleUp: "scale_up", ActionScaleDown: "scale_down", ActionRetire: "retire"} {
		if a.String() != want {
			t.Errorf("Action(%d).String() = %q, want %q", a, a.String(), want)
		}
	}
	for _, r := range []string{ReasonHighUtil, ReasonPQoSErosion, ReasonLowUtil, ReasonStarved, ReasonAtMax, ReasonAtMin, ReasonDrainGuard} {
		if strings.ContainsAny(r, " \"{}") {
			t.Errorf("reason %q is not metric-label safe", r)
		}
	}
}

// TestActionJSONRoundTrip checks that an action marshals to its label and
// unmarshals back, and that an unknown label or a non-string is refused.
func TestActionJSONRoundTrip(t *testing.T) {
	for _, a := range []Action{ActionNone, ActionScaleUp, ActionScaleDown, ActionRetire} {
		b, err := json.Marshal(a)
		if err != nil {
			t.Fatal(err)
		}
		if want := `"` + a.String() + `"`; string(b) != want {
			t.Fatalf("Marshal(%v) = %s, want %s", a, b, want)
		}
		var back Action
		if err := json.Unmarshal(b, &back); err != nil || back != a {
			t.Fatalf("Unmarshal(%s) = %v, %v; want %v", b, back, err, a)
		}
	}
	for _, bad := range []string{`"scale_sideways"`, `""`, `1`} {
		var a Action
		if err := json.Unmarshal([]byte(bad), &a); err == nil {
			t.Fatalf("Unmarshal(%s) accepted as %v", bad, a)
		}
	}
}
