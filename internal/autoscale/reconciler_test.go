package autoscale

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"dvecap/telemetry"
)

// fakeFleet is a deterministic in-memory actuator: a fixed-size fleet of
// unit-capacity servers with an externally scripted load, warm spares
// admitted and drained by name.
type fakeFleet struct {
	load        float64 // total load, set by the test between ticks
	active      int
	spares      int
	cold        int // retired specs (re-admittable at warm+cold accounting)
	retireOK    bool
	failScaleUp bool
	nextID      int
	drained     []string // warm pool, LIFO by drain order
}

func (f *fakeFleet) Observe() Observation {
	u := 0.0
	if f.active > 0 {
		u = f.load / float64(f.active)
	}
	return Observation{Clients: int(f.load * 100), Utilization: u, PQoS: 1, ActiveServers: f.active, SpareServers: f.spares + f.cold}
}

func (f *fakeFleet) ScaleUp() (string, error) {
	if f.failScaleUp {
		return "", errors.New("boom")
	}
	if len(f.drained) > 0 {
		t := f.drained[len(f.drained)-1]
		f.drained = f.drained[:len(f.drained)-1]
		f.active++
		f.spares--
		return t, nil
	}
	if f.cold > 0 {
		f.cold--
		f.active++
		f.nextID++
		return fmt.Sprintf("cold-%d", f.nextID), nil
	}
	return "", errors.New("no spares")
}

func (f *fakeFleet) ScaleDown() (string, error) {
	t := fmt.Sprintf("srv-%d", f.active-1)
	f.active--
	f.spares++
	f.drained = append(f.drained, t)
	return t, nil
}

func (f *fakeFleet) Retire(target string) error {
	if !f.retireOK {
		return ErrRetireUnsupported
	}
	for i, d := range f.drained {
		if d == target {
			f.drained = append(f.drained[:i], f.drained[i+1:]...)
			f.spares--
			f.cold++
			return nil
		}
	}
	return fmt.Errorf("retire: %s not drained", target)
}

func newRec(t *testing.T, cfg Config, f *fakeFleet, reg *telemetry.Registry) *Reconciler {
	t.Helper()
	r, err := New(cfg, f, reg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestReconcilerScalesUpAndDown runs a load ramp through the reconciler
// and checks the fleet follows: up under sustained high water, back down
// under sustained low water, with the decision log recording each fire.
func TestReconcilerScalesUpAndDown(t *testing.T) {
	f := &fakeFleet{active: 2, spares: 3, drained: []string{"spare-a", "spare-b", "spare-c"}}
	reg := telemetry.NewRegistry()
	r := newRec(t, Config{UtilHigh: 0.8, UtilLow: 0.3, HighWindowTicks: 2, LowWindowTicks: 2, UpCooldownTicks: -1, DownCooldownTicks: -1}, f, reg)

	f.load = 1.8 // util 0.9 on 2 servers
	for i := 0; i < 4; i++ {
		if _, err := r.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if f.active != 3 {
		t.Fatalf("after 4 hot ticks: active = %d, want 3 (one fire per completed window)", f.active)
	}
	f.load = 0.3 // util 0.1 on 3 servers
	for i := 0; i < 3; i++ {
		if _, err := r.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if f.active != 2 {
		t.Fatalf("after 3 cold ticks: active = %d, want 2 (one fire per completed window)", f.active)
	}
	ds := r.Decisions()
	if len(ds) != 2 || ds[0].Action != ActionScaleUp || ds[1].Action != ActionScaleDown {
		t.Fatalf("decision log = %+v, want [scale_up scale_down]", ds)
	}
	if ds[0].Target != "spare-c" || ds[1].Target == "" {
		t.Fatalf("targets not recorded: %+v", ds)
	}
	if r.Ticks() != 7 {
		t.Fatalf("Ticks() = %d, want 7", r.Ticks())
	}

	// The metric surface followed along.
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`dvecap_autoscale_ticks_total 7`,
		`dvecap_autoscale_decisions_total{action="scale_up"} 1`,
		`dvecap_autoscale_decisions_total{action="scale_down"} 1`,
		`dvecap_autoscale_active_servers 2`,
		`dvecap_autoscale_spare_pool 3`,
		`dvecap_autoscale_paused 0`,
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("metrics missing %q\n%s", want, buf.String())
		}
	}
}

// TestReconcilerPause: paused, completed windows downgrade to holds and
// nothing actuates; resumed, the next completed window fires.
func TestReconcilerPause(t *testing.T) {
	f := &fakeFleet{active: 2, spares: 1, drained: []string{"spare-a"}}
	r := newRec(t, Config{UtilHigh: 0.8, HighWindowTicks: 1, UpCooldownTicks: -1}, f, nil)
	r.SetPaused(true)
	if !r.Paused() {
		t.Fatal("not paused")
	}
	f.load = 1.9
	d, err := r.Tick()
	if err != nil {
		t.Fatal(err)
	}
	if d.Action != ActionNone || d.Reason != "paused" || f.active != 2 {
		t.Fatalf("paused tick actuated: %+v, active %d", d, f.active)
	}
	r.SetPaused(false)
	if d, _ = r.Tick(); d.Action != ActionScaleUp || f.active != 3 {
		t.Fatalf("resumed tick did not fire: %+v, active %d", d, f.active)
	}
}

// TestReconcilerRetireGrace: with RetireAfterTicks set, a server drained
// by the policy is retired once the grace elapses — unless a scale-up
// reclaimed it first, or the actuator does not support retirement.
func TestReconcilerRetireGrace(t *testing.T) {
	f := &fakeFleet{active: 3, spares: 0, retireOK: true}
	r := newRec(t, Config{UtilHigh: 0.9, UtilLow: 0.4, LowWindowTicks: 1, DownCooldownTicks: -1, RetireAfterTicks: 2}, f, nil)
	f.load = 0.3
	if _, err := r.Tick(); err != nil { // fires scale-down
		t.Fatal(err)
	}
	if f.active != 2 || len(f.drained) != 1 {
		t.Fatalf("scale-down did not drain: active %d, drained %v", f.active, f.drained)
	}
	f.load = 1.0 // util 0.5 on 2: mid-band, no further decisions while the grace runs
	r.Tick()
	r.Tick()
	if f.cold != 1 || len(f.drained) != 0 {
		t.Fatalf("retire grace elapsed but server not retired: cold %d, drained %v", f.cold, f.drained)
	}
	ds := r.Decisions()
	last := ds[len(ds)-1]
	if last.Action != ActionRetire || last.Reason != ReasonRetireAge {
		t.Fatalf("retire not logged: %+v", ds)
	}

	// Unsupported retirement keeps the server warm and stops asking.
	f = &fakeFleet{active: 3, spares: 0}
	r = newRec(t, Config{UtilHigh: 0.9, UtilLow: 0.4, LowWindowTicks: 1, DownCooldownTicks: -1, RetireAfterTicks: 1}, f, nil)
	f.load = 0.3
	r.Tick()
	f.load = 1.0 // util 0.5 on 2: mid-band
	r.Tick()
	r.Tick()
	if len(f.drained) != 1 || f.cold != 0 {
		t.Fatalf("unsupported retire still removed the server: drained %v, cold %d", f.drained, f.cold)
	}

	// A scale-up reclaiming the drained server cancels its grace.
	f = &fakeFleet{active: 3, spares: 0, retireOK: true}
	r = newRec(t, Config{UtilHigh: 0.8, UtilLow: 0.4, HighWindowTicks: 1, LowWindowTicks: 1, UpCooldownTicks: -1, DownCooldownTicks: -1, RetireAfterTicks: 5}, f, nil)
	f.load = 0.3
	r.Tick() // drain srv-2
	f.load = 1.9
	r.Tick() // scale-up reclaims srv-2
	if f.active != 3 || len(f.drained) != 0 {
		t.Fatalf("reclaim failed: active %d, drained %v", f.active, f.drained)
	}
	f.load = 1.35 // util 0.45 on 3: mid-band
	for i := 0; i < 8; i++ {
		r.Tick()
	}
	if f.cold != 0 || f.active != 3 {
		t.Fatalf("reclaimed server was retired out from under the fleet: cold %d, active %d", f.cold, f.active)
	}
}

// TestReconcilerActuationError: a failing verb records the error, keeps
// the loop alive, and counts in the errors series.
func TestReconcilerActuationError(t *testing.T) {
	f := &fakeFleet{active: 2, spares: 1, drained: []string{"spare-a"}, failScaleUp: true}
	reg := telemetry.NewRegistry()
	r := newRec(t, Config{UtilHigh: 0.8, HighWindowTicks: 1, UpCooldownTicks: -1}, f, reg)
	f.load = 1.9
	if _, err := r.Tick(); err == nil {
		t.Fatal("want actuation error")
	}
	if n := len(r.Decisions()); n != 0 {
		t.Fatalf("failed actuation logged as a decision: %d", n)
	}
	var buf strings.Builder
	reg.WritePrometheus(&buf)
	if !strings.Contains(buf.String(), "dvecap_autoscale_errors_total 1") {
		t.Fatalf("error not counted:\n%s", buf.String())
	}
	// The loop form also survives it.
	ticks := make(chan time.Time)
	done := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	go func() { defer close(done); r.RunTicks(ctx, ticks) }()
	ticks <- time.Time{}
	ticks <- time.Time{}
	cancel()
	<-done
	if r.Ticks() != 3 {
		t.Fatalf("Ticks() = %d, want 3", r.Ticks())
	}
}

// TestReconcilerSetConfig swaps watermarks mid-flight and checks the new
// policy takes over with reset hysteresis state.
func TestReconcilerSetConfig(t *testing.T) {
	f := &fakeFleet{active: 2, spares: 1, drained: []string{"spare-a"}}
	r := newRec(t, Config{UtilHigh: 0.95, HighWindowTicks: 1, UpCooldownTicks: -1}, f, nil)
	f.load = 1.8 // util 0.9: below the 0.95 watermark
	if d, _ := r.Tick(); d.Action != ActionNone {
		t.Fatalf("fired below watermark: %+v", d)
	}
	if err := r.SetConfig(Config{UtilHigh: 0.85, HighWindowTicks: 1, UpCooldownTicks: -1}); err != nil {
		t.Fatal(err)
	}
	if d, _ := r.Tick(); d.Action != ActionScaleUp {
		t.Fatalf("lowered watermark did not fire: %+v", d)
	}
	if err := r.SetConfig(Config{UtilHigh: 2}); err == nil {
		t.Fatal("invalid override accepted")
	}
	if got := r.Config().UtilHigh; got != 0.85 {
		t.Fatalf("invalid override clobbered config: UtilHigh = %v", got)
	}
}

// TestReconcilerStreaks checks that the reconciler reports the hysteresis
// streaks of a policy fed the same observations, tick by tick.
func TestReconcilerStreaks(t *testing.T) {
	cfg := Config{UtilHigh: 0.8, UtilLow: 0.3, HighWindowTicks: 3, LowWindowTicks: 3, UpCooldownTicks: -1, DownCooldownTicks: -1}
	f := &fakeFleet{active: 4, spares: 2, drained: []string{"spare-a", "spare-b"}}
	r := newRec(t, cfg, f, nil)
	shadow, err := NewPolicy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if h, l := r.Streaks(); h != 0 || l != 0 {
		t.Fatalf("fresh reconciler streaks = %d/%d", h, l)
	}
	for i, load := range []float64{3.6, 3.6, 2, 3.6, 0.4, 0.4, 0.4, 0.4, 3.6} {
		f.load = load
		o := f.Observe()
		shadow.Observe(o)
		if _, err := r.Tick(); err != nil {
			t.Fatal(err)
		}
		h, l := r.Streaks()
		wh, wl := shadow.Streaks()
		if h != wh || l != wl {
			t.Fatalf("tick %d: streaks %d/%d, policy %d/%d", i, h, l, wh, wl)
		}
		if i == 1 && h != 2 {
			t.Fatalf("two hot ticks: high streak %d, want 2", h)
		}
	}
}
