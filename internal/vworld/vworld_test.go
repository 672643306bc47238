package vworld

import (
	"math"
	"testing"
	"testing/quick"

	"dvecap/internal/xrand"
)

func testMap(t *testing.T) *Map {
	t.Helper()
	m, err := NewMap(1000, 800, 10, 8)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewMapValidates(t *testing.T) {
	bad := [][4]float64{
		{0, 100, 2, 2},
		{100, -1, 2, 2},
		{100, 100, 0, 2},
		{100, 100, 2, -1},
	}
	for i, c := range bad {
		if _, err := NewMap(c[0], c[1], int(c[2]), int(c[3])); err == nil {
			t.Errorf("bad map %d accepted", i)
		}
	}
}

func TestZoneAtGrid(t *testing.T) {
	m := testMap(t)
	if m.Zones() != 80 {
		t.Fatalf("zones = %d", m.Zones())
	}
	cases := []struct {
		x, y float64
		want int
	}{
		{0, 0, 0},
		{99, 99, 0},
		{100, 0, 1},          // second column
		{0, 100, 10},         // second row
		{999.9, 799.9, 79},   // last zone
		{1000, 800, 79},      // clamped edge
		{-5, -5, 0},          // clamped negative
		{550, 350, 3*10 + 5}, // middle
	}
	for _, tc := range cases {
		if got := m.ZoneAt(tc.x, tc.y); got != tc.want {
			t.Fatalf("ZoneAt(%v,%v) = %d, want %d", tc.x, tc.y, got, tc.want)
		}
	}
}

func TestZoneCenterRoundTrips(t *testing.T) {
	m := testMap(t)
	for z := 0; z < m.Zones(); z++ {
		x, y := m.ZoneCenter(z)
		if got := m.ZoneAt(x, y); got != z {
			t.Fatalf("centre of zone %d maps to %d", z, got)
		}
	}
}

func defaultCfg(n int) Config {
	return Config{Avatars: n, MinSpeed: 5, MaxSpeed: 15, PauseMeanSec: 2}
}

func TestNewWorldPlacesWithinBounds(t *testing.T) {
	m := testMap(t)
	w, err := NewWorld(xrand.New(1), m, defaultCfg(500))
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range w.Avatars {
		if a.X < 0 || a.X > m.Width || a.Y < 0 || a.Y > m.Height {
			t.Fatalf("avatar %d out of bounds: (%v,%v)", i, a.X, a.Y)
		}
		if a.Speed < 5 || a.Speed > 15 {
			t.Fatalf("avatar %d speed %v", i, a.Speed)
		}
	}
	if len(w.ZoneVector()) != 500 {
		t.Fatal("zone vector length wrong")
	}
}

func TestNewWorldValidates(t *testing.T) {
	m := testMap(t)
	bad := []Config{
		{Avatars: -1, MinSpeed: 1, MaxSpeed: 2},
		{Avatars: 1, MinSpeed: 0, MaxSpeed: 2},
		{Avatars: 1, MinSpeed: 3, MaxSpeed: 2},
		{Avatars: 1, MinSpeed: 1, MaxSpeed: 2, PauseMeanSec: -1},
		{Avatars: 1, MinSpeed: 1, MaxSpeed: 2, HotBias: 0.5},
		{Avatars: 1, MinSpeed: 1, MaxSpeed: 2, HotBias: 1.0, HotZones: []int{0}},
		{Avatars: 1, MinSpeed: 1, MaxSpeed: 2, Groups: -1},
		{Avatars: 1, MinSpeed: 1, MaxSpeed: 2, GroupBias: 0.5},
		{Avatars: 1, MinSpeed: 1, MaxSpeed: 2, Groups: 2, GroupBias: 1.0},
	}
	for i, c := range bad {
		if _, err := NewWorld(xrand.New(1), m, c); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestStepMovesAvatarsAndStaysInBounds(t *testing.T) {
	m := testMap(t)
	w, _ := NewWorld(xrand.New(2), m, defaultCfg(200))
	before := make([][2]float64, len(w.Avatars))
	for i, a := range w.Avatars {
		before[i] = [2]float64{a.X, a.Y}
	}
	for step := 0; step < 100; step++ {
		w.StepCrossings(1.0)
		for i, a := range w.Avatars {
			if a.X < -1e-9 || a.X > m.Width+1e-9 || a.Y < -1e-9 || a.Y > m.Height+1e-9 {
				t.Fatalf("avatar %d escaped: (%v,%v)", i, a.X, a.Y)
			}
		}
	}
	movedAny := false
	for i, a := range w.Avatars {
		if a.X != before[i][0] || a.Y != before[i][1] {
			movedAny = true
			break
		}
	}
	if !movedAny {
		t.Fatal("no avatar moved in 100 seconds")
	}
}

func TestStepReportsZoneCrossings(t *testing.T) {
	m := testMap(t)
	w, _ := NewWorld(xrand.New(3), m, defaultCfg(300))
	zonesBefore := w.ZoneVector()
	crossings := 0
	for step := 0; step < 60; step++ {
		crossings += len(w.StepCrossings(1.0))
	}
	zonesAfter := w.ZoneVector()
	changed := 0
	for i := range zonesBefore {
		if zonesBefore[i] != zonesAfter[i] {
			changed++
		}
	}
	if crossings == 0 {
		t.Fatal("no zone crossings in 60 seconds of movement")
	}
	if changed == 0 {
		t.Fatal("crossings reported but no zones changed")
	}
}

func TestStepMovementRespectsSpeed(t *testing.T) {
	m := testMap(t)
	w, _ := NewWorld(xrand.New(4), m, Config{Avatars: 50, MinSpeed: 10, MaxSpeed: 10})
	before := make([][2]float64, len(w.Avatars))
	for i, a := range w.Avatars {
		before[i] = [2]float64{a.X, a.Y}
	}
	dt := 0.5
	w.StepCrossings(dt)
	for i, a := range w.Avatars {
		dx, dy := a.X-before[i][0], a.Y-before[i][1]
		d := math.Sqrt(dx*dx + dy*dy)
		// Per straight leg the displacement cannot exceed speed×dt; a
		// waypoint turn mid-step can only shorten the net displacement.
		if d > 10*dt+1e-9 {
			t.Fatalf("avatar %d moved %v in %vs at speed 10", i, d, dt)
		}
	}
}

func TestHotBiasConcentratesAvatars(t *testing.T) {
	m := testMap(t)
	hot := []int{0, 1, 2, 3}
	cfg := defaultCfg(4000)
	cfg.HotZones = hot
	cfg.HotBias = 0.6
	w, err := NewWorld(xrand.New(5), m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pop := w.Populations()
	hotPop := 0
	for _, z := range hot {
		hotPop += pop[z]
	}
	// 4 of 80 zones hold 60% + 4/80×40% ≈ 62% of avatars in expectation.
	frac := float64(hotPop) / 4000
	if frac < 0.5 {
		t.Fatalf("hot zones hold only %.0f%%", frac*100)
	}
}

func TestWorldDeterministic(t *testing.T) {
	m := testMap(t)
	run := func() []int {
		w, _ := NewWorld(xrand.New(9), m, defaultCfg(100))
		for i := 0; i < 30; i++ {
			w.StepCrossings(1)
		}
		return w.ZoneVector()
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("avatar %d zone differs across identical runs", i)
		}
	}
}

// groupDispersion returns the mean distance of avatars to their group
// centroid (all avatars form one group when w has none).
func groupDispersion(w *World, groups int) float64 {
	if groups < 1 {
		groups = 1
	}
	cx := make([]float64, groups)
	cy := make([]float64, groups)
	n := make([]int, groups)
	gof := func(i int) int {
		if g := w.group[i]; g >= 0 {
			return g
		}
		return 0
	}
	for i, a := range w.Avatars {
		g := gof(i)
		cx[g] += a.X
		cy[g] += a.Y
		n[g]++
	}
	sum, k := 0.0, 0
	for i, a := range w.Avatars {
		g := gof(i)
		dx, dy := a.X-cx[g]/float64(n[g]), a.Y-cy[g]/float64(n[g])
		sum += math.Sqrt(dx*dx + dy*dy)
		k++
	}
	return sum / float64(k)
}

func TestGroupMovementCorrelates(t *testing.T) {
	m := testMap(t)
	run := func(cfg Config) float64 {
		w, err := NewWorld(xrand.New(11), m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 300; i++ {
			w.StepCrossings(1.0)
		}
		return groupDispersion(w, cfg.Groups)
	}
	grouped := defaultCfg(400)
	grouped.Groups = 8
	grouped.GroupBias = 0.95
	loose := defaultCfg(400)
	dg, dl := run(grouped), run(loose)
	// Followers rally within one zone-size box of their leader's waypoint;
	// members mid-excursion or chasing a relocated anchor keep the cluster
	// loose, but within-group dispersion must still sit well below the
	// uniform baseline.
	if dg >= 0.75*dl {
		t.Fatalf("grouped dispersion %.1f not below 75%% of ungrouped %.1f", dg, dl)
	}
	// Groups are assigned round-robin and leaders are the first members.
	for i := 0; i < 16; i++ {
		w, _ := NewWorld(xrand.New(1), m, grouped)
		if got := w.group[i]; got != i%8 {
			t.Fatalf("GroupOf(%d) = %d, want %d", i, got, i%8)
		}
	}
}

func TestStepCrossingsEndpoints(t *testing.T) {
	m := testMap(t)
	cfg := defaultCfg(250)
	cfg.Groups = 5
	cfg.GroupBias = 0.7
	wa, _ := NewWorld(xrand.New(6), m, cfg)
	total := 0
	for step := 0; step < 60; step++ {
		beforeZones := wa.ZoneVector()
		cs := wa.StepCrossings(1.0)
		for _, c := range cs {
			if c.From == c.To {
				t.Fatalf("step %d: degenerate crossing %+v", step, c)
			}
			if c.From != beforeZones[c.Avatar] {
				t.Fatalf("step %d: crossing From = %d, avatar was in %d", step, c.From, beforeZones[c.Avatar])
			}
			if got := wa.ZoneOf(c.Avatar); got != c.To {
				t.Fatalf("step %d: crossing To = %d, avatar now in %d", step, c.To, got)
			}
		}
		total += len(cs)
	}
	if total == 0 {
		t.Fatal("no crossings in 60 seconds of grouped movement")
	}
}

func TestZoneAtAlwaysInRangeProperty(t *testing.T) {
	m := testMap(t)
	f := func(x, y float64) bool {
		if math.IsNaN(x) || math.IsNaN(y) {
			return true
		}
		z := m.ZoneAt(x, y)
		return z >= 0 && z < m.Zones()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}
