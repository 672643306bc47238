package dvecap

// Memory-budget regression tests for the delay-provider diet (DESIGN.md
// §13). The always-on test proves the CoordDelays build of a
// coordinate-native cluster never materializes anything close to the dense
// matrix; the env-gated test opens a million-client cluster, asserts the
// whole process stays under a declared RSS/heap budget — a budget the
// dense representation cannot meet — drives churn through the open session
// to sample per-event repair latency (first touch of a zone's
// candidate-delta row and warm-row events separately, before and after a
// full re-solve), and emits BENCH_scale.json.
//
// Run the full-scale variant with:
//
//	DVECAP_SCALE_TEST=1 go test . -run TestScaleMillionClients -v -timeout 30m
//	DVECAP_SCALE_TEST=1 DVECAP_SCALE_CLIENTS=5000000 go test . -run TestScaleMillionClients -v -timeout 60m
//
// DVECAP_SCALE_CLIENTS overrides the population (default 1_000_000; the
// budgets below are declared for that size and scale linearly). Each
// population writes its own leg into BENCH_scale.json, so running 1M then
// 5M records the scaling curve in one document.

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"dvecap/internal/xrand"
	"dvecap/telemetry"
)

// coordDim mirrors the core coordinate provider's default dimensionality.
const coordDim = 5

// buildCoordCluster assembles an m-server / zones-zone / k-client cluster
// whose clients join coordinate-natively: a network coordinate each, no
// dense rows, and a sparse measured override for one nearby server on
// every eighth client — the million-client join path of DESIGN.md §13.
func buildCoordCluster(tb testing.TB, rng *xrand.RNG, m, zones, k int) *Cluster {
	tb.Helper()
	c := NewCluster(250)

	// Plane-embedded servers; the coordinate provider fits its own
	// embedding from this SS matrix.
	sx := make([]float64, m)
	sy := make([]float64, m)
	for i := range sx {
		sx[i], sy[i] = rng.Uniform(0, 200), rng.Uniform(0, 200)
	}
	// Capacity provisioned at ~1.3x the expected aggregate requirement.
	capPer := 1.3 * float64(k) * 0.1 / float64(m)
	for i := 0; i < m; i++ {
		if err := c.AddServer(fmt.Sprintf("s%d", i), ServerSpec{CapacityMbps: capPer}); err != nil {
			tb.Fatal(err)
		}
	}
	ss := make([][]float64, m)
	for i := range ss {
		ss[i] = make([]float64, m)
		for l := 0; l < m; l++ {
			if l != i {
				dx, dy := sx[i]-sx[l], sy[i]-sy[l]
				ss[i][l] = 0.5 * math.Hypot(dx, dy) // discounted inter-server mesh
			}
		}
	}
	if err := c.SetServerRTTs(ss); err != nil {
		tb.Fatal(err)
	}
	for z := 0; z < zones; z++ {
		if err := c.AddZone(fmt.Sprintf("z%d", z)); err != nil {
			tb.Fatal(err)
		}
	}
	coord := make([]float64, coordDim)
	for j := 0; j < k; j++ {
		for d := range coord {
			coord[d] = rng.Uniform(0, 80)
		}
		spec := ClientSpec{
			Zone:          fmt.Sprintf("z%d", rng.IntN(zones)),
			BandwidthMbps: rng.Uniform(0.05, 0.15),
			Coord:         append([]float64(nil), coord...),
		}
		if j%8 == 0 { // sparse measured candidate set
			spec.RTTs = map[string]float64{fmt.Sprintf("s%d", rng.IntN(m)): rng.Uniform(5, 60)}
		}
		if err := c.AddClient(fmt.Sprintf("c%07d", j), spec); err != nil {
			tb.Fatal(err)
		}
	}
	return c
}

// TestCoordDelayModelMemoryDiet is the always-on (tier-1) budget check: a
// coordinate-native 20k-client cluster opened under CoordDelays must hold
// its delays in well under a quarter of what the dense matrix would take,
// and the session must stay fully operable (join/move/leave with plain
// measured rows).
func TestCoordDelayModelMemoryDiet(t *testing.T) {
	const m, zones, k = 64, 200, 20000
	rng := xrand.New(9090)
	c := buildCoordCluster(t, rng, m, zones, k)
	s, err := c.Open("GreZ-VirC", WithSeed(3), WithDelayProvider(CoordDelays))
	if err != nil {
		t.Fatal(err)
	}
	dp := s.planner().Problem().Delays
	if dp == nil {
		t.Fatal("CoordDelays session is not provider-backed")
	}
	dense := int64(k) * int64(m) * 8
	if got := int64(dp.MemoryBytes()); got <= 0 || got*4 > dense {
		t.Fatalf("coord provider holds %d bytes for %d clients x %d servers; dense is %d — want at least 4x diet", got, k, m, dense)
	}
	// The open session keeps working with ordinary measured-row churn.
	row := make([]float64, m)
	for i := range row {
		row[i] = rng.Uniform(5, 200)
	}
	if err := s.Join("late", ClientSpec{Zone: "z0", BandwidthMbps: 0.1, RTTRow: row}); err != nil {
		t.Fatal(err)
	}
	if err := s.Move("late", "z1"); err != nil {
		t.Fatal(err)
	}
	if err := s.Leave("late"); err != nil {
		t.Fatal(err)
	}
	if got := s.NumClients(); got != k {
		t.Fatalf("population %d after churn round, want %d", got, k)
	}
	if q := s.PQoS(); q < 0 || q > 1 {
		t.Fatalf("pQoS %v out of range", q)
	}
}

// Declared budgets for the gated million-client open (scaled linearly when
// DVECAP_SCALE_CLIENTS overrides the population). The dense matrix alone
// at 1M x 50 is 400 MB per copy and the open path holds two copies (the
// builder's problem and the planner's clone), so a dense regression
// cannot fit the heap budget; the coordinate diet measures ~0.4 GB total
// process heap including the ID binding and evaluator state.
const (
	scaleHeapBudgetBytes = int64(700) << 20  // runtime.ReadMemStats HeapAlloc after GC
	scaleRSSBudgetBytes  = int64(1600) << 20 // /proc/self/status VmRSS (GC headroom included)
)

func readRSSBytes() int64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0 // non-linux: RSS assertion is skipped
	}
	for _, line := range strings.Split(string(b), "\n") {
		if !strings.HasPrefix(line, "VmRSS:") {
			continue
		}
		f := strings.Fields(line)
		if len(f) >= 2 {
			kb, err := strconv.ParseInt(f[1], 10, 64)
			if err == nil {
				return kb << 10
			}
		}
	}
	return 0
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.IndexByte(line, ':'); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return runtime.GOARCH
}

// TestScaleMillionClients opens a 1M-client coordinate-native cluster under
// CoordDelays, asserts process heap and RSS stay under the declared
// budgets, samples per-event repair latency over three churn storms — two
// after the open, one after a Resolve; first touches and warm rows reported
// separately — and writes BENCH_scale.json.
// Gated behind DVECAP_SCALE_TEST=1 (it allocates hundreds of MB and runs
// for minutes — the CI bench-smoke job runs it).
func TestScaleMillionClients(t *testing.T) {
	if os.Getenv("DVECAP_SCALE_TEST") == "" {
		t.Skip("set DVECAP_SCALE_TEST=1 to run the million-client scale test")
	}
	k := 1_000_000
	if v := os.Getenv("DVECAP_SCALE_CLIENTS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 100_000 {
			t.Fatalf("DVECAP_SCALE_CLIENTS=%q, want an integer >= 100000", v)
		}
		k = n
	}
	const m, zones = 50, 2000
	scale := float64(k) / 1e6
	heapBudget := int64(float64(scaleHeapBudgetBytes) * scale)
	rssBudget := int64(float64(scaleRSSBudgetBytes) * scale)

	rng := xrand.New(4242)
	t0 := time.Now()
	var s *ClusterSession
	{
		// The builder is dropped before measuring: the session snapshots the
		// cluster, and a real deployment releases the builder after Open.
		c := buildCoordCluster(t, rng, m, zones, k)
		buildSecs := time.Since(t0).Seconds()
		t.Logf("built %d-client coordinate-native cluster in %.1fs", k, buildSecs)
		t0 = time.Now()
		var err error
		s, err = c.Open("GreZ-VirC", WithSeed(3), WithDelayProvider(CoordDelays), WithWorkers(4))
		if err != nil {
			t.Fatal(err)
		}
	}
	openSecs := time.Since(t0).Seconds()
	t.Logf("opened session in %.1fs, pQoS %.4f", openSecs, s.PQoS())

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heap := int64(ms.HeapAlloc)
	rss := readRSSBytes()
	prov := int64(s.planner().Problem().Delays.MemoryBytes())
	denseEq := int64(k) * int64(m) * 8 * 2 // two live copies on the dense path
	t.Logf("heap %d MB (budget %d), rss %d MB (budget %d), provider %d MB vs dense-equivalent %d MB",
		heap>>20, heapBudget>>20, rss>>20, rssBudget>>20, prov>>20, denseEq>>20)
	if heap > heapBudget {
		t.Errorf("heap after open: %d bytes exceeds the declared budget %d — the memory diet regressed", heap, heapBudget)
	}
	if rss > 0 && rss > rssBudget {
		t.Errorf("RSS after open: %d bytes exceeds the declared budget %d — the memory diet regressed", rss, rssBudget)
	}
	if prov*4 > int64(k)*int64(m)*8 {
		t.Errorf("provider holds %d bytes; dense matrix is %d — want at least 4x diet", prov, int64(k)*int64(m)*8)
	}

	// Churn storms: sampled per-event repair latency at full population. An
	// event's cost depends on whether the candidate-delta rows of the zones
	// it touches are already built (DESIGN.md §7): the first touch of a zone
	// after the open's full solve rebuilds its row in O(servers × clients of
	// the zone), every later event adjusts and folds it in O(servers). The
	// first storm spreads 400 events over 2 000 zones — almost all first
	// touches, the figure this test has always reported — and the second
	// confines 400 more to the zones the first one touched, whose rows are
	// warm. Events are classified by what they did — the evaluator's rebuild
	// counter moved (first touch), only its hit counter did (warm row), or
	// neither (no destination had room for the zone, so nothing was folded
	// or built) — not by which storm they ran in. A third storm follows a
	// Resolve() and revisits the same warm zones: the re-solve is adopted
	// (DESIGN.md §8), so only the zones it rehosted are first touches again.
	reg := telemetry.NewRegistry()
	s.planner().SetTelemetry(reg)
	rebuilds := reg.Counter("dvecap_cache_row_refreshes_total", "")
	hits := reg.Counter("dvecap_cache_row_hits_total", "")
	const events = 400
	type buckets struct{ firstTouch, warm, unfolded []time.Duration }
	var opened, resolved buckets
	live := []string{}
	var touched []string
	row := make([]float64, m)
	storm := func(tag string, into *buckets, zone func() string) (lat []time.Duration) {
		for e := 0; e < events; e++ {
			r := rng.Float64()
			builtBefore, hitsBefore := rebuilds.Value(), hits.Value()
			start := time.Now()
			switch {
			case r < 0.4 || len(live) == 0:
				id := fmt.Sprintf("%s%06d", tag, e)
				for i := range row {
					row[i] = rng.Uniform(5, 250)
				}
				if err := s.Join(id, ClientSpec{Zone: zone(), BandwidthMbps: 0.1, RTTRow: row}); err != nil {
					t.Fatalf("event %d join: %v", e, err)
				}
				live = append(live, id)
			case r < 0.6:
				x := rng.IntN(len(live))
				if err := s.Leave(live[x]); err != nil {
					t.Fatalf("event %d leave: %v", e, err)
				}
				live[x] = live[len(live)-1]
				live = live[:len(live)-1]
			case r < 0.8:
				if err := s.Move(live[rng.IntN(len(live))], zone()); err != nil {
					t.Fatalf("event %d move: %v", e, err)
				}
			default:
				for i := range row {
					row[i] = rng.Uniform(5, 250)
				}
				if err := s.UpdateDelayRow(live[rng.IntN(len(live))], row); err != nil {
					t.Fatalf("event %d delays: %v", e, err)
				}
			}
			d := time.Since(start)
			lat = append(lat, d)
			switch {
			case rebuilds.Value() != builtBefore:
				into.firstTouch = append(into.firstTouch, d)
			case hits.Value() != hitsBefore:
				into.warm = append(into.warm, d)
			default:
				into.unfolded = append(into.unfolded, d)
			}
		}
		return lat
	}
	lat := storm("n", &opened, func() string {
		z := fmt.Sprintf("z%d", rng.IntN(zones))
		touched = append(touched, z)
		return z
	})
	warmZone := func() string { return touched[rng.IntN(len(touched))] }
	storm("w", &opened, warmZone)
	keptBefore := reg.Counter("dvecap_cache_rows_kept_total", "").Value()
	t0 = time.Now()
	if err := s.Resolve(); err != nil {
		t.Fatal(err)
	}
	resolveSecs := time.Since(t0).Seconds()
	rowsKept := reg.Counter("dvecap_cache_rows_kept_total", "").Value() - keptBefore
	latResolved := storm("r", &resolved, warmZone)
	firstTouch, warm, unfolded := opened.firstTouch, opened.warm, opened.unfolded
	pctOf := func(d []time.Duration, p float64) int64 {
		if len(d) == 0 {
			return 0
		}
		return d[int(p*float64(len(d)-1))].Nanoseconds()
	}
	for _, d := range [][]time.Duration{lat, firstTouch, warm, unfolded, latResolved, resolved.firstTouch, resolved.warm, resolved.unfolded} {
		sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	}
	pct := func(p float64) int64 { return pctOf(lat, p) }
	t.Logf("repair latency over the first %d events at %d clients: p50 %v p95 %v p99 %v max %v",
		events, k, time.Duration(pct(0.50)), time.Duration(pct(0.95)), time.Duration(pct(0.99)), lat[len(lat)-1])
	t.Logf("of %d events, %d rebuilt a row (first touch): p50 %v p95 %v; %d folded warm rows: p50 %v p95 %v; %d had no destination with room and folded nothing: p50 %v",
		2*events, len(firstTouch), time.Duration(pctOf(firstTouch, 0.50)), time.Duration(pctOf(firstTouch, 0.95)),
		len(warm), time.Duration(pctOf(warm, 0.50)), time.Duration(pctOf(warm, 0.95)),
		len(unfolded), time.Duration(pctOf(unfolded, 0.50)))
	t.Logf("Resolve() took %.2fs and kept %d of %d candidate-delta rows clean; the %d events after it: p50 %v p99 %v; %d rebuilt a row: p50 %v; %d folded warm rows: p50 %v; %d folded nothing",
		resolveSecs, rowsKept, zones, events, time.Duration(pctOf(latResolved, 0.50)), time.Duration(pctOf(latResolved, 0.99)),
		len(resolved.firstTouch), time.Duration(pctOf(resolved.firstTouch, 0.50)),
		len(resolved.warm), time.Duration(pctOf(resolved.warm, 0.50)), len(resolved.unfolded))
	split := func(d []time.Duration) map[string]any {
		return map[string]any{"events": len(d), "p50": pctOf(d, 0.50), "p95": pctOf(d, 0.95), "p99": pctOf(d, 0.99)}
	}

	leg := map[string]any{
		"scale": map[string]any{
			"clients":     k,
			"servers":     m,
			"zones":       zones,
			"delay_model": "coord",
			"algorithm":   "GreZ-VirC",
		},
		"memory": map[string]any{
			"heap_alloc_bytes_after_open": heap,
			"rss_bytes_after_open":        rss,
			"provider_bytes":              prov,
			"dense_matrix_bytes_one_copy": int64(k) * int64(m) * 8,
			"dense_equivalent_bytes":      denseEq,
			"heap_budget_bytes":           heapBudget,
			"rss_budget_bytes":            rssBudget,
		},
		"timings": map[string]any{
			"open_seconds": openSecs,
			"repair_event_latency_ns": map[string]any{
				"events": events,
				"p50":    pct(0.50),
				"p95":    pct(0.95),
				"p99":    pct(0.99),
				"max":    lat[len(lat)-1].Nanoseconds(),
			},
			"repair_event_latency_first_touch_ns": split(firstTouch),
			"repair_event_latency_warm_row_ns":    split(warm),
			"repair_event_latency_no_fold_ns":     split(unfolded),
			"resolve_seconds":                     resolveSecs,
			"resolve_rows_kept":                   rowsKept,
			"repair_event_latency_after_resolve_ns": map[string]any{
				"all":         split(latResolved),
				"first_touch": split(resolved.firstTouch),
				"warm_row":    split(resolved.warm),
				"no_fold":     split(resolved.unfolded),
			},
		},
		"summary": fmt.Sprintf("Open on %d clients x %d servers under CoordDelays: %d MB heap / %d MB RSS against budgets of %d / %d MB — the dense representation needs %d MB for its matrices alone. Per-event repair latency at full population: p50 %s, p99 %s over the first %d churn events, which are almost all first touches of a zone; split by what the event did, over %d events: p50 %s when it rebuilt a candidate-delta row (%d events), p50 %s when it folded a warm one (%d events), %d events found no destination with room and folded nothing. A Resolve() then kept %d of %d rows clean, and of the %d events after it on the same warm zones %d rebuilt a row and %d folded a warm one (p50 %s over all of them). pQoS after open: %.4f.",
			k, m, heap>>20, rss>>20, heapBudget>>20, rssBudget>>20, denseEq>>20,
			time.Duration(pct(0.50)), time.Duration(pct(0.99)), events, 2*events,
			time.Duration(pctOf(firstTouch, 0.50)), len(firstTouch), time.Duration(pctOf(warm, 0.50)), len(warm), len(unfolded),
			rowsKept, zones, events, len(resolved.firstTouch), len(resolved.warm), time.Duration(pctOf(latResolved, 0.50)), s.PQoS()),
	}
	// One leg per population: a 5M run extends the document the 1M run
	// wrote rather than replacing it, so BENCH_scale.json accumulates the
	// scaling curve (budgets scale linearly in DVECAP_SCALE_CLIENTS).
	legs := map[string]any{}
	if old, rerr := os.ReadFile("BENCH_scale.json"); rerr == nil {
		var prev map[string]any
		if json.Unmarshal(old, &prev) == nil {
			if pl, ok := prev["legs"].(map[string]any); ok {
				legs = pl
			}
		}
	}
	legs[strconv.Itoa(k)] = leg
	report := map[string]any{
		"description": "Memory diet at scale (DESIGN.md §13): a coordinate-native cluster — every client joins with a 5-dim network coordinate, one in eight carries one measured RTT override, no dense rows anywhere — is opened under WithDelayProvider(CoordDelays) with GreZ-VirC, then two 400-event churn storms (40% full-row joins, 20% leaves, 20% moves, 20% delay-row refreshes) sample per-event repair latency at full population: the first over all zones (repair_event_latency_ns — almost every event is the first touch of its zone since the open's solve and rebuilds that zone's candidate-delta row, DESIGN.md §7), the second over the zones the first one touched; repair_event_latency_first_touch_ns, _warm_row_ns and _no_fold_ns split all 800 events by whether the event rebuilt a row, folded a maintained one, or found no destination with room for its zone and folded nothing (measured with a metrics registry attached, which the split needs). A Resolve() follows (resolve_seconds; resolve_rows_kept of the zones' candidate-delta rows stayed clean across its adoption, DESIGN.md §8) and a third storm of 400 events revisits the zones the first one touched: repair_event_latency_after_resolve_ns, split the same way — before the adoption every one of those zones was a first touch again. One leg per population (DVECAP_SCALE_CLIENTS; budgets scale linearly). Budgets are asserted by TestScaleMillionClients (scale_test.go) and fail CI on regression; the dense path cannot meet them (the matrix alone is clients x servers x 8 bytes per copy, and the open path holds two copies).",
		"date":        time.Now().Format("2006-01-02"),
		"go":          runtime.Version() + " " + runtime.GOOS + "/" + runtime.GOARCH,
		"cpu":         cpuModel(),
		"legs":        legs,
	}
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_scale.json", append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote BENCH_scale.json (%d-client leg)", k)
}
