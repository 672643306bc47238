package bench

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

// appendTo serialises the op canonically; the purity test compares two
// generations byte for byte through it.
func (o *Op) appendTo(b []byte) []byte {
	b = append(b, byte(o.Kind))
	for _, v := range []int32{o.Client, o.Zone, o.Node, o.Server} {
		b = binary.LittleEndian.AppendUint32(b, uint32(v))
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(o.Row)))
	for _, f := range o.Row {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
	}
	for _, ms := range [][]Member{o.Moves, o.Joins} {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(ms)))
		for _, m := range ms {
			b = binary.LittleEndian.AppendUint32(b, uint32(m.Client))
			b = binary.LittleEndian.AppendUint32(b, uint32(m.Zone))
		}
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(o.Pairs)))
	for _, p := range o.Pairs {
		for _, v := range []int32{p.A, p.B, p.N} {
			b = binary.LittleEndian.AppendUint32(b, uint32(v))
		}
	}
	for _, cs := range [][]int32{o.Leaves, o.Delays} {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(cs)))
		for _, c := range cs {
			b = binary.LittleEndian.AppendUint32(b, uint32(c))
		}
	}
	return b
}

// encodeStream drains n ops from src into their canonical encoding.
func encodeStream(src opSource, n int) []byte {
	var b []byte
	var op Op
	for i := 0; i < n; i++ {
		src.next(&op)
		b = op.appendTo(b)
	}
	return b
}

// smallOptions is the 1/50-scale configuration of the smoke runs.
func smallOptions(t *testing.T) Options {
	return Options{Seconds: 0.5, Size: 0.02, WorkDir: t.TempDir()}
}

// streams builds each workload's generator at small scale.
func streams(t *testing.T, seed uint64) map[string]opSource {
	t.Helper()
	o := smallOptions(t)
	out := map[string]opSource{}
	ccfg := churnConfig(false, o)
	w, err := newWorld(ccfg.servers, ccfg.zones, churnCapacity(ccfg))
	if err != nil {
		t.Fatal(err)
	}
	out["churn"] = newChurnGen(seed, w, ccfg)
	hcfg := hotspotConfig(o)
	hw, err := newWorld(hcfg.servers, hcfg.cols*hcfg.rows, hcfg.totalCap)
	if err != nil {
		t.Fatal(err)
	}
	if out["hotspot"], err = newHotspotGen(seed, hw, hcfg); err != nil {
		t.Fatal(err)
	}
	lcfg := libraryConfig(o)
	out["library"] = newLibraryGen(seed, newLibraryWorld(lcfg), lcfg)
	return out
}

// The operation stream is a pure function of the seed: two generations
// are byte-identical, and another seed gives another stream.
func TestOpStreamIsPureFunctionOfSeed(t *testing.T) {
	const n = 400
	a, b, c := streams(t, 7), streams(t, 7), streams(t, 8)
	for name := range a {
		ea, eb, ec := encodeStream(a[name], n), encodeStream(b[name], n), encodeStream(c[name], n)
		if !bytes.Equal(ea, eb) {
			t.Errorf("%s: two generations from seed 7 differ", name)
		}
		if bytes.Equal(ea, ec) {
			t.Errorf("%s: seeds 7 and 8 give the same stream", name)
		}
		if a[name].population() != b[name].population() {
			t.Errorf("%s: models disagree after the same stream", name)
		}
	}
}

// The churn stream never names a pinned client in a leave, never moves a
// client to the zone it is in, and holds the population near its target.
func TestChurnStreamInvariants(t *testing.T) {
	g := streams(t, 3)["churn"].(*churnGen)
	var op Op
	zones := append([]int32(nil), g.zone...)
	for i := 0; i < 20000; i++ {
		g.next(&op)
		switch op.Kind {
		case OpLeave:
			if int(op.Client) < g.pinned {
				t.Fatalf("op %d removes pinned client %d", i, op.Client)
			}
			if g.zoneOf(op.Client) != -1 {
				t.Fatalf("op %d: model still places client %d", i, op.Client)
			}
		case OpMove, OpJoin:
			if g.zoneOf(op.Client) != op.Zone {
				t.Fatalf("op %d: model zone %d, op zone %d", i, g.zoneOf(op.Client), op.Zone)
			}
			if op.Kind == OpMove && zones[op.Client] == op.Zone {
				t.Fatalf("op %d moves client %d to the zone it is in", i, op.Client)
			}
		case OpDelay:
			if len(op.Row) != len(g.w.serverNodes) {
				t.Fatalf("op %d: delay row of %d entries", i, len(op.Row))
			}
		}
		zones = append(zones[:0], g.zone...)
		if d := g.population() - g.target; d < -120 || d > 120 {
			t.Fatalf("op %d: population %d drifted from target %d", i, g.population(), g.target)
		}
	}
}

func TestPercentileAndQuartiles(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := percentile(xs, 0.5); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
	if got := percentile(xs, 0.99); math.Abs(got-9.91) > 1e-9 {
		t.Errorf("p99 = %v, want 9.91", got)
	}
	if got := percentile(xs, 0); got != 1 {
		t.Errorf("p0 = %v, want 1", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of nothing is not NaN")
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles = %v %v %v, want 1.5 4 12", q1, q2, q3)
	}
	if got := spread([]float64{1, 2, 4, 8, 16}); got != (12-1.5)/4 {
		t.Errorf("spread = %v", got)
	}
	name, _ := highestPercentile(make([]float64, 20000))
	if name != "p99.9" {
		t.Errorf("20000 samples support %s, want p99.9", name)
	}
	if name, _ = highestPercentile(make([]float64, 5000)); name != "p99" {
		t.Errorf("5000 samples support %s, want p99", name)
	}
}

func TestSegments(t *testing.T) {
	// 40 calls of 2 mutations in 4 segments of 10, each at its own rate.
	want := []float64{1000, 2000, 4000, 5000}
	s := newSegments(40, 4)
	for k, rate := range want {
		for i := 0; i < 10; i++ {
			s.add(2, int64(2e9/rate), float64(k))
		}
	}
	rates := s.rates()
	if len(rates) != 4 {
		t.Fatalf("%d segments, want 4", len(rates))
	}
	for k, r := range rates {
		if math.Abs(r-want[k]) > 1e-6 || s.from[k] != float64(k) || s.to[k] != float64(k) {
			t.Errorf("segment %d: rate %v over [%v, %v], want %v over [%d, %d]", k, r, s.from[k], s.to[k], want[k], k, k)
		}
	}
	// A trailing partial segment is dropped.
	s.add(1, 1, 9)
	if got := len(s.rates()); got != 4 {
		t.Errorf("%d segments after a partial one, want 4", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{Name: "client", Start: 0, End: 100, Parent: -1, Op: 0},
		{Name: "handler", Start: 10, End: 40, Parent: 0, Op: 0},
		{Name: "planner", Start: 15, End: 35, Parent: 1, Op: 0},
		{Name: "client", Start: 200, End: 260, Parent: -1, Op: 1},
		{Name: "handler", Start: 230, End: 300, Parent: 3, Op: 1}, // overruns its parent: clipped
	}
	st := selfTimes(spans)
	if got := st["client"]; got.Count != 2 || got.Total != 160 || got.SelfNs != (100-30)+(60-30) {
		t.Errorf("client = %+v", got)
	}
	if got := st["handler"]; got.Count != 2 || got.Total != 100 || got.SelfNs != (30-20)+70 {
		t.Errorf("handler = %+v", got)
	}
	if got := st["planner"]; got.SelfNs != 20 || got.OpSelfNs != 20 {
		t.Errorf("planner = %+v", got)
	}
	// Self times of one operation's tree sum to its root span.
	if sum := (100 - 30) + (30 - 20) + 20; sum != 100 {
		t.Errorf("self times sum to %d, root is 100", sum)
	}
	// snapshot rebases parents.
	r := newRecorder()
	r.end(r.begin("old", -1, 0))
	a := r.begin("client", -1, 1)
	r.end(r.begin("handler", a, 1))
	r.end(a)
	got := r.snapshot(1)
	if len(got) != 2 || got[0].Parent != -1 || got[1].Parent != 0 {
		t.Errorf("rebased snapshot = %+v", got)
	}
}

// The speed factor is the product of (nominal ÷ measured)^exponent over
// the probes, each measured as the median of its samples in the window.
func TestWeatherFactor(t *testing.T) {
	w := &weather{}
	for i := 0; i < 20; i++ {
		slow := 1.0
		if i >= 10 {
			slow = 2 // the second half of the run is twice as slow
		}
		for part := range w.parts {
			w.at[part] = append(w.at[part], float64(i))
			w.ns[part] = append(w.ns[part], slow*weatherNominal[part])
		}
	}
	if got := w.factor(general, 0, 9.5); math.Abs(got-1) > 1e-9 {
		t.Errorf("quiet half: factor %v, want 1", got)
	}
	if got := w.factor(general, 10, 19.5); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("slow half: general factor %v, want 0.5", got)
	}
	if got, want := w.factor(journal, 10, 19.5), math.Pow(0.5, 1.2); math.Abs(got-want) > 1e-9 {
		t.Errorf("slow half: journal factor %v, want %v", got, want)
	}
	// A window with fewer than four samples widens to its neighbours.
	if got := w.factor(general, 14.2, 14.4); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("narrow window: factor %v, want 0.5", got)
	}
	// Only one probe slow: the equal-say mix moves by its third.
	w.ns[partHTTP][15] = 8 * weatherNominal[partHTTP]
	w.ns[partHTTP][16] = 8 * weatherNominal[partHTTP]
	w.ns[partHTTP][17] = 8 * weatherNominal[partHTTP]
	w.ns[partHTTP][18] = 8 * weatherNominal[partHTTP]
	if got, want := w.factor(general, 15, 18.5), math.Pow(0.5*0.5*0.125, 1.0/3); math.Abs(got-want) > 1e-9 {
		t.Errorf("http probe 8x slow: factor %v, want %v", got, want)
	}
	if got := (&weather{}).factor(general, 0, 1); got != 1 {
		t.Errorf("no samples: factor %v, want 1", got)
	}
}

// The real kernel runs, records every probe and stops cleanly.
func TestWeatherSamples(t *testing.T) {
	w, err := newWeather()
	if err != nil {
		t.Fatal(err)
	}
	w.sample()
	w.during(func() { time.Sleep(3 * sampleEvery) })
	w.close()
	for part, name := range partNames {
		if len(w.ns[part]) < 2 || len(w.at[part]) != len(w.ns[part]) {
			t.Errorf("%s: %d samples at %d times", name, len(w.ns[part]), len(w.at[part]))
		}
		for _, ns := range w.ns[part] {
			if ns <= 0 {
				t.Errorf("%s: sample of %v ns", name, ns)
			}
		}
	}
	if f := w.factor(general, 0, w.now()); f <= 0 || math.IsNaN(f) || math.IsInf(f, 0) {
		t.Errorf("factor %v", f)
	}
}

// Each workload runs end to end at 1/50 scale with verification on: no
// operation fails and every end-to-end metric is reported, finite and
// positive.
func TestSmokeRunEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs take a few seconds each")
	}
	for _, w := range Workloads() {
		t.Run(w.Name, func(t *testing.T) {
			res, err := Run(w, 5, smallOptions(t))
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%d of %d operations failed", res.Failed, res.Attempted)
			}
			for _, spec := range EndToEnd {
				m, ok := res.Metrics[spec.Name]
				if !ok || m.Unit != spec.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value <= 0 {
					t.Errorf("%s = %+v (reported %v), want a positive %s", spec.Name, m, ok, spec.Unit)
				}
			}
		})
	}
}

// The traced run reports every per-layer metric and writes the span file.
func TestSmokeTracedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("the traced smoke run takes several seconds")
	}
	w, _ := WorkloadByName("churn_durable")
	o := smallOptions(t)
	res, err := RunTraced(w, 5, o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Fatalf("%d operations failed", res.Failed)
	}
	for _, spec := range PerLayer {
		m, ok := res.Metrics[spec.Name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s = %+v (reported %v)", spec.Name, m, ok)
		}
	}
	if fi, err := os.Stat(o.WorkDir + "/trace-churn_durable.jsonl"); err != nil || fi.Size() == 0 {
		t.Errorf("span file: %v", err)
	}
}

// BENCHMARK.json at the repository root is the contract the acceptance
// gate reads; the tables in this package must say the same.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark directory:", err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(Workloads()) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(doc.Workloads), len(Workloads()))
	}
	for i, w := range Workloads() {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the package %q", i, doc.Workloads[i].Name, w.Name)
		}
	}
	check := func(kind string, got []metric, want []MetricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d here", len(got), kind, len(want))
		}
		for i, spec := range want {
			g := got[i]
			if g.Name != spec.Name || g.Unit != spec.Unit || g.Better != spec.Better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the package %+v", kind, i, g, spec)
			}
			if bounded && (g.Bound == nil || *g.Bound != spec.Bound) {
				t.Errorf("%s %s: bounds differ", kind, spec.Name)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s %s: per-layer metrics carry no bound", kind, spec.Name)
			}
		}
	}
	check("end-to-end", doc.EndToEnd, EndToEnd, true)
	check("per-layer", doc.PerLayer, PerLayer, false)
}
