package telemetry

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// buildRegistry registers one of everything with assorted label shapes and
// returns the registry plus the expected (name, labels) -> value map used
// by the round-trip test.
func buildRegistry(t *testing.T) *Registry {
	t.Helper()
	r := NewRegistry()
	r.Counter("dvecap_events_total", "Churn events.", "type", "join").Add(41)
	r.Counter("dvecap_events_total", "Churn events.", "type", "leave").Add(7)
	r.Counter("dvecap_plain_total", "No labels.").Inc()
	r.Gauge("dvecap_pqos", "Live pQoS.").Set(0.9625)
	r.Gauge("dvecap_weird", "Escapes.", "path", `a\b"c`+"\n"+`d`).Set(-3.5)
	h := r.Histogram("dvecap_latency_seconds", "Latencies.", []float64{0.001, 0.01, 0.1}, "op", "join")
	for _, v := range []float64{0.0004, 0.002, 0.05, 0.05, 2.0} {
		h.Observe(v)
	}
	return r
}

func TestRoundTripEveryMetric(t *testing.T) {
	r := buildRegistry(t)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatalf("render: %v", err)
	}
	p, err := ParsePrometheus(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("strict parse of our own output failed: %v\n%s", err, buf.String())
	}

	// Families carry the right TYPE.
	wantTypes := map[string]string{
		"dvecap_events_total":    "counter",
		"dvecap_plain_total":     "counter",
		"dvecap_pqos":            "gauge",
		"dvecap_weird":           "gauge",
		"dvecap_latency_seconds": "histogram",
	}
	for name, typ := range wantTypes {
		if p.Types[name] != typ {
			t.Errorf("TYPE %s = %q, want %q", name, p.Types[name], typ)
		}
		if p.Help[name] == "" {
			t.Errorf("missing HELP for %s", name)
		}
	}

	// Every registered value survives the trip.
	checks := []struct {
		name   string
		labels map[string]string
		want   float64
	}{
		{"dvecap_events_total", map[string]string{"type": "join"}, 41},
		{"dvecap_events_total", map[string]string{"type": "leave"}, 7},
		{"dvecap_plain_total", nil, 1},
		{"dvecap_pqos", nil, 0.9625},
		{"dvecap_weird", map[string]string{"path": `a\b"c` + "\n" + `d`}, -3.5},
		{"dvecap_latency_seconds_bucket", map[string]string{"op": "join", "le": "0.001"}, 1},
		{"dvecap_latency_seconds_bucket", map[string]string{"op": "join", "le": "0.01"}, 2},
		{"dvecap_latency_seconds_bucket", map[string]string{"op": "join", "le": "0.1"}, 4},
		{"dvecap_latency_seconds_bucket", map[string]string{"op": "join", "le": "+Inf"}, 5},
		{"dvecap_latency_seconds_count", map[string]string{"op": "join"}, 5},
		{"dvecap_latency_seconds_sum", map[string]string{"op": "join"}, 0.0004 + 0.002 + 0.05 + 0.05 + 2.0},
	}
	for _, c := range checks {
		s, err := p.Sample(c.name, c.labels)
		if err != nil {
			t.Errorf("%v\n%s", err, buf.String())
			continue
		}
		if math.Abs(s.Value-c.want) > 1e-12 {
			t.Errorf("%s%v = %v, want %v", c.name, c.labels, s.Value, c.want)
		}
	}

	// Rendering is deterministic.
	var buf2 bytes.Buffer
	if err := r.WritePrometheus(&buf2); err != nil {
		t.Fatalf("second render: %v", err)
	}
	if buf.String() != buf2.String() {
		t.Errorf("render not stable across calls")
	}
}

func TestParserRejectsMalformed(t *testing.T) {
	bad := []string{
		"metric",                           // no value
		"metric abc",                       // non-numeric value
		"metric 1 2 3",                     // trailing fields
		"metric 1 1234567890",              // timestamp (we never emit one)
		`metric{l="v" 1`,                   // unterminated label block
		`metric{l=v} 1`,                    // unquoted value
		`metric{l="a",l="b"} 1`,            // duplicate label
		`metric{0bad="v"} 1`,               // invalid label name
		`metric{l="\q"} 1`,                 // bad escape
		"0metric 1",                        // invalid metric name
		"# TYPE m wrongtype",               // unknown type
		"# TYPE m",                         // short TYPE
		"# TYPE m counter\n# TYPE m gauge", // duplicate TYPE
	}
	for _, in := range bad {
		if _, err := ParsePrometheus(strings.NewReader(in)); err == nil {
			t.Errorf("parser accepted malformed input %q", in)
		}
	}
	// Blank lines and bare comments are fine.
	ok := "\n# just a comment\nm_total 3\n"
	p, err := ParsePrometheus(strings.NewReader(ok))
	if err != nil {
		t.Fatalf("parser rejected valid input: %v", err)
	}
	if len(p.Samples) != 1 || p.Samples[0].Value != 3 {
		t.Fatalf("got %+v", p.Samples)
	}
}

// TestHistogramBucketMath is the bucket-math property test: for random
// observation sets, cumulative bucket counts are non-decreasing, each
// cumulative count equals the number of observations ≤ its bound, and the
// +Inf bucket equals the total count; the sum matches too.
func TestHistogramBucketMath(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		// Random strictly ascending bucket layout.
		nb := 1 + rng.Intn(8)
		upper := make([]float64, nb)
		x := rng.Float64() * 0.01
		for i := range upper {
			x += rng.Float64()*0.5 + 1e-9
			upper[i] = x
		}
		r := NewRegistry()
		h := r.Histogram("h_test", "t", upper)

		n := rng.Intn(500)
		obs := make([]float64, n)
		var sum float64
		for i := range obs {
			// Mix in exact bucket-boundary values: le is inclusive.
			if rng.Intn(4) == 0 {
				obs[i] = upper[rng.Intn(nb)]
			} else {
				obs[i] = rng.Float64() * (upper[nb-1] + 1)
			}
			sum += obs[i]
			h.Observe(obs[i])
		}

		gotUpper, cum := h.Buckets()
		if len(gotUpper) != nb {
			t.Fatalf("trial %d: %d bounds, want %d", trial, len(gotUpper), nb)
		}
		prev := uint64(0)
		for i, le := range gotUpper {
			var want uint64
			for _, v := range obs {
				if v <= le {
					want++
				}
			}
			if cum[i] != want {
				t.Fatalf("trial %d: bucket le=%v cumulative=%d, want %d", trial, le, cum[i], want)
			}
			if cum[i] < prev {
				t.Fatalf("trial %d: cumulative counts decreased at %d", trial, i)
			}
			prev = cum[i]
		}
		if h.Count() != uint64(n) {
			t.Fatalf("trial %d: count %d, want %d (+Inf bucket must equal total)", trial, h.Count(), n)
		}
		if prev > h.Count() {
			t.Fatalf("trial %d: last finite bucket %d exceeds count %d", trial, prev, h.Count())
		}
		if math.Abs(h.Sum()-sum) > 1e-9*math.Max(1, math.Abs(sum)) {
			t.Fatalf("trial %d: sum %v, want %v", trial, h.Sum(), sum)
		}
	}
}

// TestConcurrentRecord hammers one registry from many goroutines — run
// under -race in CI — and checks the totals add up afterwards.
func TestConcurrentRecord(t *testing.T) {
	r := NewRegistry()
	const goroutines = 8
	const perG = 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Registration races registration and recording.
			c := r.Counter("conc_total", "c", "g", "shared")
			ga := r.Gauge("conc_gauge", "g")
			h := r.Histogram("conc_seconds", "h", []float64{0.5})
			for i := 0; i < perG; i++ {
				c.Inc()
				ga.Add(1)
				h.Observe(float64(i%2) * 0.75)
				if i%100 == 0 {
					var buf bytes.Buffer
					if err := r.WritePrometheus(&buf); err != nil {
						t.Errorf("render during writes: %v", err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if got := r.Counter("conc_total", "c", "g", "shared").Value(); got != goroutines*perG {
		t.Errorf("counter %d, want %d", got, goroutines*perG)
	}
	if got := r.Gauge("conc_gauge", "g").Value(); got != goroutines*perG {
		t.Errorf("gauge %v, want %d", got, goroutines*perG)
	}
	h := r.Histogram("conc_seconds", "h", nil)
	if h.Count() != goroutines*perG {
		t.Errorf("histogram count %d, want %d", h.Count(), goroutines*perG)
	}
	_, cum := h.Buckets()
	if cum[0] != goroutines*perG/2 {
		t.Errorf("le=0.5 cumulative %d, want %d", cum[0], goroutines*perG/2)
	}
}

// TestNilSafety proves the disabled path: nil registry, nil instruments,
// nil tracer — every call is a no-op, nothing panics.
func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total", "")
	g := r.Gauge("x", "")
	h := r.Histogram("x_seconds", "", nil)
	if c != nil || g != nil || h != nil {
		t.Fatalf("nil registry must hand out nil instruments")
	}
	c.Inc()
	c.Add(5)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatalf("nil instruments must read zero")
	}
	if u, cum := h.Buckets(); u != nil || cum != nil {
		t.Fatalf("nil histogram buckets must be nil")
	}
	if err := r.WritePrometheus(&bytes.Buffer{}); err != nil {
		t.Fatalf("nil registry render: %v", err)
	}

	var tr *Tracer
	tr.SetClock(nil)
	finish := tr.Span("noop")
	if finish == nil {
		t.Fatalf("nil tracer Span must return a callable finish")
	}
	finish(nil)
	if NewTracer(nil) != nil {
		t.Fatalf("NewTracer(nil) must be nil")
	}
}

func TestRegistryIdempotentAndConflicts(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("same_total", "h", "k", "v")
	b := r.Counter("same_total", "h", "k", "v")
	if a != b {
		t.Fatalf("same (name, labels) must return the same counter")
	}
	if c := r.Counter("same_total", "h", "k", "other"); c == a {
		t.Fatalf("different labels must return a different series")
	}
	mustPanic(t, "kind conflict", func() { r.Gauge("same_total", "h") })
	mustPanic(t, "bad name", func() { r.Counter("bad name", "h") })
	mustPanic(t, "odd labels", func() { r.Counter("odd_total", "h", "k") })
	mustPanic(t, "dup labels", func() { r.Counter("dup_total", "h", "k", "a", "k", "b") })
	mustPanic(t, "bad buckets", func() { r.Histogram("desc_seconds", "h", []float64{2, 1}) })
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", what)
		}
	}()
	f()
}
