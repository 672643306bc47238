package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTracerDeterministicWithInjectedClock(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	base := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	tick := 0
	tr.SetClock(func() time.Time {
		tick++
		return base.Add(time.Duration(tick) * 100 * time.Millisecond)
	})

	finish := tr.Span("join", "client", 17, "zone", 4)
	finish(nil)
	tr.Span("checkpoint", "lsn", 42)(nil)
	finish = tr.Span("solve")
	finish(errors.New("infeasible"))

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3:\n%s", len(lines), buf.String())
	}
	var evs []TraceEvent
	for i, ln := range lines {
		var ev TraceEvent
		if err := json.Unmarshal([]byte(ln), &ev); err != nil {
			t.Fatalf("line %d not JSON: %v (%q)", i, err, ln)
		}
		evs = append(evs, ev)
	}
	if evs[0].Op != "join" || evs[0].Seq != 1 {
		t.Errorf("event 0 = %+v", evs[0])
	}
	// Span measured one clock tick = 100ms.
	if evs[0].Dur != 0.1 {
		t.Errorf("span duration %v, want 0.1", evs[0].Dur)
	}
	if evs[0].Attrs["client"] != float64(17) || evs[0].Attrs["zone"] != float64(4) {
		t.Errorf("attrs %v", evs[0].Attrs)
	}
	if evs[1].Op != "checkpoint" || evs[1].Attrs["lsn"] != float64(42) || evs[1].Seq != 2 {
		t.Errorf("event 1 = %+v", evs[1])
	}
	if evs[2].Err != "infeasible" || evs[2].Seq != 3 {
		t.Errorf("event 2 = %+v", evs[2])
	}
	if !evs[0].Start.Equal(base.Add(100 * time.Millisecond)) {
		t.Errorf("start %v not from injected clock", evs[0].Start)
	}
}

func TestTracerConcurrent(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&safeWriter{w: &buf})
	var wg sync.WaitGroup
	const n, per = 8, 200
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tr.Span("op")(nil)
			}
		}()
	}
	wg.Wait()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != n*per {
		t.Fatalf("%d lines, want %d", len(lines), n*per)
	}
	seen := map[uint64]bool{}
	for _, ln := range lines {
		var ev TraceEvent
		if err := json.Unmarshal([]byte(ln), &ev); err != nil {
			t.Fatalf("interleaved/corrupt line %q: %v", ln, err)
		}
		if seen[ev.Seq] {
			t.Fatalf("duplicate seq %d", ev.Seq)
		}
		seen[ev.Seq] = true
	}
}

// safeWriter serializes writes; the tracer already holds its own lock, but
// bytes.Buffer is not safe if a future change ever emits outside it.
type safeWriter struct {
	mu sync.Mutex
	w  *bytes.Buffer
}

func (s *safeWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}
