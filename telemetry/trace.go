package telemetry

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Tracer writes structured trace events as JSON lines: one object per
// event with a monotonically assigned id, an operation name, start time,
// duration, and optional key=value fields. It is the "what happened when"
// companion to the Registry's aggregates — cheap enough to leave on for
// an incident window, greppable with standard tools.
//
// The clock is injectable so tests (and deterministic sims) get stable
// timestamps. All methods are safe for concurrent use and no-ops on a nil
// tracer, mirroring the registry's nil-safety contract.
type Tracer struct {
	mu    sync.Mutex
	w     io.Writer
	enc   *json.Encoder
	clock func() time.Time
	seq   uint64
}

// TraceEvent is the JSON shape of one emitted line.
type TraceEvent struct {
	Seq   uint64         `json:"seq"`
	Op    string         `json:"op"`
	Start time.Time      `json:"start"`
	Dur   float64        `json:"dur_s"`
	Attrs map[string]any `json:"attrs,omitempty"`
	Err   string         `json:"err,omitempty"`
}

// NewTracer returns a tracer writing JSON lines to w. Nil w yields a nil
// tracer (fully disabled).
func NewTracer(w io.Writer) *Tracer {
	if w == nil {
		return nil
	}
	return &Tracer{w: w, enc: json.NewEncoder(w), clock: time.Now}
}

// SetClock replaces the time source (for tests and deterministic sims).
func (t *Tracer) SetClock(clock func() time.Time) {
	if t == nil || clock == nil {
		return
	}
	t.mu.Lock()
	t.clock = clock
	t.mu.Unlock()
}

// now reads the clock under the lock.
func (t *Tracer) now() time.Time {
	t.mu.Lock()
	c := t.clock
	t.mu.Unlock()
	return c()
}

// Span starts a span for op and returns a finish function; call it (often
// via defer) to emit the event with the measured duration. attrs are
// alternating key/value pairs attached to the event. On a nil tracer the
// returned function is non-nil and does nothing.
func (t *Tracer) Span(op string, attrs ...any) func(err error) {
	if t == nil {
		return func(error) {}
	}
	start := t.now()
	return func(err error) {
		end := t.now()
		t.emit(op, start, end.Sub(start), err, attrs)
	}
}

func (t *Tracer) emit(op string, start time.Time, dur time.Duration, err error, attrs []any) {
	ev := TraceEvent{Op: op, Start: start.UTC(), Dur: dur.Seconds()}
	if err != nil {
		ev.Err = err.Error()
	}
	if len(attrs) >= 2 {
		ev.Attrs = make(map[string]any, len(attrs)/2)
		for i := 0; i+1 < len(attrs); i += 2 {
			if k, ok := attrs[i].(string); ok {
				ev.Attrs[k] = attrs[i+1]
			}
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	ev.Seq = t.seq
	// Encode errors are swallowed by design: tracing must never take down
	// or slow the instrumented path because a log disk filled up.
	_ = t.enc.Encode(ev)
}
