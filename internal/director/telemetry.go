package director

// Observability for the director service. HTTP layer: per-route request
// counters, latency histograms and an in-flight gauge, all recorded
// against route PATTERNS (never raw paths — client, server and zone IDs
// would make label cardinality unbounded), plus the GET /metrics endpoint
// rendering the registry in Prometheus text format. Write path: how long
// each stage of a mutation took (writeStages).

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"dvecap/telemetry"
)

// stage is one series of dvecap_director_write_stage_duration_seconds. Its
// zero value (instrumentation off) records nothing and never reads the clock.
type stage struct{ h *telemetry.Histogram }

func (s stage) begin() (t time.Time) {
	if s.h != nil {
		t = time.Now()
	}
	return t
}

func (s stage) end(start time.Time) {
	if s.h != nil {
		s.h.Observe(time.Since(start).Seconds())
	}
}

// writeStages times the stages of the write path (persist.go): journal is
// the encode-append-fsync of one event, apply the stretch with the state
// lock write-held — by construction the only time a write can block a
// reader — and checkpoint one snapshot render plus durable write. journal
// and apply each count one observation per journaled mutation.
type writeStages struct{ journal, apply, checkpoint stage }

// newWriteStages resolves the series once; reg may be nil. The journal and
// checkpoint stages exist only on a durable director.
func newWriteStages(reg *telemetry.Registry, durable bool) writeStages {
	series := func(name string) stage {
		return stage{reg.Histogram("dvecap_director_write_stage_duration_seconds",
			"Wall time of one stage of a director mutation: journal (append + fsync, readers not blocked), apply (state lock write-held, readers blocked), checkpoint (snapshot render + write, readers not blocked).",
			nil, "stage", name)}
	}
	ws := writeStages{apply: series("apply")}
	if durable {
		ws.journal, ws.checkpoint = series("journal"), series("checkpoint")
	}
	return ws
}

// httpMetrics instruments the API handler; nil (no registry) disables it.
type httpMetrics struct {
	reg      *telemetry.Registry
	inFlight *telemetry.Gauge
}

func newHTTPMetrics(reg *telemetry.Registry) *httpMetrics {
	if reg == nil {
		return nil
	}
	return &httpMetrics{
		reg:      reg,
		inFlight: reg.Gauge("dvecap_http_in_flight", "Requests currently being served."),
	}
}

// statusRecorder captures the response code the handler chose; 200 when
// the handler wrote a body without an explicit WriteHeader.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (sr *statusRecorder) WriteHeader(code int) {
	if sr.code == 0 {
		sr.code = code
	}
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(b []byte) (int, error) {
	if sr.code == 0 {
		sr.code = http.StatusOK
	}
	return sr.ResponseWriter.Write(b)
}

// instrument layers request metrics and tracing around mux. A request's
// route label is the path of the pattern mux matches for it (mux.Handler).
// Requests mux answers itself (unknown path, wrong method) match none and
// count as "other", so a scanner probing random URLs cannot grow the label
// space; a path mux redirects to its clean form counts under the route it
// redirects to. Metric series lookups
// go through the registry per request — a mutex-guarded map hit, idempotent
// by contract — so new route/method/code combinations appear as traffic
// exercises them instead of being pre-enumerated here. Either half may be
// nil; with both nil, mux is returned untouched.
func instrument(m *httpMetrics, tr *telemetry.Tracer, mux *http.ServeMux) http.Handler {
	if m == nil && tr == nil {
		return mux
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		route := "other"
		if _, p := mux.Handler(r); p != "" {
			// Drop the method; the empty-ID route counts under the {id}
			// route it misses.
			route = strings.Replace(p[strings.IndexByte(p, ' ')+1:], "{$}", "{id}", 1)
		}
		finish := tr.Span(r.Method+" "+route, "path", r.URL.Path)
		if m != nil {
			m.inFlight.Add(1)
		}
		start := time.Now()
		sr := &statusRecorder{ResponseWriter: w}
		mux.ServeHTTP(sr, r)
		if sr.code == 0 {
			sr.code = http.StatusOK
		}
		if m != nil {
			m.reg.Histogram("dvecap_http_request_duration_seconds",
				"Wall time to serve one API request.", nil, "route", route).
				Observe(time.Since(start).Seconds())
			m.reg.Counter("dvecap_http_requests_total",
				"API requests served, by route pattern, method and status code.",
				"route", route, "method", r.Method, "code", strconv.Itoa(sr.code)).Inc()
			m.inFlight.Add(-1)
		}
		var err error
		if sr.code >= 400 {
			err = fmt.Errorf("HTTP %d", sr.code)
		}
		finish(err)
	})
}

// metricsHandler serves GET /metrics in Prometheus text exposition
// format; 404 when the director runs without a registry.
func metricsHandler(d *Director) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if d.tele == nil {
			writeErr(w, http.StatusNotFound, "telemetry disabled")
			return
		}
		w.Header().Set("Content-Type", telemetry.ContentType)
		if err := d.tele.WritePrometheus(w); err != nil {
			// Headers are sent; the scrape is torn. Log it — Prometheus
			// reports the failed scrape on its side.
			d.log.Warn("metrics render failed", "err", err)
		}
	}
}
