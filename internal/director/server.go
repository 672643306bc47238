package director

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"slices"
	"strings"

	"dvecap/internal/autoscale"
	"dvecap/internal/repair"
)

// API error body.
type apiError struct {
	Error string `json:"error"`
}

// Handler returns the director's HTTP API:
//
//	POST   /v1/clients              {"id"?, "node", "zone"} → ClientInfo
//	GET    /v1/clients              → []ClientInfo
//	GET    /v1/clients/{id}         → ClientInfo
//	DELETE /v1/clients/{id}         → 204
//	POST   /v1/clients/{id}/move    {"zone"} → ClientInfo
//	POST   /v1/clients/{id}/delays  {"rtts_ms": [...]} → ClientInfo
//	GET    /v1/servers              → []ServerInfo
//	POST   /v1/servers              {"node", "capacity_mbps", "spare"?} → ServerInfo
//	DELETE /v1/servers/{id}          → 204 (must be empty; renumbers indices)
//	POST   /v1/servers/{id}/drain    → ServerInfo (evacuate + cordon)
//	POST   /v1/servers/{id}/uncordon → ServerInfo (restore capacity)
//	GET    /v1/autoscale            → AutoscaleStatus (policy, streaks, decision log)
//	POST   /v1/autoscale/config     autoscale.Config → AutoscaleStatus (override watermarks)
//	POST   /v1/autoscale/pause      → AutoscaleStatus (observe only, fire nothing)
//	POST   /v1/autoscale/resume     → AutoscaleStatus
//	POST   /v1/autoscale/tick       → autoscale.Decision (one reconcile cycle, now)
//	GET    /v1/zones                → []ZoneInfo
//	POST   /v1/zones                → ZoneInfo (new empty zone)
//	DELETE /v1/zones/{id}           → 204 (must be empty; renumbers indices)
//	GET    /v1/adjacency            → []AdjacencyInfo (interaction edges, canonical order)
//	POST   /v1/adjacency            {"zone1", "zone2", "weight_mbps"} → AdjacencyInfo (absolute; 0 removes)
//	POST   /v1/adjacency/add        {"zone1", "zone2", "delta_mbps"} → AdjacencyInfo (accumulate a crossing)
//	POST   /v1/reassign             → ReassignResult
//	POST   /v1/checkpoint           → CheckpointResult (snapshot + log truncation)
//	GET    /v1/stats                → Stats
//	GET    /v1/healthz              → 200 "ok" (pure liveness: the process serves)
//	GET    /v1/readyz               → 200 "ok" once serving; 503 while replaying
//	GET    /metrics                 → Prometheus text format (404 without Config.Telemetry)
//
// Servers and zones are addressed by stable ID — "s3", "z7", as the listings
// and every response name them — in the {id} path segments and in the
// "zone", "zone1" and "zone2" body fields. A purely numeric segment or field
// is the DEPRECATED dense-index alias, kept for one release: indices
// renumber when a server or zone is removed, IDs do not (Ref).
//
// Status codes follow the usual discipline: 404 for unknown clients,
// servers and zones (errors.Is on the sentinels) and unknown routes, 405
// for a known route with the wrong method, 400 for malformed or invalid
// request bodies (413 past the 1 MiB body cap), 409 for topology conflicts
// — removing a non-empty server or zone, draining or removing the last
// available server — and 503 for a mutation on a director that can no
// longer journal (fail-stopped by a failed append, or closed). While
// a durable director is still replaying its journal, everything but
// /v1/healthz, /v1/readyz and /metrics answers 503 with a Retry-After
// header; point load balancers at /v1/readyz and restart policies at
// /v1/healthz.
//
// With Config.Telemetry set, every request is additionally recorded into
// per-route counters and latency histograms (label cardinality bounded by
// route PATTERNS, see routePattern) and an in-flight gauge.
func Handler(d *Director) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/v1/readyz", func(w http.ResponseWriter, r *http.Request) {
		// Readiness, as distinct from /v1/healthz's liveness: a recovering
		// director is alive (don't restart it — that restarts the replay)
		// but not ready (don't route traffic to it yet).
		if d.Recovering() {
			w.Header().Set("Retry-After", "1")
			writeErr(w, http.StatusServiceUnavailable, "recovering: replaying journal")
			return
		}
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/metrics", metricsHandler(d))
	mux.HandleFunc("/v1/stats", func(w http.ResponseWriter, r *http.Request) {
		if allow(w, r, http.MethodGet) {
			writeJSON(w, http.StatusOK, d.Stats())
		}
	})
	mux.HandleFunc("/v1/problem", func(w http.ResponseWriter, r *http.Request) {
		// The live state as a cluster spec under the director's own IDs —
		// the one instance format, byte for byte what dvecap's
		// WriteClusterJSON writes for it — so operators can solve or
		// analyse production reality offline:
		// curl …/v1/problem > live.json && capassign -cluster live.json
		if !allow(w, r, http.MethodGet) {
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := d.ClusterSpec().Encode(w); err != nil {
			// Headers (and part of the body) are already on the wire, so the
			// client sees a torn 200 — all we can do is make the failure
			// visible on the server side instead of swallowing it.
			d.log.Warn("problem snapshot write failed", "remote", r.RemoteAddr, "err", err)
		}
	})
	mux.HandleFunc("/v1/checkpoint", func(w http.ResponseWriter, r *http.Request) {
		if allow(w, r, http.MethodPost) {
			lsn, err := d.Checkpoint()
			reply(w, http.StatusOK, CheckpointResult{LSN: lsn, Durable: d.Durable()}, err, http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/v1/reassign", func(w http.ResponseWriter, r *http.Request) {
		if allow(w, r, http.MethodPost) {
			res, err := d.Reassign()
			reply(w, http.StatusOK, res, err, http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/v1/clients", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			ID   string `json:"id"`
			Node int    `json:"node"`
			Zone Ref    `json:"zone"`
		}
		switch {
		case !allow(w, r, http.MethodGet, http.MethodPost):
		case r.Method == http.MethodGet:
			writeJSON(w, http.StatusOK, d.Snapshot())
		case decodeJSON(w, r, &req):
			info, err := d.JoinRef(req.ID, req.Node, req.Zone)
			reply(w, http.StatusCreated, info, err, http.StatusBadRequest)
		}
	})
	mux.HandleFunc("/v1/servers", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Node         int     `json:"node"`
			CapacityMbps float64 `json:"capacity_mbps"`
			// Spare registers a warm spare: cordoned on arrival, pool
			// inventory for the autoscaler (or an explicit uncordon).
			Spare bool `json:"spare"`
		}
		switch {
		case !allow(w, r, http.MethodGet, http.MethodPost):
		case r.Method == http.MethodGet:
			writeJSON(w, http.StatusOK, d.Servers())
		case decodeJSON(w, r, &req):
			info, err := d.addServer(req.Node, req.CapacityMbps, req.Spare)
			reply(w, http.StatusCreated, info, err, http.StatusBadRequest)
		}
	})
	mux.HandleFunc("/v1/servers/", func(w http.ResponseWriter, r *http.Request) {
		id, verb, _ := strings.Cut(strings.TrimPrefix(r.URL.Path, "/v1/servers/"), "/")
		switch verb {
		case "":
			if allow(w, r, http.MethodDelete) {
				reply(w, http.StatusNoContent, nil, d.RemoveServer(ParseRef(id)), http.StatusBadRequest)
			}
		case "drain", "uncordon":
			if allow(w, r, http.MethodPost) {
				do := d.DrainServer
				if verb == "uncordon" {
					do = d.UncordonServer
				}
				info, err := do(ParseRef(id))
				reply(w, http.StatusOK, info, err, http.StatusBadRequest)
			}
		default:
			writeErr(w, http.StatusNotFound, "unknown route")
		}
	})
	mux.HandleFunc("/v1/autoscale", func(w http.ResponseWriter, r *http.Request) {
		// Status answers even when disabled (enabled=false), so operators
		// can probe whether the control plane is armed at all.
		if allow(w, r, http.MethodGet) {
			writeJSON(w, http.StatusOK, d.AutoscaleStatus())
		}
	})
	mux.HandleFunc("/v1/autoscale/", func(w http.ResponseWriter, r *http.Request) {
		if !allow(w, r, http.MethodPost) {
			return
		}
		rec := d.Autoscale()
		if rec == nil {
			writeErr(w, http.StatusConflict, "autoscaling not enabled (start the director with -autoscale)")
			return
		}
		switch strings.TrimPrefix(r.URL.Path, "/v1/autoscale/") {
		case "config":
			var cfg autoscale.Config
			if !decodeJSON(w, r, &cfg) {
				return
			}
			if err := rec.SetConfig(cfg); err != nil {
				writeErr(w, http.StatusBadRequest, err.Error())
				return
			}
		case "pause":
			rec.SetPaused(true)
		case "resume":
			rec.SetPaused(false)
		case "tick":
			// One reconcile cycle on demand: the deterministic form of the
			// run loop, for operators mid-incident and end-to-end tests.
			dec, err := rec.Tick()
			reply(w, http.StatusOK, dec, err, http.StatusInternalServerError)
			return
		default:
			writeErr(w, http.StatusNotFound, "unknown route")
			return
		}
		writeJSON(w, http.StatusOK, d.AutoscaleStatus())
	})
	mux.HandleFunc("/v1/zones", func(w http.ResponseWriter, r *http.Request) {
		switch {
		case !allow(w, r, http.MethodGet, http.MethodPost):
		case r.Method == http.MethodGet:
			writeJSON(w, http.StatusOK, d.Zones())
		default:
			info, err := d.AddZone()
			reply(w, http.StatusCreated, info, err, http.StatusBadRequest)
		}
	})
	mux.HandleFunc("/v1/zones/", func(w http.ResponseWriter, r *http.Request) {
		if allow(w, r, http.MethodDelete) {
			err := d.RetireZone(ParseRef(strings.TrimPrefix(r.URL.Path, "/v1/zones/")))
			reply(w, http.StatusNoContent, nil, err, http.StatusBadRequest)
		}
	})
	// Both adjacency verbs take {"zone1", "zone2"} plus their weight field.
	type edgeReq struct {
		Zone1      Ref     `json:"zone1"`
		Zone2      Ref     `json:"zone2"`
		WeightMbps float64 `json:"weight_mbps"`
		DeltaMbps  float64 `json:"delta_mbps"`
	}
	mux.HandleFunc("/v1/adjacency", func(w http.ResponseWriter, r *http.Request) {
		var req edgeReq
		switch {
		case !allow(w, r, http.MethodGet, http.MethodPost):
		case r.Method == http.MethodGet:
			writeJSON(w, http.StatusOK, d.Adjacency())
		case decodeJSON(w, r, &req):
			info, err := d.SetAdjacency(req.Zone1, req.Zone2, req.WeightMbps)
			reply(w, http.StatusOK, info, err, http.StatusBadRequest)
		}
	})
	mux.HandleFunc("/v1/adjacency/add", func(w http.ResponseWriter, r *http.Request) {
		var req edgeReq
		if allow(w, r, http.MethodPost) && decodeJSON(w, r, &req) {
			info, err := d.AddAdjacencyWeight(req.Zone1, req.Zone2, req.DeltaMbps)
			reply(w, http.StatusOK, info, err, http.StatusBadRequest)
		}
	})
	mux.HandleFunc("/v1/clients/", func(w http.ResponseWriter, r *http.Request) {
		// Split the ESCAPED path, then unescape the ID segment: a client ID
		// is caller-chosen and may itself hold '/', '?', '#' or '%'.
		seg, verb, _ := strings.Cut(strings.TrimPrefix(r.URL.EscapedPath(), "/v1/clients/"), "/")
		id, err := url.PathUnescape(seg)
		if err != nil || id == "" {
			writeErr(w, http.StatusBadRequest, "missing or malformed client id")
			return
		}
		var info ClientInfo
		switch verb {
		case "":
			switch {
			case !allow(w, r, http.MethodGet, http.MethodDelete):
			case r.Method == http.MethodDelete:
				reply(w, http.StatusNoContent, nil, d.Leave(id), http.StatusBadRequest)
			default:
				info, err = d.Lookup(id)
				reply(w, http.StatusOK, info, err, http.StatusBadRequest)
			}
		case "move":
			var req struct {
				Zone Ref `json:"zone"`
			}
			if allow(w, r, http.MethodPost) && decodeJSON(w, r, &req) {
				info, err = d.MoveRef(id, req.Zone)
				reply(w, http.StatusOK, info, err, http.StatusBadRequest)
			}
		case "delays":
			var req struct {
				RTTsMs []float64 `json:"rtts_ms"`
			}
			if allow(w, r, http.MethodPost) && decodeJSON(w, r, &req) {
				info, err = d.UpdateDelays(id, req.RTTsMs)
				reply(w, http.StatusOK, info, err, http.StatusBadRequest)
			}
		default:
			writeErr(w, http.StatusNotFound, "unknown route")
		}
	})
	// While the director is still replaying its journal (a server that
	// binds its listener before recovery finishes), every request except
	// the probes and the scrape endpoint sheds with 503 + Retry-After
	// instead of being served half-replayed state.
	shed := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/healthz", "/v1/readyz", "/metrics":
		default:
			if d.Recovering() {
				w.Header().Set("Retry-After", "1")
				writeErr(w, http.StatusServiceUnavailable, "recovering: replaying journal")
				return
			}
		}
		mux.ServeHTTP(w, r)
	})
	return instrument(newHTTPMetrics(d.tele), d.trace, shed)
}

// allow reports whether the request uses one of the route's methods; when
// not, it has answered 405.
func allow(w http.ResponseWriter, r *http.Request, methods ...string) bool {
	if slices.Contains(methods, r.Method) {
		return true
	}
	msg := methods[0] + " only"
	if len(methods) > 1 {
		msg = strings.Join(methods, " or ")
	}
	writeErr(w, http.StatusMethodNotAllowed, msg)
	return false
}

// reply renders a verb's outcome: its result under status (204 has no body),
// or its error through writeOpErr.
func reply(w http.ResponseWriter, status int, v interface{}, err error, fallback int) {
	switch {
	case err != nil:
		writeOpErr(w, err, fallback)
	case status == http.StatusNoContent:
		w.WriteHeader(status)
	default:
		writeJSON(w, status, v)
	}
}

// CheckpointResult reports POST /v1/checkpoint: the LSN the snapshot
// covers, and whether the director is durable at all (a checkpoint on a
// non-durable director is an LSN-0 no-op).
type CheckpointResult struct {
	LSN     uint64 `json:"lsn"`
	Durable bool   `json:"durable"`
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, apiError{Error: msg})
}

// maxBodyBytes caps every request body the API reads.
const maxBodyBytes = 1 << 20

// decodeJSON reads the request's JSON body into v, at most maxBodyBytes of
// it. On failure it has answered — 413 for an oversized body, 400 for
// malformed JSON — and reports false.
func decodeJSON(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeErr(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("request body over %d bytes", maxBodyBytes))
	} else {
		writeErr(w, http.StatusBadRequest, "invalid JSON: "+err.Error())
	}
	return false
}

// writeOpErr maps a mutation's error onto a status — all by sentinel
// (errors.Is), never by message: 503 when the director cannot journal (a
// failed append fail-stopped it, or it was closed) — the request was fine,
// the service is not; 404 for unknown clients, servers and zones; 409 for
// topology conflicts (non-empty server or zone, last available server, last
// zone); fallback for the rest (400 where the request carries the input,
// 500 where it carries none).
func writeOpErr(w http.ResponseWriter, err error, fallback int) {
	status := fallback
	switch {
	case errors.Is(err, repair.ErrJournalFailed) || errors.Is(err, ErrDirectorClosed):
		status = http.StatusServiceUnavailable
	case errors.Is(err, ErrUnknownClient) || errors.Is(err, ErrUnknownServer) || errors.Is(err, ErrUnknownZone):
		status = http.StatusNotFound
	case errors.Is(err, ErrServerNotEmpty) || errors.Is(err, ErrZoneNotEmpty) ||
		errors.Is(err, ErrLastServer) || errors.Is(err, ErrLastZone):
		status = http.StatusConflict
	}
	writeErr(w, status, err.Error())
}
