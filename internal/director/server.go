package director

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"dvecap/internal/autoscale"
	"dvecap/internal/repair"
)

// API error body.
type apiError struct {
	Error string `json:"error"`
}

// Handler returns the director's HTTP API. Its registrations are the route
// table; GET routes also answer HEAD.
//
// Servers and zones are addressed by stable ID — "s3", "z7", as the listings
// and every response name them — in the {id} path segments and in the
// "zone", "zone1" and "zone2" body fields. A purely numeric segment or field
// is the DEPRECATED dense-index alias, kept for one release: indices
// renumber when a server or zone is removed, IDs do not (Ref).
//
// Status codes follow the usual discipline: 404 for unknown clients, servers
// and zones (errors.Is on the sentinels) and unknown routes, 405 with an
// Allow header for a known route with the wrong method, 400 for malformed or
// invalid request bodies — a required field absent or null, an unknown
// field, bytes after the JSON value — (413 past the 1 MiB body cap), 409 for
// topology conflicts — removing a non-empty server or zone, draining or
// removing the last available server — and 503 for a mutation on a director
// that can no longer journal (fail-stopped by a failed append, or closed). A
// canonical client body takes the one-pass reader (wire.go), any other the
// strict decoder: the answers are identical. A durable director recovers
// inside New, before any handler exists, so every route serves recovered
// state from the first request; capdirector binds its port only after
// recovery, and a restarting instance refuses connections until it is ready.
//
// With Config.Telemetry set, every request is additionally recorded into
// per-route counters and latency histograms (label cardinality bounded by
// the registered patterns, see instrument) and an in-flight gauge.
func Handler(d *Director) http.Handler {
	mux := http.NewServeMux()
	// Liveness: the process serves.
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	// Readiness: a director that serves has already recovered.
	mux.HandleFunc("GET /v1/readyz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /metrics", metricsHandler(d)) // 404 without Config.Telemetry

	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, d.Stats())
	})
	mux.HandleFunc("GET /v1/problem", func(w http.ResponseWriter, r *http.Request) {
		// The live state as a cluster spec under the director's own IDs —
		// the one instance format, byte for byte what dvecap's
		// WriteClusterJSON writes for it — so operators can solve or
		// analyse production reality offline:
		// curl …/v1/problem > live.json && capassign -cluster live.json
		w.Header().Set("Content-Type", "application/json")
		if err := d.ClusterSpec().Encode(w); err != nil {
			// Headers (and part of the body) are already on the wire, so the
			// client sees a torn 200 — all we can do is make the failure
			// visible on the server side instead of swallowing it.
			d.log.Warn("problem snapshot write failed", "remote", r.RemoteAddr, "err", err)
		}
	})
	// Snapshot + log truncation.
	mux.HandleFunc("POST /v1/checkpoint", func(w http.ResponseWriter, r *http.Request) {
		lsn, err := d.Checkpoint()
		reply(w, http.StatusOK, CheckpointResult{LSN: lsn, Durable: d.Durable()}, err, http.StatusInternalServerError)
	})
	mux.HandleFunc("POST /v1/reassign", func(w http.ResponseWriter, r *http.Request) {
		res, err := d.Reassign()
		reply(w, http.StatusOK, res, err, http.StatusInternalServerError)
	})

	mux.HandleFunc("GET /v1/clients", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, d.Snapshot())
	})
	mux.HandleFunc("POST /v1/clients", func(w http.ResponseWriter, r *http.Request) {
		var req joinRequest
		if decodeBody(w, r, &req, readJoin) && need(w, "node", req.Node != nil) && need(w, "zone", req.Zone.set()) {
			info, err := d.JoinRef(req.ID, *req.Node, req.Zone)
			replyClient(w, http.StatusCreated, info, err)
		}
	})
	// A client ID is caller-chosen and may itself hold '/', '?', '#' or
	// '%': the mux splits the escaped path and unescapes {id}. An empty ID
	// is a malformed request rather than an unknown route.
	mux.HandleFunc("GET /v1/clients/{$}", func(w http.ResponseWriter, r *http.Request) {
		writeErr(w, http.StatusBadRequest, "missing or malformed client id")
	})
	mux.HandleFunc("GET /v1/clients/{id}", func(w http.ResponseWriter, r *http.Request) {
		info, err := d.Lookup(r.PathValue("id"))
		replyClient(w, http.StatusOK, info, err)
	})
	mux.HandleFunc("DELETE /v1/clients/{id}", func(w http.ResponseWriter, r *http.Request) {
		reply(w, http.StatusNoContent, nil, d.Leave(r.PathValue("id")), http.StatusBadRequest)
	})
	mux.HandleFunc("POST /v1/clients/{id}/move", func(w http.ResponseWriter, r *http.Request) {
		var req moveRequest
		if decodeBody(w, r, &req, readMove) && need(w, "zone", req.Zone.set()) {
			info, err := d.MoveRef(r.PathValue("id"), req.Zone)
			replyClient(w, http.StatusOK, info, err)
		}
	})
	mux.HandleFunc("POST /v1/clients/{id}/delays", func(w http.ResponseWriter, r *http.Request) {
		var req delaysRequest
		if decodeBody(w, r, &req, readDelays) {
			info, err := d.UpdateDelays(r.PathValue("id"), req.RTTsMs)
			replyClient(w, http.StatusOK, info, err)
		}
	})

	mux.HandleFunc("GET /v1/servers", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, d.Servers())
	})
	mux.HandleFunc("POST /v1/servers", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Node         *int    `json:"node"`
			CapacityMbps float64 `json:"capacity_mbps"`
			// Spare registers a warm spare: cordoned on arrival, pool
			// inventory for the autoscaler (or an explicit uncordon).
			Spare bool `json:"spare"`
		}
		if decodeBody(w, r, &req, nil) && need(w, "node", req.Node != nil) {
			info, err := d.addServer(*req.Node, req.CapacityMbps, req.Spare)
			reply(w, http.StatusCreated, info, err, http.StatusBadRequest)
		}
	})
	// Must be empty; renumbers indices.
	mux.HandleFunc("DELETE /v1/servers/{id}", func(w http.ResponseWriter, r *http.Request) {
		reply(w, http.StatusNoContent, nil, d.RemoveServer(ParseRef(r.PathValue("id"))), http.StatusBadRequest)
	})
	// Evacuate and cordon; uncordon restores the capacity.
	for verb, do := range map[string]func(Ref) (ServerInfo, error){"drain": d.DrainServer, "uncordon": d.UncordonServer} {
		mux.HandleFunc("POST /v1/servers/{id}/"+verb, func(w http.ResponseWriter, r *http.Request) {
			info, err := do(ParseRef(r.PathValue("id")))
			reply(w, http.StatusOK, info, err, http.StatusBadRequest)
		})
	}

	// Policy, streaks, decision log. Status answers even when disabled
	// (enabled=false), so operators can probe whether the control plane is
	// armed at all; the verbs below answer 409 then.
	mux.HandleFunc("GET /v1/autoscale", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, d.AutoscaleStatus())
	})
	scaler := func(verb string, do func(w http.ResponseWriter, r *http.Request, rec *autoscale.Reconciler)) {
		mux.HandleFunc("POST /v1/autoscale/"+verb, func(w http.ResponseWriter, r *http.Request) {
			if rec := d.Autoscale(); rec != nil {
				do(w, r, rec)
			} else {
				writeErr(w, http.StatusConflict, "autoscaling not enabled (start the director with -autoscale)")
			}
		})
	}
	// Override the watermarks.
	scaler("config", func(w http.ResponseWriter, r *http.Request, rec *autoscale.Reconciler) {
		var cfg autoscale.Config
		if decodeBody(w, r, &cfg, nil) {
			err := rec.SetConfig(cfg)
			reply(w, http.StatusOK, d.AutoscaleStatus(), err, http.StatusBadRequest)
		}
	})
	// Pause: observe only, fire nothing.
	for verb, paused := range map[string]bool{"pause": true, "resume": false} {
		scaler(verb, func(w http.ResponseWriter, r *http.Request, rec *autoscale.Reconciler) {
			rec.SetPaused(paused)
			writeJSON(w, http.StatusOK, d.AutoscaleStatus())
		})
	}
	// One reconcile cycle on demand: the deterministic form of the run
	// loop, for operators mid-incident and end-to-end tests.
	scaler("tick", func(w http.ResponseWriter, r *http.Request, rec *autoscale.Reconciler) {
		dec, err := rec.Tick()
		reply(w, http.StatusOK, dec, err, http.StatusInternalServerError)
	})

	mux.HandleFunc("GET /v1/zones", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, d.Zones())
	})
	// A new empty zone.
	mux.HandleFunc("POST /v1/zones", func(w http.ResponseWriter, r *http.Request) {
		info, err := d.AddZone()
		reply(w, http.StatusCreated, info, err, http.StatusBadRequest)
	})
	// Must be empty; renumbers indices.
	mux.HandleFunc("DELETE /v1/zones/{id}", func(w http.ResponseWriter, r *http.Request) {
		reply(w, http.StatusNoContent, nil, d.RetireZone(ParseRef(r.PathValue("id"))), http.StatusBadRequest)
	})

	// Interaction edges in canonical order.
	mux.HandleFunc("GET /v1/adjacency", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, d.Adjacency())
	})
	// An absolute weight; 0 removes the edge.
	mux.HandleFunc("POST /v1/adjacency", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Zone1      Ref      `json:"zone1"`
			Zone2      Ref      `json:"zone2"`
			WeightMbps *float64 `json:"weight_mbps"`
		}
		if decodeBody(w, r, &req, nil) && need(w, "zone1", req.Zone1.set()) && need(w, "zone2", req.Zone2.set()) &&
			need(w, "weight_mbps", req.WeightMbps != nil) {
			info, err := d.SetAdjacency(req.Zone1, req.Zone2, *req.WeightMbps)
			reply(w, http.StatusOK, info, err, http.StatusBadRequest)
		}
	})
	// Accumulate an observed crossing.
	mux.HandleFunc("POST /v1/adjacency/add", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Zone1     Ref      `json:"zone1"`
			Zone2     Ref      `json:"zone2"`
			DeltaMbps *float64 `json:"delta_mbps"`
		}
		if decodeBody(w, r, &req, nil) && need(w, "zone1", req.Zone1.set()) && need(w, "zone2", req.Zone2.set()) &&
			need(w, "delta_mbps", req.DeltaMbps != nil) {
			info, err := d.AddAdjacencyWeight(req.Zone1, req.Zone2, *req.DeltaMbps)
			reply(w, http.StatusOK, info, err, http.StatusBadRequest)
		}
	})
	return instrument(newHTTPMetrics(d.tele), d.trace, mux)
}

// need answers 400 naming a required body field that was absent or null,
// and reports whether it was present.
func need(w http.ResponseWriter, field string, present bool) bool {
	if !present {
		writeErr(w, http.StatusBadRequest, "missing field "+field)
	}
	return present
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

// decodeJSON reads a request's JSON body from body, a reader capped at
// maxBodyBytes, into v: one value, with no field v lacks and nothing but
// space after it. On failure it has answered — 413 for an oversized body,
// 400 for anything else — and reports false.
func decodeJSON(w http.ResponseWriter, body io.Reader, v interface{}) bool {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		if _, err = dec.Token(); err == io.EOF {
			return true
		} else if err == nil {
			err = errors.New("data after the JSON value")
		}
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
