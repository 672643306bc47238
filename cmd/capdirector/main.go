// Command capdirector runs the online client-assignment service over HTTP.
// It generates (or loads) a topology, places servers with capacities, and
// then serves join/leave/move/reassign requests — the operational form of
// the paper's geographically distributed server architecture. Every churn
// request is applied through the incremental repair subsystem in
// O(affected); full two-phase re-solves run on POST /v1/reassign, on the
// -reassign-every timer, or automatically when -drift arms the quality
// guard.
//
// Usage:
//
//	capdirector -addr :8080 -servers 20 -zones 80 -capacity 500
//	capdirector -addr :8080 -topology topo.json -algorithm GreZ-VirC
//	capdirector -addr :8080 -drift 0.02 -reassign-every 5m
//	capdirector -addr :8080 -workers -1   # shard scans across all CPUs
//
// Try it:
//
//	curl -s -X POST localhost:8080/v1/clients -d '{"node":17,"zone":4}'
//	curl -s localhost:8080/v1/stats
//	curl -s -X POST localhost:8080/v1/reassign
//
// The topology is live too (DESIGN.md §10) — capacity scales and servers
// roll through deploys with O(affected) evacuation, never a
// stop-the-world re-solve:
//
//	curl -s localhost:8080/v1/servers                      # inventory: load, capacity, zones, drain status
//	curl -s -X POST localhost:8080/v1/servers -d '{"node":31,"capacity_mbps":500}'
//	curl -s -X POST localhost:8080/v1/servers/0/drain      # evacuate for a rolling deploy
//	curl -s -X POST localhost:8080/v1/servers/0/uncordon   # machine is back
//	curl -s -X DELETE localhost:8080/v1/servers/0          # retire (must be drained/empty; renumbers)
//	curl -s -X POST localhost:8080/v1/zones                # grow the virtual world
//	curl -s -X DELETE localhost:8080/v1/zones/7            # retire an empty zone (renumbers)
//
// With -autoscale the director closes the provisioning loop itself
// (DESIGN.md §14): a hysteresis reconciler observes utilization and pQoS
// every -autoscale-every, admits a warm spare (uncordon, O(affected)
// flow-back) after -autoscale-high-window consecutive ticks above
// -autoscale-util-high — or below -autoscale-pqos-floor — and drains the
// least-loaded server back into the pool after -autoscale-low-window
// ticks below -autoscale-util-low. -autoscale-spares seeds the warm pool
// at startup; cooldowns, -autoscale-min/-max and the drain guard bound
// how fast and how far the fleet moves. Inspect and steer it over HTTP:
//
//	capdirector -addr :8080 -autoscale -autoscale-spares 4 -autoscale-every 15s
//	curl -s localhost:8080/v1/autoscale                    # policy, streaks, decision log
//	curl -s -X POST localhost:8080/v1/autoscale/pause      # observe only, fire nothing
//	curl -s -X POST localhost:8080/v1/autoscale/resume
//	curl -s -X POST localhost:8080/v1/autoscale/tick       # one reconcile cycle, now
//	curl -s -X POST localhost:8080/v1/autoscale/config -d '{"UtilHigh":0.9,"UtilLow":0.4}'
//	curl -s -X POST localhost:8080/v1/servers -d '{"node":31,"capacity_mbps":500,"spare":true}'
//	curl -s localhost:8080/metrics | grep dvecap_autoscale
//
// GET /v1/stats reports, besides the paper's quality measures (pqos,
// utilization, with_qos), the repair subsystem's counters:
//
//	repair_events    churn events handled incrementally (joins+leaves+moves)
//	full_solves      full two-phase re-solves run so far
//	imbalance_solves full solves fired by the -drift-spread imbalance guard
//	zone_handoffs    zones rehosted (localized repair moves + full-solve diffs)
//	contact_switches contact re-placements made by the repair path
//	last_drift_pqos  current pQoS decay below the last full solve's level
//	util_spread      current max−min per-server utilization spread
//
// With -data-dir the director is durable (DESIGN.md §11): every event is
// journaled to a write-ahead log before it is applied, snapshots bound
// replay (-snapshot-every, plus POST /v1/checkpoint on demand), and a
// restart pointed at the same directory recovers the stored state
// bit-identically — clients, topology changes, counters, even the
// planner's RNG position. The topology flags (-topology, -seed, -servers
// …) must not change across a recovery: the delay oracle is measurement
// infrastructure, not journaled state, and the stored deployment
// supersedes the generated server placement. SIGINT/SIGTERM shut down
// gracefully: in-flight requests drain, then a final checkpoint is
// written so the next start replays nothing:
//
//	capdirector -addr :8080 -data-dir /var/lib/capdirector -snapshot-every 5000
//	curl -s -X POST localhost:8080/v1/checkpoint   # bound recovery before a deploy
//
// Observability (DESIGN.md §12): the main listener always serves
// GET /v1/healthz (liveness), GET /v1/readyz (readiness; the port binds
// only after a durable director has recovered) and GET /metrics
// (Prometheus text format: repair-event latency histograms by type,
// full-solve counters by trigger, live pQoS/utilization gauges, WAL
// append+fsync+snapshot latencies, per-route HTTP metrics). -debug-addr opens a SECOND listener
// serving /metrics plus net/http/pprof under /debug/pprof/ — keep it off
// the public network. -trace-log streams one JSON line per mutation
// (operation, duration, outcome) for incident forensics:
//
//	capdirector -addr :8080 -debug-addr localhost:6060 -trace-log /var/log/capdirector.trace
//	curl -s localhost:8080/metrics | grep dvecap_pqos
//	go tool pprof http://localhost:6060/debug/pprof/profile
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dvecap/internal/autoscale"
	"dvecap/internal/director"
	"dvecap/internal/topology"
	"dvecap/internal/xrand"
	"dvecap/telemetry"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		servers   = flag.Int("servers", 20, "number of servers")
		zones     = flag.Int("zones", 80, "number of zones")
		capacity  = flag.Float64("capacity", 500, "total server bandwidth, Mbps")
		minCap    = flag.Float64("mincap", 10, "per-server bandwidth floor, Mbps")
		bound     = flag.Float64("bound", 250, "delay bound D, ms")
		algorithm = flag.String("algorithm", "GreZ-GreC", "assignment algorithm")
		seed      = flag.Uint64("seed", 1, "random seed")
		topoFile  = flag.String("topology", "", "topology JSON (default: generate the paper's 500-node hierarchy)")
		reassign  = flag.Duration("reassign-every", 0, "re-execute the algorithm periodically (0 = only on POST /v1/reassign)")
		drift     = flag.Float64("drift", 0, "arm the repair planner's quality guard: full re-solve when pQoS decays this far below the last full solve (0 = disabled)")
		driftSprd = flag.Float64("drift-spread", 0, "arm the load-imbalance guard: full re-solve when the max-min per-server utilization spread grows this far above the last full solve's baseline (0 = disabled)")
		trafficW  = flag.Float64("traffic-weight", 0, "weight of the inter-server traffic term in the repair objective; activates once adjacency edges are installed via POST /v1/adjacency (0 = delay-only, the paper's objective)")
		workers   = flag.Int("workers", 0, "goroutines for the sharded assignment scans (0/1 = sequential, -1 = all CPUs); results are identical for every setting")
		delayProv = flag.String("delay-provider", "dense", "delay representation: dense (exact rows; clients at the same node share one) or coord (coordinates + exact overrides); assignments are bit-identical across models")
		dataDir   = flag.String("data-dir", "", "durable state directory: write-ahead journal + snapshots, recovered on restart (empty = in-memory only)")
		snapEvery = flag.Int("snapshot-every", 10000, "with -data-dir, checkpoint automatically every N journaled events (0 = only POST /v1/checkpoint)")
		debugAddr = flag.String("debug-addr", "", "second listener serving /metrics and net/http/pprof under /debug/pprof/ (keep it off the public network; empty = disabled)")
		traceLog  = flag.String("trace-log", "", "append one JSON trace event per API request to this file (empty = disabled)")

		autoEnable   = flag.Bool("autoscale", false, "run the autoscaling reconciler: scale up from the warm-spare pool on sustained high water, drain back on sustained low water (DESIGN.md §14)")
		autoEvery    = flag.Duration("autoscale-every", 15*time.Second, "reconcile interval (streaks and cooldowns count these ticks)")
		autoSpares   = flag.Int("autoscale-spares", 0, "register this many warm spares at startup (cordoned, capacity out of the utilization denominator); skipped when -data-dir recovered an existing deployment")
		autoHigh     = flag.Float64("autoscale-util-high", 0.85, "scale-up watermark: utilization at or above this is high water")
		autoLow      = flag.Float64("autoscale-util-low", 0.50, "scale-down watermark: utilization at or below this is low water")
		autoPQoS     = flag.Float64("autoscale-pqos-floor", 0, "quality trigger: pQoS below this counts as high water even at modest utilization (0 = disabled)")
		autoHighWin  = flag.Int("autoscale-high-window", 3, "consecutive high-water ticks before a scale-up fires")
		autoLowWin   = flag.Int("autoscale-low-window", 6, "consecutive low-water ticks before a scale-down fires")
		autoUpCool   = flag.Int("autoscale-up-cooldown", 2, "minimum ticks between scale-ups (-1 = none)")
		autoDownCool = flag.Int("autoscale-down-cooldown", 6, "minimum ticks between scale-downs (-1 = none)")
		autoMin      = flag.Int("autoscale-min", 1, "floor on the active (non-drained) server count")
		autoMax      = flag.Int("autoscale-max", 0, "cap on the active server count (0 = bounded only by the spare pool)")
		autoRetire   = flag.Int("autoscale-retire-after", 0, "retire a reconciler-drained server after this many further ticks (0 = keep drained servers warm forever)")
	)
	flag.Parse()

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	reg := telemetry.NewRegistry()
	var tracer *telemetry.Tracer
	if *traceLog != "" {
		tf, terr := os.OpenFile(*traceLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if terr != nil {
			log.Fatalf("capdirector: %v", terr)
		}
		defer tf.Close()
		tracer = telemetry.NewTracer(tf)
	}

	rng := xrand.New(*seed)
	var g *topology.Graph
	var err error
	if *topoFile != "" {
		f, ferr := os.Open(*topoFile)
		if ferr != nil {
			log.Fatalf("capdirector: %v", ferr)
		}
		g, err = topology.ReadJSON(f)
		f.Close()
	} else {
		g, err = topology.Hier(rng.Split(), topology.DefaultHier())
	}
	if err != nil {
		log.Fatalf("capdirector: %v", err)
	}
	dm, err := topology.NewDelayMatrix(g, 500, 0.5)
	if err != nil {
		log.Fatalf("capdirector: %v", err)
	}
	if *servers > g.N() {
		log.Fatalf("capdirector: %d servers exceed %d topology nodes", *servers, g.N())
	}
	nodes := rng.SampleWithout(g.N(), *servers)
	caps := rng.Simplex(*servers, *capacity, *minCap)

	d, err := director.New(director.Config{
		ServerNodes:     nodes,
		ServerCaps:      caps,
		Zones:           *zones,
		Delays:          dm,
		DelayBoundMs:    *bound,
		FrameRate:       25,
		MessageBytes:    100,
		Algorithm:       *algorithm,
		DelayModel:      *delayProv,
		Seed:            *seed,
		DriftPQoS:       *drift,
		DriftUtilSpread: *driftSprd,
		TrafficWeight:   *trafficW,
		Workers:         *workers,
		DataDir:         *dataDir,
		SnapshotEvery:   *snapEvery,
		Telemetry:       reg,
		Logger:          logger,
		Trace:           tracer,
	})
	if err != nil {
		log.Fatalf("capdirector: %v", err)
	}

	fmt.Printf("capdirector: %d servers, %d zones, %.0f Mbps, D=%.0fms, algorithm %s\n",
		*servers, *zones, *capacity, *bound, *algorithm)
	fmt.Printf("capdirector: topology %d nodes / %d edges; listening on %s\n", g.N(), g.M(), *addr)
	if *drift > 0 {
		fmt.Printf("capdirector: drift guard armed at %.3f pQoS\n", *drift)
	}
	if *workers > 1 || *workers < 0 {
		fmt.Printf("capdirector: sharded scans across %d workers\n", *workers)
	}
	if *driftSprd > 0 {
		fmt.Printf("capdirector: imbalance guard armed at %.3f utilization spread\n", *driftSprd)
	}
	if *trafficW > 0 {
		fmt.Printf("capdirector: traffic term armed at weight %.3f (feed edges via POST /v1/adjacency)\n", *trafficW)
	}
	if *delayProv != "dense" && *delayProv != "" {
		fmt.Printf("capdirector: %s delay provider\n", *delayProv)
	}
	if *dataDir != "" {
		fmt.Printf("capdirector: durable in %s (%d clients recovered, auto-checkpoint every %d events)\n",
			*dataDir, d.Stats().Clients, *snapEvery)
	}
	if *debugAddr != "" {
		// Diagnostics listener: /metrics for scrapers that should not touch
		// the API port, and the full pprof suite for live profiling. It has
		// no auth — bind it to localhost or a management network.
		dbg := http.NewServeMux()
		dbg.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", telemetry.ContentType)
			if err := reg.WritePrometheus(w); err != nil {
				logger.Warn("metrics render failed", "err", err)
			}
		})
		dbg.HandleFunc("/debug/pprof/", pprof.Index)
		dbg.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dbg.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dbg.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dbg.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			if err := http.ListenAndServe(*debugAddr, dbg); err != nil {
				logger.Warn("debug listener failed", "addr", *debugAddr, "err", err)
			}
		}()
		fmt.Printf("capdirector: debug listener (metrics + pprof) on %s\n", *debugAddr)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *autoEnable {
		// Warm-spare pool: extra machines registered cordoned at fresh
		// topology nodes, each at the fleet's mean capacity. Skipped when a
		// durable restart recovered a deployment — the stored topology
		// (including any spares) supersedes the flags.
		if *autoSpares > 0 && len(d.Servers()) == *servers {
			spareNodes := rng.SampleWithout(g.N(), *autoSpares)
			for _, node := range spareNodes {
				if _, err := d.AddSpareServer(node, *capacity/float64(*servers)); err != nil {
					log.Fatalf("capdirector: spare registration: %v", err)
				}
			}
			fmt.Printf("capdirector: %d warm spares registered (%.0f Mbps each, cordoned)\n",
				*autoSpares, *capacity/float64(*servers))
		}
		if err := d.EnableAutoscale(autoscale.Config{
			UtilHigh:          *autoHigh,
			UtilLow:           *autoLow,
			PQoSFloor:         *autoPQoS,
			HighWindowTicks:   *autoHighWin,
			LowWindowTicks:    *autoLowWin,
			UpCooldownTicks:   *autoUpCool,
			DownCooldownTicks: *autoDownCool,
			MinActive:         *autoMin,
			MaxActive:         *autoMax,
			RetireAfterTicks:  *autoRetire,
		}); err != nil {
			log.Fatalf("capdirector: %v", err)
		}
		go d.Autoscale().RunLoop(ctx, *autoEvery)
		fmt.Printf("capdirector: autoscaling every %s (high %.2f / low %.2f, windows %d/%d, cooldowns %d/%d)\n",
			*autoEvery, *autoHigh, *autoLow, *autoHighWin, *autoLowWin, *autoUpCool, *autoDownCool)
	}
	if *reassign > 0 {
		go d.RunReassignLoop(ctx, *reassign, func(res director.ReassignResult) {
			log.Printf("reassign: %d clients, pQoS %.3f, R %.3f, %d contacts moved; totals: %d zone handoffs, %d full solves",
				res.Clients, res.PQoS, res.Utilization, res.Moved, res.ZoneHandoffs, res.FullSolves)
		})
		fmt.Printf("capdirector: periodic reassignment every %s\n", *reassign)
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           director.Handler(d),
		ReadTimeout:       15 * time.Second,
		ReadHeaderTimeout: 5 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		log.Fatalf("capdirector: %v", err)
	case <-ctx.Done():
		// Graceful shutdown: stop taking requests, drain in-flight ones,
		// then checkpoint-and-close the journal so the next start replays
		// nothing.
		stop()
		log.Printf("capdirector: shutting down")
		shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil {
			log.Printf("capdirector: shutdown: %v", err)
		}
		if err := d.Close(); err != nil {
			log.Printf("capdirector: close: %v", err)
		}
	}
}
