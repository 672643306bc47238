// Package dvecap is a from-scratch Go reproduction of "Efficient
// Client-to-Server Assignments for Distributed Virtual Environments"
// (Duong Nguyen Binh Ta and Suiping Zhou, IEEE IPDPS 2006).
//
// A distributed virtual environment (DVE) — an online game, a military
// simulation, a shared design space — runs on geographically distributed
// servers, with the virtual world partitioned into zones, each hosted by
// exactly one server. The client assignment problem (CAP) asks: which
// server should host each zone, and which server should each client
// connect to, so that as many clients as possible experience round-trip
// delay to their zone's server within the interactivity bound, without
// overloading any server's bandwidth capacity?
//
// The package exposes the paper's two-phase decomposition and all four of
// its heuristics (RanZ/GreZ zone assignment × VirC/GreC contact
// assignment), an exact branch-and-bound baseline, the full simulation
// substrate used for its evaluation (BRITE-style topologies, delay
// matrices, bandwidth model, client distribution and churn models), and a
// harness that regenerates every table and figure of the paper.
//
// # Bring your own infrastructure
//
// The primary entry point is the Cluster builder: real servers, zones and
// clients with string IDs and measured (or matrix-supplied) RTTs, solved
// in one shot or kept repaired under churn — no synthetic generation
// anywhere (DESIGN.md §9):
//
//	c := dvecap.NewCluster(120) // D = 120 ms
//	c.AddServer("fra", dvecap.ServerSpec{CapacityMbps: 400, RTTs: map[string]float64{"nyc": 82}})
//	c.AddServer("nyc", dvecap.ServerSpec{CapacityMbps: 400})
//	c.AddZone("plaza")
//	c.AddClient("alice", dvecap.ClientSpec{Zone: "plaza", BandwidthMbps: 2,
//		RTTs: map[string]float64{"fra": 18, "nyc": 95}})
//	res, err := c.Solve("GreZ-GreC", dvecap.WithSeed(1))
//
// Solve and Open take functional options (WithWorkers, WithOverflow,
// WithLocalSearchRounds, WithDriftGuard, WithEstimationError, WithSeed).
// Open returns a ClusterSession whose Join/Leave/Move/UpdateDelays —
// all by string ID — stream into the incremental repair planner, and
// ReadClusterJSON/WriteClusterJSON round-trip the same instance through
// a JSON spec (capassign -cluster, -dump). No internal package type
// appears in any exported signature; ExampleCluster and examples/byoi
// show the full workflow.
//
// # Live topology
//
// The topology itself is mutable on an open session (DESIGN.md §10):
// AddServer grows capacity under load (spec.ClientRTTs seeds measured
// delay columns; absent clients start at UnmeasuredRTTMs until
// UpdateServerDelays streams probes in column form), DrainServer
// evacuates a server for a rolling deploy — zones force-move to the
// best available destinations, forwarding contacts re-attach, all in
// O(affected) with no full re-solve, and an in-flight drain survives
// even drift-guard full solves — then RemoveServer retires it or
// UncordonServer returns it; AddZone/RetireZone grow and shrink the
// virtual world, and JoinBatch admits a flash crowd as ONE repair event
// (memberships first, one seeded scan over the touched zones). Dense
// indices renumber on removal (the last server/zone takes the vacated
// index); IDs are stable. A session grown this way is bit-identical to
// an equivalently built static cluster, at every worker count; see
// examples/rollingdeploy and BENCH_topology.json.
//
// AddSpareServer registers a WARM SPARE: the same add path, but the
// server arrives cordoned — delays measured, capacity recorded yet out
// of the utilization denominator, zero load — as pool inventory for an
// autoscaling control loop (DESIGN.md §14) or an operator's later
// UncordonServer, which admits it in O(affected). The director pairs
// these verbs with a hysteresis reconciler (EnableAutoscale; capdirector
// -autoscale) that scales up from the pool on sustained high
// water or pQoS erosion and drains back on sustained low water.
//
// # Traffic-aware placement
//
// Interaction between zones hosted on different servers becomes
// server-to-server broadcast plus a connection handoff per crossing
// avatar. The optional traffic term (DESIGN.md §15) prices it inside
// the same lexicographic objective: register an interaction graph
// (Cluster.SetZoneAdjacency, WithZoneAdjacency, or live through
// ClusterSession.SetZoneAdjacency / AddAdjacencyWeight as zone
// crossings are observed) and a weight λ (SetTrafficWeight,
// WithTrafficWeight); quality becomes RAP cost + λ·cut, where cut is
// the summed weight of interaction edges hosted apart. pQoS keeps
// absolute priority, λ = 0 is bit-identical to the delay-only solver,
// and TrafficCut/TrafficCost read the estimate back on any session. On
// mobility-driven workloads the traffic-aware solver carries ~31% less
// measured cross-server traffic at equal pQoS (BENCH_traffic.json;
// capsim -exp traffic).
//
// # Million-client memory diet
//
// The dense client×server delay matrix is the dominant memory cost at
// scale. WithDelayProvider swaps it for a pluggable representation
// (DESIGN.md §13): CoordDelays stores a network coordinate per client
// plus sparse measured overrides — clients join with ClientSpec.Coord
// and a partial RTTs map, unmeasured pairs read the coordinate
// prediction, and a 1M-client cluster opens in a few hundred MB
// (BENCH_scale.json) — while SharedRowDelays deduplicates identical
// rows with copy-on-write divergence (exact, for clients behind one
// vantage point). DenseDelays remains the default and the reference:
// every provider is bit-identity-tested against the raw matrix under
// churn, topology mutation, fuzzed op-streams and crash recovery, and
// durable sessions snapshot provider state so recovery restores the
// same model and the same bits.
//
// # Synthetic scenarios
//
//	scn, err := dvecap.NewScenario(dvecap.ScenarioParams{Seed: 1})
//	if err != nil { ... }
//	result, err := scn.Assign("GreZ-GreC")
//	if err != nil { ... }
//	fmt.Printf("pQoS %.2f at utilisation %.2f\n", result.PQoS, result.Utilization)
//
// A Scenario is the paper's §4 world generator, nothing more: Cluster()
// returns the generated population as an ordinary Cluster (servers "s0"…,
// zones "z0"…, clients "c0"…, built through the same builder calls as
// above), Assign is sugar for Cluster().Solve on the scenario's own random
// stream, and Churn redraws the population. The equivalence tests hold the
// builder-built cluster bit for bit to a direct solve of the world's problem.
//
// # Incremental evaluation and hot-path reuse
//
// Beyond the paper, the core package is built for churn-scale
// re-optimisation. A core.Evaluator maintains a solution together with
// every derived quantity the local search scores moves by — per-client
// effective delays, per-server loads, the QoS count and the RAP cost — and
// updates them incrementally: a zone move is scored in O(clients of the
// zone) and a contact switch in O(1), with no cloning and no per-candidate
// allocation. The evaluator also supports churn mutations — clients joining,
// leaving, moving between zones, refreshing their measured delays — each
// O(1) in derived-state maintenance. A core.Workspace (threaded through
// core.Options.Scratch) gives the greedy phases reusable buffers — the cost
// matrix, GreZ's per-zone preference lists, GreC's two candidates per late
// client, the materialized delay rows of a provider-backed problem — so
// repeated Solve/Evaluate cycles — replication loops, the churn driver's
// periodic reassignment — allocate nothing but the returned assignments,
// and what it retains is O(clients + servers × zones), never clients ×
// servers. The original clone-and-rescore local search is retained inside
// internal/core as a test oracle, with equivalence tests proving both
// accept identical move sequences.
//
// # Incremental churn repair
//
// Where the paper re-executes the whole two-phase algorithm as the DVE
// evolves (§3.4), the repair subsystem (internal/repair, DESIGN.md §7)
// re-optimises only what churn touched: each join/leave/move/delay-update
// event is answered in O(servers), whatever the population of its zone —
// greedy contact placement for the event's client plus a fold of the
// maintained candidate-delta rows of the zones the event changed — while a
// drift guard triggers an amortized full re-solve only when quality decays
// past a threshold. That re-solve, too, stops re-deriving what has not
// changed: the planner keeps per client a bitset of the servers beyond the
// bound (the late index, DESIGN.md §3), written only when a delay is and
// untouched by zone crossings, and a session's full solve builds GreZ's
// cost matrix and GreC's late list from it instead of reading every
// client's delay row; ClusterSession.Result reads its metrics from what the
// evaluator maintains. The sim churn driver (ChurnConfig.Repair), the
// director service and this package's ClusterSession all run on it — on a
// real cluster or a generated one, driven by ID either way:
//
//	sess, err := scn.Cluster().Open("GreZ-GreC", dvecap.WithDriftGuard(0.02))
//	if err != nil { ... }
//	sess.Join("alice", spec); sess.Move("c17", "z3"); sess.Leave("c42")
//	result, err := sess.Result()
//
// # Parallel sharded search and candidate-delta caching
//
// The zone-move candidate scan — the local search's dominant cost — runs
// through a candidate-delta cache: per-(zone, server) rehosting deltas are
// pure functions of zone-local state, memoised one row per zone and
// maintained under churn — a join, leave, move, delay refresh or contact
// switch adjusts its zone's row in O(servers); only the zone's own
// rehosting, a full solve, a checkpoint or a server-dimension change makes
// the next fold rebuild it (DESIGN.md §8). The repair path's seeded folds
// and the drain path's evacuation read the same rows.
// With core.Options.Workers > 1 the scan additionally shards zones across
// a worker pool with a deterministic lowest-zone-wins reduction, and GreZ
// shards its cost-matrix build the same way. Results are bit-identical for
// every worker count — parallelism changes scheduling, never outcomes — so
// the repair planner, the sim churn driver, the director service and the
// capdirector -workers flag all accept it freely.
//
// BenchmarkLocalSearch and BenchmarkRepair exercise a churn-scale scenario
// (50 servers, 500 zones, 100 000 clients — far beyond the paper's
// 2000-client maximum); BENCH_localsearch.json and BENCH_repair.json record
// the measured baselines (700× vs the clone-and-rescore oracle; 2.3 µs per
// churn event vs 26.7 ms for a per-event full re-solve), and
// BENCH_parallel.json the
// cached+sharded search (3.0× over the cache-free rescan on a cold 8-round
// search, with warm rounds ~80× cheaper).
//
// The facade in this package covers common workflows; the full machinery
// (generators, exact solver, churn simulation, experiment harness) lives in
// the internal packages and is exercised through the cmd/ tools.
package dvecap
