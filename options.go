package dvecap

import (
	"fmt"
	"io"

	"dvecap/internal/core"
	"dvecap/internal/xrand"
	"dvecap/telemetry"
)

// OverflowPolicy controls what the assignment algorithms do when no server
// has residual capacity for an item. It mirrors the engine's internal
// policy without exposing it.
type OverflowPolicy int

const (
	// SpillLargestResidual places the unplaceable item on the server with
	// the largest residual capacity, accepting a capacity violation so the
	// run always completes (the default everywhere in this package).
	SpillLargestResidual OverflowPolicy = iota
	// ErrorOnOverflow aborts the solve with an error instead.
	ErrorOnOverflow
)

// DelayModel selects how a solved or opened cluster stores client↔server
// delays — the dominant memory cost at scale (a dense matrix is
// clients × servers × 8 bytes; one million clients against one hundred
// servers is ~800 MB before the solver runs).
type DelayModel int

const (
	// DenseDelays stores every client's exact delay row, each distinct row
	// once: clients with identical rows (clients at the same network node)
	// share one, and a client whose delays change moves to its own. Exact
	// and the default. Memory is O(distinct rows × servers + clients).
	DenseDelays DelayModel = iota
	// CoordDelays stores Vivaldi-style network coordinates per client and
	// server plus a sparse per-client list of measured overrides. Unmeasured
	// pairs read the coordinate-space prediction; measured pairs are exact.
	// Memory is O(clients × dim + measurements) — the million-client diet.
	// Clients may join with a coordinate (ClientSpec.Coord) and partial
	// RTTs, or with full rows (then every entry is stored as an override
	// and results are bit-identical to DenseDelays).
	CoordDelays
)

// Option configures a Solve or Open call (and, where noted, NewScenario).
// Options follow the functional-options style: pass any number, later ones
// win. Inapplicable options are ignored — e.g. WithDriftGuard does nothing
// in Solve, WithEstimationError nothing in Open, and only WithCorrelation
// and WithSeed apply to NewScenario.
type Option func(*config)

// config is the resolved option set. It stays unexported so the exported
// surface carries no engine types.
type config struct {
	workers  int
	overflow OverflowPolicy
	lsRounds int
	drift    float64
	estErr   float64
	estSet   bool
	seed     uint64
	seedSet  bool
	corr     float64
	corrSet  bool
	// durability (Open only): data directory, auto-checkpoint cadence and
	// the imbalance-guard threshold.
	durDir    string
	snapEvery int
	spread    float64
	// observability (Open only): metrics registry and trace-log sink.
	tele   *telemetry.Registry
	traceW io.Writer
	// delayModel selects the delay storage backend (WithDelayProvider).
	delayModel DelayModel
	// traffic term (WithTrafficWeight): the objective weight layered over
	// the builder's.
	trafficW   float64
	trafficSet bool
	// rng lets Scenario.Assign thread the scenario's own stream through the
	// engine, so consecutive calls draw from one reproducible sequence.
	rng *xrand.RNG
}

func resolveOptions(opts []Option) config {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// coreOptions maps the public knobs onto the engine's option struct.
func (c config) coreOptions() (core.Options, error) {
	opt := core.Options{Workers: c.workers}
	switch c.overflow {
	case SpillLargestResidual:
		opt.Overflow = core.SpillLargestResidual
	case ErrorOnOverflow:
		opt.Overflow = core.ErrorOnOverflow
	default:
		return opt, fmt.Errorf("dvecap: unknown overflow policy %d", c.overflow)
	}
	return opt, nil
}

// rngFor returns the configured random stream: the one withRNG supplied
// when set, otherwise a fresh stream seeded by WithSeed (default 0).
func (c config) rngFor() *xrand.RNG {
	if c.rng != nil {
		return c.rng
	}
	return xrand.New(c.seed)
}

// WithWorkers shards the engine's parallelisable scans — the zone-move
// search and the greedy phase's cost-matrix build — across n goroutines.
// 0 or 1 run sequentially, negative uses all CPUs. Results are
// bit-identical for every setting (DESIGN.md §8).
func WithWorkers(n int) Option {
	return func(c *config) { c.workers = n }
}

// WithOverflow selects the capacity-overflow policy (default
// SpillLargestResidual).
func WithOverflow(p OverflowPolicy) Option {
	return func(c *config) { c.overflow = p }
}

// WithLocalSearchRounds layers up to n rounds of the best-improvement
// local search (zone moves + contact switches, DESIGN.md §5) on top of the
// two-phase result. 0 (the default) disables it.
func WithLocalSearchRounds(n int) Option {
	return func(c *config) { c.lsRounds = n }
}

// WithDriftGuard arms the session's quality guard at p: once the repaired
// solution's pQoS decays more than p below the last full solve's level, an
// amortized full two-phase re-solve fires automatically (DESIGN.md §7).
// 0 (the default for Open) disables the guard — full solves then happen
// only through explicit Resolve calls. Solve ignores this option.
func WithDriftGuard(p float64) Option {
	return func(c *config) { c.drift = p }
}

// WithDurability makes the session returned by Open durable: every event
// is journaled to a write-ahead log under dir BEFORE it is applied, and
// periodic snapshots (see WithSnapshotEvery, ClusterSession.Checkpoint)
// bound recovery to the log tail. When dir already holds session state,
// Open RECOVERS instead of solving fresh: the newest valid snapshot is
// loaded, the log tail replayed through the live event path, and the
// resumed trajectory is bit-identical to one that never crashed — the
// caller's cluster spec is then ignored and the stored algorithm must
// match the requested one (DESIGN.md §11). Solve ignores this option.
func WithDurability(dir string) Option {
	return func(c *config) { c.durDir = dir }
}

// WithSnapshotEvery sets a durable session's auto-checkpoint cadence: a
// snapshot is written (and old log segments truncated) every n journaled
// events. 0 (the default) disables auto-checkpointing — snapshots then
// happen only through explicit Checkpoint calls. Ignored without
// WithDurability.
func WithSnapshotEvery(n int) Option {
	return func(c *config) { c.snapEvery = n }
}

// WithImbalanceGuard arms the session's load-imbalance guard at spread:
// once the max−min per-server utilization spread rises more than this far
// above the level the last full solve achieved, an amortized full re-solve
// fires — catching hot-spot drift that leaves pQoS untouched (the pQoS
// guard, WithDriftGuard, watches quality; this one watches balance). 0
// (the default) disables it. Solve ignores this option.
func WithImbalanceGuard(spread float64) Option {
	return func(c *config) { c.spread = spread }
}

// WithTelemetry attaches a metrics registry to the session returned by
// Open: the repair planner, evaluator cache, and (with WithDurability) the
// write-ahead log register their counters, gauges and latency histograms
// there, and the registry renders them in Prometheus text exposition
// format (telemetry.Registry.WritePrometheus). Telemetry is observation
// only — an instrumented session's decisions are bit-identical to an
// uninstrumented one's (DESIGN.md §12). Nil (the default) disables all
// instrumentation at zero cost. Solve ignores this option.
func WithTelemetry(reg *telemetry.Registry) Option {
	return func(c *config) { c.tele = reg }
}

// WithTraceLog streams structured trace events — one JSON line per session
// mutation, with operation, start time, duration and outcome — to w. The
// session serializes writes; w need not be safe for concurrent use. Nil
// (the default) disables tracing. During crash recovery the replayed
// events are NOT re-traced; tracing resumes with the first live event.
// Solve ignores this option.
func WithTraceLog(w io.Writer) Option {
	return func(c *config) { c.traceW = w }
}

// WithDelayProvider selects the delay storage backend for Solve and Open
// (default DenseDelays, every client's exact row). CoordDelays trades the
// rows for coordinates so million-client clusters open in bounded memory —
// see the DelayModel constants for the exactness guarantees of each. The
// model is a property of the run, not the builder: the same Cluster may be
// solved under different models. Durable sessions snapshot the delays in
// the model's own form, so recovery restores the same model (and the same
// bits) the session was opened with; a session opened under the
// deduplicating model older builds offered separately recovers as
// DenseDelays.
func WithDelayProvider(m DelayModel) Option {
	return func(c *config) { c.delayModel = m }
}

// WithTrafficWeight sets the inter-server traffic weight λ ≥ 0 for this
// Solve or Open call, overriding the builder's SetTrafficWeight. With
// λ > 0 and an interaction graph present, every adjacency edge whose
// endpoint zones are hosted on different servers adds λ × weight to the
// optimisation objective, so the search trades delay slack for hosting
// interacting zones together (DESIGN.md §15). 0 — the default everywhere —
// disables the term: results are bit-identical to a build without it.
func WithTrafficWeight(w float64) Option {
	return func(c *config) { c.trafficW = w; c.trafficSet = true }
}

// WithEstimationError solves against delays perturbed by a multiplicative
// error factor e ≥ 1 (estimates uniform in [d/e, d·e], the King/IDMaps
// model) while evaluating the outcome against the supplied delays — the
// noisy-measurement ablation. Factors below 1 fail the solve. When the
// option is absent the solve runs on the supplied delays directly. Open
// ignores this option.
func WithEstimationError(e float64) Option {
	return func(c *config) { c.estErr = e; c.estSet = true }
}

// WithSeed seeds the engine's randomised choices (RanZ's shuffle,
// tie-breaks). Two runs over the same cluster with the same seed are
// identical. In NewScenario it overrides ScenarioParams.Seed.
func WithSeed(seed uint64) Option {
	return func(c *config) { c.seed = seed; c.seedSet = true }
}

// WithCorrelation sets the physical↔virtual correlation δ ∈ [0,1] for
// NewScenario — the only way to set it; without the option the paper
// default (δ = 0.5) applies. Solve and Open ignore this option.
func WithCorrelation(delta float64) Option {
	return func(c *config) { c.corr = delta; c.corrSet = true }
}

// withRNG threads an existing random stream through the engine — Scenario's
// Assign sugar uses it so a scenario's solves consume its own stream, in
// call order.
func withRNG(r *xrand.RNG) Option {
	return func(c *config) { c.rng = r }
}
