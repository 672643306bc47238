package dvecap

import (
	"fmt"

	"dvecap/internal/core"
	"dvecap/internal/estimator"
	"dvecap/internal/interact"
	"dvecap/internal/repair"
	"dvecap/telemetry"
)

// Sentinel errors of the Cluster API. Test with errors.Is; the director
// service shares the sentinels, so discrimination works across layers.
var (
	// ErrUnknownClient reports an operation on an unregistered client ID.
	ErrUnknownClient error = repair.ErrUnknownClient
	// ErrDuplicateClient reports a join under an ID already registered.
	ErrDuplicateClient error = repair.ErrDuplicateClient
	// ErrUnknownZone reports a reference to a zone ID never added (or
	// already retired).
	ErrUnknownZone error = repair.ErrUnknownZone
	// ErrUnknownServer reports a reference to a server ID never added (or
	// already removed).
	ErrUnknownServer error = repair.ErrUnknownServer
	// ErrServerNotEmpty reports a ClusterSession.RemoveServer while the
	// server still hosts zones or serves contacts — DrainServer first.
	ErrServerNotEmpty error = repair.ErrServerNotEmpty
	// ErrZoneNotEmpty reports a ClusterSession.RetireZone while clients
	// are still in the zone — Move or Leave them first.
	ErrZoneNotEmpty error = repair.ErrZoneNotEmpty
	// ErrLastServer reports an operation that would leave the session
	// without an available server (removing or draining the last one).
	ErrLastServer error = repair.ErrLastServer
	// ErrLastZone reports retiring the session's only zone.
	ErrLastZone error = repair.ErrLastZone
)

// ServerSpec describes one server of a Cluster.
type ServerSpec struct {
	// CapacityMbps is the server's bandwidth capacity. Required, > 0.
	CapacityMbps float64
	// RTTs maps other server IDs to the measured server↔server round-trip
	// time in milliseconds. A pair may be supplied on either endpoint (or
	// both, if they agree); every pair must be covered by the time the
	// cluster is solved, unless SetServerRTTs supplies the full matrix.
	// Servers referenced here may be added later. Inter-server links are
	// assumed well-provisioned — supply discounted RTTs if your deployment
	// models that (the paper uses 50%). For ClusterSession.AddServer the
	// map must cover every server the session currently has.
	RTTs map[string]float64
	// ClientRTTs maps client IDs to measured client↔server RTTs (ms)
	// toward THIS server. Only ClusterSession.AddServer reads it — it
	// seeds existing clients' delay columns for the new server; clients
	// absent from the map start at UnmeasuredRTTMs until a delay update
	// supplies a measurement. The Cluster builder ignores it (clients
	// supply full rows there).
	ClientRTTs map[string]float64
}

// ClientSpec describes one client: its zone, its bandwidth requirement on
// the zone's server, and its measured delays. Without Coord, exactly one
// of RTTs and RTTRow must be set and must cover every server. With Coord
// (usable only under WithDelayProvider(CoordDelays)), RTTs may be partial
// — or absent entirely — and RTTRow must be nil.
type ClientSpec struct {
	// Zone is the ID of the zone the client's avatar is in. Required.
	Zone string
	// BandwidthMbps is the client's bandwidth requirement on its target
	// server (the paper's R^T). Required, > 0.
	BandwidthMbps float64
	// RTTs maps server IDs to measured client↔server round-trip times in
	// milliseconds. Every server must be covered — unless Coord is set, in
	// which case the map may cover any subset (the measured candidates)
	// and unmeasured servers read the coordinate prediction.
	RTTs map[string]float64
	// RTTRow is the same information as a dense row in ServerIDs order —
	// the matrix-supplied form for callers that already hold one (e.g. a
	// King/IDMaps estimator snapshot).
	RTTRow []float64
	// Coord is the client's network coordinate (length DelayModel
	// dimensionality, core default 5) for CoordDelays clusters — the
	// million-client join path: no per-server rows at all, delays beyond
	// the RTTs subset are predicted from coordinate distance. Solving such
	// a cluster under any other delay model fails.
	Coord []float64
}

// Cluster assembles a client-assignment instance from real infrastructure:
// servers, zones and clients with string IDs and measured (or
// matrix-supplied) RTTs; the synthetic Scenario generator fills one through
// the same calls. Once populated it is solved in one shot (Solve) or kept
// repaired under churn (Open).
//
// Dense indices — the ZoneServer/ClientContact slices of Result — follow
// insertion order: the i-th AddServer call is server index i, and likewise
// for zones and clients (see ServerIDs, ZoneIDs, ClientIDs). A Cluster is
// not safe for concurrent use; the session returned by Open is
// independent of later mutations of the builder.
//
// The built problem is cached until the next mutation, together with which
// clients are beyond the delay bound at which servers (DESIGN.md §3). The
// first GreZ or DynZ solve of a build reads every client's delay row to
// count them; later Solve and Open calls read only the late clients' rows.
// Solves under WithEstimationError, WithTrafficWeight or WithZoneAdjacency
// run on a throwaway copy of the problem and still read every row.
type Cluster struct {
	delayBound float64

	serverIDs []string
	serverIdx map[string]int
	caps      []float64
	ssSpecs   []map[string]float64
	ssMatrix  [][]float64

	zoneIDs []string
	zoneIdx map[string]int

	// adj holds builder-registered interaction edges, keyed by the
	// canonical (lower, higher) dense zone-index pair; trafficW is the
	// builder-level traffic weight (SetTrafficWeight). Both feed the
	// traffic term of DESIGN.md §15; the Solve/Open options
	// WithZoneAdjacency and WithTrafficWeight layer over them per run.
	adj      map[[2]int]float64
	trafficW float64

	clientIDs []string
	clientIdx map[string]int
	clients   []ClientSpec

	built      *core.Problem
	builtModel DelayModel
	dirty      bool
	late       core.LateIndex // built's; see the type comment
}

// NewCluster starts an empty cluster with the given interactivity bound
// D in milliseconds (the paper's default is 250).
func NewCluster(delayBoundMs float64) *Cluster {
	return &Cluster{
		delayBound: delayBoundMs,
		serverIdx:  map[string]int{},
		zoneIdx:    map[string]int{},
		clientIdx:  map[string]int{},
	}
}

// AddServer registers a server. IDs must be unique across servers.
func (c *Cluster) AddServer(id string, spec ServerSpec) error {
	if id == "" {
		return fmt.Errorf("dvecap: empty server ID")
	}
	if _, dup := c.serverIdx[id]; dup {
		return fmt.Errorf("dvecap: duplicate server %q", id)
	}
	if !repair.FinitePos(spec.CapacityMbps) {
		return fmt.Errorf("dvecap: server %q capacity %v, want finite > 0", id, spec.CapacityMbps)
	}
	c.serverIdx[id] = len(c.serverIDs)
	c.serverIDs = append(c.serverIDs, id)
	c.caps = append(c.caps, spec.CapacityMbps)
	rtts := make(map[string]float64, len(spec.RTTs))
	for k, v := range spec.RTTs {
		rtts[k] = v
	}
	c.ssSpecs = append(c.ssSpecs, rtts)
	c.dirty = true
	return nil
}

// AddZone registers a virtual-world zone. IDs must be unique across zones.
// Zones may be empty (no clients), but every zone is always hosted by
// exactly one server.
func (c *Cluster) AddZone(id string) error {
	if id == "" {
		return fmt.Errorf("dvecap: empty zone ID")
	}
	if _, dup := c.zoneIdx[id]; dup {
		return fmt.Errorf("dvecap: duplicate zone %q", id)
	}
	c.zoneIdx[id] = len(c.zoneIDs)
	c.zoneIDs = append(c.zoneIDs, id)
	c.dirty = true
	return nil
}

// AddClient registers a client. The zone must already exist; servers
// referenced by spec.RTTs may be added later (coverage is checked at
// solve time).
func (c *Cluster) AddClient(id string, spec ClientSpec) error {
	if id == "" {
		return fmt.Errorf("dvecap: empty client ID")
	}
	if _, dup := c.clientIdx[id]; dup {
		return fmt.Errorf("dvecap: %w %q", ErrDuplicateClient, id)
	}
	if _, ok := c.zoneIdx[spec.Zone]; !ok {
		return fmt.Errorf("dvecap: client %q: %w %q", id, ErrUnknownZone, spec.Zone)
	}
	if !repair.FinitePos(spec.BandwidthMbps) {
		return fmt.Errorf("dvecap: client %q bandwidth %v Mbps, want finite > 0", id, spec.BandwidthMbps)
	}
	if spec.Coord != nil {
		if spec.RTTRow != nil {
			return fmt.Errorf("dvecap: client %q: Coord and RTTRow are mutually exclusive (partial RTTs may accompany a coordinate)", id)
		}
	} else if (spec.RTTs == nil) == (spec.RTTRow == nil) {
		return fmt.Errorf("dvecap: client %q: set exactly one of RTTs and RTTRow", id)
	}
	c.clientIdx[id] = len(c.clientIDs)
	c.clientIDs = append(c.clientIDs, id)
	c.clients = append(c.clients, spec)
	c.dirty = true
	return nil
}

// SetZoneAdjacency registers the interaction edge (zone1, zone2) with the
// given weight — the observed (or modelled) cross-zone interaction rate in
// Mbps. Both zones must already exist; a weight of 0 removes the edge.
// Edges shape placement only when the cluster is solved or opened with
// WithTrafficWeight(λ > 0): each edge hosted across two servers then adds
// λ × weight to the objective (DESIGN.md §15).
func (c *Cluster) SetZoneAdjacency(zone1, zone2 string, weightMbps float64) error {
	a, err := c.zoneIndex(zone1)
	if err != nil {
		return err
	}
	b, err := c.zoneIndex(zone2)
	if err != nil {
		return err
	}
	if a == b {
		return fmt.Errorf("dvecap: self-adjacency on zone %q", zone1)
	}
	if !repair.FiniteNonNeg(weightMbps) {
		return fmt.Errorf("dvecap: adjacency (%q,%q) weight %v, want finite >= 0", zone1, zone2, weightMbps)
	}
	if a > b {
		a, b = b, a
	}
	if c.adj == nil {
		c.adj = map[[2]int]float64{}
	}
	if weightMbps == 0 {
		delete(c.adj, [2]int{a, b})
	} else {
		c.adj[[2]int{a, b}] = weightMbps
	}
	c.dirty = true
	return nil
}

// SetTrafficWeight sets the builder-level traffic weight λ ≥ 0 (default 0,
// term off). The WithTrafficWeight option overrides it per Solve/Open.
func (c *Cluster) SetTrafficWeight(w float64) error {
	if !repair.FiniteNonNeg(w) {
		return fmt.Errorf("dvecap: traffic weight %v, want finite >= 0", w)
	}
	c.trafficW = w
	c.dirty = true
	return nil
}

// SetServerRTTs supplies the full server↔server RTT matrix at once, in
// ServerIDs order, replacing any per-pair RTTs given to AddServer. The
// matrix must be square over the current servers with a zero diagonal.
func (c *Cluster) SetServerRTTs(rtts [][]float64) error {
	m := len(c.serverIDs)
	if len(rtts) != m {
		return fmt.Errorf("dvecap: RTT matrix has %d rows, want %d", len(rtts), m)
	}
	mat := make([][]float64, m)
	for i, row := range rtts {
		if len(row) != m {
			return fmt.Errorf("dvecap: RTT matrix row %d has %d entries, want %d", i, len(row), m)
		}
		mat[i] = append([]float64(nil), row...)
	}
	c.ssMatrix = mat
	c.dirty = true
	return nil
}

// NumServers returns the number of servers added so far.
func (c *Cluster) NumServers() int { return len(c.serverIDs) }

// NumZones returns the number of zones added so far.
func (c *Cluster) NumZones() int { return len(c.zoneIDs) }

// NumClients returns the number of clients added so far.
func (c *Cluster) NumClients() int { return len(c.clientIDs) }

// ServerIDs returns the server IDs in dense index order.
func (c *Cluster) ServerIDs() []string { return append([]string(nil), c.serverIDs...) }

// ZoneIDs returns the zone IDs in dense index order.
func (c *Cluster) ZoneIDs() []string { return append([]string(nil), c.zoneIDs...) }

// ClientIDs returns the client IDs in dense index order.
func (c *Cluster) ClientIDs() []string { return append([]string(nil), c.clientIDs...) }

// lookupServer resolves a server ID without error construction — the
// builder's form of the lookup resolveRTTRow takes.
func (c *Cluster) lookupServer(id string) (int, bool) {
	i, ok := c.serverIdx[id]
	return i, ok
}

// serverIndex resolves a server ID.
func (c *Cluster) serverIndex(id string) (int, error) {
	i, ok := c.serverIdx[id]
	if !ok {
		return 0, fmt.Errorf("dvecap: %w %q", ErrUnknownServer, id)
	}
	return i, nil
}

// zoneIndex resolves a zone ID.
func (c *Cluster) zoneIndex(id string) (int, error) {
	z, ok := c.zoneIdx[id]
	if !ok {
		return 0, fmt.Errorf("dvecap: %w %q", ErrUnknownZone, id)
	}
	return z, nil
}

// buildSS assembles the server↔server matrix from the full-matrix override
// or the per-pair specs, checking coverage and consistency.
func (c *Cluster) buildSS() ([][]float64, error) {
	m := len(c.serverIDs)
	if c.ssMatrix != nil {
		if len(c.ssMatrix) != m {
			return nil, fmt.Errorf("dvecap: RTT matrix covers %d servers, cluster has %d", len(c.ssMatrix), m)
		}
		out := make([][]float64, m)
		for i := range c.ssMatrix {
			out[i] = append([]float64(nil), c.ssMatrix[i]...)
		}
		return out, nil
	}
	out := make([][]float64, m)
	set := make([][]bool, m)
	for i := 0; i < m; i++ {
		out[i] = make([]float64, m)
		set[i] = make([]bool, m)
		set[i][i] = true
	}
	for i, rtts := range c.ssSpecs {
		for sid, d := range rtts {
			l, ok := c.serverIdx[sid]
			if !ok {
				return nil, fmt.Errorf("dvecap: server %q RTT: %w %q", c.serverIDs[i], ErrUnknownServer, sid)
			}
			if l == i {
				if d != 0 {
					return nil, fmt.Errorf("dvecap: server %q self-RTT %v, want 0", sid, d)
				}
				continue
			}
			if set[i][l] && out[i][l] != d {
				return nil, fmt.Errorf("dvecap: conflicting RTTs for servers %q↔%q: %v vs %v",
					c.serverIDs[i], sid, out[i][l], d)
			}
			out[i][l], out[l][i] = d, d
			set[i][l], set[l][i] = true, true
		}
	}
	for i := 0; i < m; i++ {
		for l := i + 1; l < m; l++ {
			if !set[i][l] {
				return nil, fmt.Errorf("dvecap: missing RTT between servers %q and %q (supply it on either, or use SetServerRTTs)",
					c.serverIDs[i], c.serverIDs[l])
			}
		}
	}
	return out, nil
}

// problem validates the cluster into a dense core problem, cached until
// the next mutation — the default build path.
func (c *Cluster) problem() (*core.Problem, error) {
	return c.problemFor(DenseDelays)
}

// problemFor validates the cluster into a core problem under the given
// delay model. The dense model builds (and caches) the full CS matrix;
// the provider models never materialize it — a CoordDelays build of a
// coordinate-native million-client cluster allocates O(clients) state.
func (c *Cluster) problemFor(model DelayModel) (*core.Problem, error) {
	if c.built != nil && !c.dirty && c.builtModel == model {
		return c.built, nil
	}
	k := len(c.clientIDs)
	p := &core.Problem{
		ServerCaps:  append([]float64(nil), c.caps...),
		ClientZones: make([]int, k),
		NumZones:    len(c.zoneIDs),
		ClientRT:    make([]float64, k),
		D:           c.delayBound,
	}
	ss, err := c.buildSS()
	if err != nil {
		return nil, err
	}
	p.SS = ss

	var coord *core.CoordProvider
	var shared *core.SharedRowProvider
	m := len(c.serverIDs)
	switch model {
	case DenseDelays:
		p.CS = make([][]float64, k)
	case CoordDelays:
		coord = core.NewCoordProviderFromSS(ss, 0)
		p.Delays = coord
	case SharedRowDelays:
		shared = core.NewSharedRowProvider(m)
		p.Delays = shared
	default:
		return nil, fmt.Errorf("dvecap: unknown delay model %d", model)
	}

	rowBuf := make([]float64, m)
	for j, spec := range c.clients {
		z, err := c.zoneIndex(spec.Zone)
		if err != nil {
			return nil, err
		}
		p.ClientZones[j] = z
		p.ClientRT[j] = spec.BandwidthMbps
		if spec.Coord != nil {
			if coord == nil {
				return nil, fmt.Errorf("dvecap: client %q supplies a coordinate; open the cluster WithDelayProvider(CoordDelays)", c.clientIDs[j])
			}
			srvs, vals, err := c.resolveSparseRTTs(c.clientIDs[j], spec.RTTs)
			if err != nil {
				return nil, err
			}
			coord.AddClientAt(spec.Coord, srvs, vals)
			continue
		}
		if coord != nil && spec.RTTRow == nil && len(spec.RTTs) < m {
			// Coordinate mode admits partial maps even without an explicit
			// coordinate: the coordinate is fitted from the measurements.
			srvs, vals, err := c.resolveSparseRTTs(c.clientIDs[j], spec.RTTs)
			if err != nil {
				return nil, err
			}
			coord.AddClientFitted(srvs, vals)
			continue
		}
		row, err := resolveRTTRow(c.clientIDs[j], spec, c.serverIDs, c.lookupServer, rowBuf)
		if err != nil {
			return nil, err
		}
		for i, d := range row {
			if !repair.FiniteNonNeg(d) {
				return nil, fmt.Errorf("dvecap: client %q RTT to server %q is %v ms, want finite >= 0", c.clientIDs[j], c.serverIDs[i], d)
			}
		}
		switch {
		case coord != nil:
			coord.AppendClient(row)
		case shared != nil:
			shared.AppendClient(row)
		default:
			p.CS[j] = append([]float64(nil), row...)
		}
	}
	if len(c.adj) > 0 {
		g := interact.New(p.NumZones)
		for key, w := range c.adj {
			if _, err := g.Set(key[0], key[1], w); err != nil {
				return nil, fmt.Errorf("dvecap: adjacency (%q,%q): %w", c.zoneIDs[key[0]], c.zoneIDs[key[1]], err)
			}
		}
		p.Adjacency = g
	}
	p.TrafficWeight = c.trafficW
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("dvecap: invalid cluster: %w", err)
	}
	c.built, c.builtModel, c.dirty = p, model, false
	c.late = core.LateIndex{}
	return p, nil
}

// problemTrafficFor is problemFor plus the run-scoped traffic options:
// WithTrafficWeight overrides the builder's weight and WithZoneAdjacency
// edges overlay the builder's graph, on a shallow copy so the builder's
// cached problem stays untouched.
func (c *Cluster) problemTrafficFor(cfg config) (*core.Problem, error) {
	p, err := c.problemFor(cfg.delayModel)
	if err != nil {
		return nil, err
	}
	if !cfg.trafficSet && len(cfg.adjEdges) == 0 {
		return p, nil
	}
	q := *p
	if cfg.trafficSet {
		if !repair.FiniteNonNeg(cfg.trafficW) {
			return nil, fmt.Errorf("dvecap: traffic weight %v, want finite >= 0", cfg.trafficW)
		}
		q.TrafficWeight = cfg.trafficW
	}
	if len(cfg.adjEdges) > 0 {
		g := p.Adjacency.Clone()
		if g == nil {
			g = interact.New(q.NumZones)
		}
		for _, e := range cfg.adjEdges {
			a, err := c.zoneIndex(e.a)
			if err != nil {
				return nil, err
			}
			b, err := c.zoneIndex(e.b)
			if err != nil {
				return nil, err
			}
			if _, err := g.Set(a, b, e.w); err != nil {
				return nil, fmt.Errorf("dvecap: adjacency (%q,%q): %w", e.a, e.b, err)
			}
		}
		q.Adjacency = g
	}
	return &q, nil
}

// resolveSparseRTTs turns a partial RTTs map into sorted-by-resolution
// sparse (server index, delay) lists for the coordinate provider. Iteration
// follows ServerIDs order so the result is deterministic.
func (c *Cluster) resolveSparseRTTs(owner string, rtts map[string]float64) ([]int32, []float64, error) {
	for sid, d := range rtts {
		if _, ok := c.serverIdx[sid]; !ok {
			return nil, nil, fmt.Errorf("dvecap: client %q RTT: %w %q", owner, ErrUnknownServer, sid)
		}
		if !repair.FiniteNonNeg(d) {
			return nil, nil, fmt.Errorf("dvecap: client %q RTT to server %q is %v ms, want finite >= 0", owner, sid, d)
		}
	}
	var srvs []int32
	var vals []float64
	for i, sid := range c.serverIDs {
		if d, ok := rtts[sid]; ok {
			srvs = append(srvs, int32(i))
			vals = append(vals, d)
		}
	}
	return srvs, vals, nil
}

// resolveRTTRow turns a ClientSpec's RTTs (map or dense row) into a dense
// row in server order, writing into buf when it has capacity. lookup
// resolves a server ID to its dense index. It resolves only: the builder
// range-checks the row itself, a session's Machine.Check does. The returned
// slice may alias spec.RTTRow or buf — callers must copy to retain (the
// planner always copies).
func resolveRTTRow(owner string, spec ClientSpec, serverIDs []string, lookup func(string) (int, bool), buf []float64) ([]float64, error) {
	m := len(serverIDs)
	if (spec.RTTs == nil) == (spec.RTTRow == nil) {
		return nil, fmt.Errorf("dvecap: client %q: set exactly one of RTTs and RTTRow", owner)
	}
	if spec.RTTRow != nil {
		if len(spec.RTTRow) != m {
			return nil, fmt.Errorf("dvecap: client %q RTT row has %d entries, want %d", owner, len(spec.RTTRow), m)
		}
		return spec.RTTRow, nil
	}
	if cap(buf) < m {
		buf = make([]float64, m)
	}
	buf = buf[:m]
	if len(spec.RTTs) != m {
		for sid := range spec.RTTs {
			if _, ok := lookup(sid); !ok {
				return nil, fmt.Errorf("dvecap: client %q RTT: %w %q", owner, ErrUnknownServer, sid)
			}
		}
		for _, sid := range serverIDs {
			if _, ok := spec.RTTs[sid]; !ok {
				return nil, fmt.Errorf("dvecap: client %q missing RTT to server %q", owner, sid)
			}
		}
	}
	for sid, d := range spec.RTTs {
		i, ok := lookup(sid)
		if !ok {
			return nil, fmt.Errorf("dvecap: client %q RTT: %w %q", owner, ErrUnknownServer, sid)
		}
		buf[i] = d
	}
	return buf, nil
}

// Solve runs the named two-phase algorithm ("RanZ-VirC", "RanZ-GreC",
// "GreZ-VirC", "GreZ-GreC", or the extension "DynZ-GreC") over the
// cluster's current population. See Algorithms for the accepted names and
// the Option funcs for the knobs (workers, overflow, local-search rounds,
// estimation error, seed).
func (c *Cluster) Solve(algorithm string, opts ...Option) (*Result, error) {
	cfg := resolveOptions(opts)
	tp, ok := core.ByName(algorithm)
	if !ok {
		return nil, fmt.Errorf("dvecap: unknown algorithm %q (have %v)", algorithm, Algorithms())
	}
	truth, err := c.problemTrafficFor(cfg)
	if err != nil {
		return nil, err
	}
	opt, err := cfg.coreOptions()
	if err != nil {
		return nil, err
	}
	rng := cfg.rngFor()
	solveP := truth
	if cfg.estSet {
		noisy, err := estimator.WithFactor(cfg.estErr).PerturbProblem(rng.Split(), truth)
		if err != nil {
			return nil, err
		}
		solveP = noisy
	}
	if solveP == c.built {
		opt.Late = &c.late
	}
	a, err := tp.Solve(rng.Split(), solveP, opt)
	if err != nil {
		return nil, err
	}
	if cfg.lsRounds > 0 {
		a = core.LocalSearchOpt(solveP, a, cfg.lsRounds, opt)
	}
	return newResult(algorithm, truth, a, core.Evaluate(truth, a), c.ClientIDs()), nil
}

// Open solves the cluster's current population once and returns a session
// that keeps the solution repaired in O(affected) per event — clients
// joining, leaving, moving and refreshing their measured delays by ID —
// instead of re-running the full algorithm after every change (DESIGN.md
// §7). The session snapshots the cluster; mutating the builder afterwards
// does not affect it. WithDriftGuard and WithImbalanceGuard arm the
// automatic re-solve; WithDurability makes the session crash-recoverable
// (and, when the directory already holds state, RECOVERS the stored
// session instead of solving this cluster — see the option's doc).
func (c *Cluster) Open(algorithm string, opts ...Option) (*ClusterSession, error) {
	cfg := resolveOptions(opts)
	if cfg.durDir != "" {
		return c.openDurable(algorithm, cfg)
	}
	return c.openSession(algorithm, cfg)
}

// openSession is the non-durable (and fresh-durable) construction path.
func (c *Cluster) openSession(algorithm string, cfg config) (*ClusterSession, error) {
	tp, ok := core.ByName(algorithm)
	if !ok {
		return nil, fmt.Errorf("dvecap: unknown algorithm %q (have %v)", algorithm, Algorithms())
	}
	p, err := c.problemTrafficFor(cfg)
	if err != nil {
		return nil, err
	}
	opt, err := cfg.coreOptions()
	if err != nil {
		return nil, err
	}
	if p == c.built {
		opt.Late = &c.late // the planner copies it, never writes it
	}
	pl, err := repair.New(repair.Config{
		Algo:            tp,
		Opt:             opt,
		DriftPQoS:       cfg.drift,
		DriftUtilSpread: cfg.spread,
	}, p, cfg.rngFor().Split())
	if err != nil {
		return nil, err
	}
	binding, err := repair.NewIDBinding(pl, c.clientIDs)
	if err != nil {
		return nil, err
	}
	if err := binding.NameTopology(c.serverIDs, c.zoneIDs); err != nil {
		return nil, err
	}
	if cfg.tele != nil {
		pl.SetTelemetry(cfg.tele)
	}
	m, err := repair.NewMachine(binding, algorithm, int(cfg.overflow), nil)
	if err != nil {
		return nil, err
	}
	return &ClusterSession{m: m, binding: binding, tracer: telemetry.NewTracer(cfg.traceW)}, nil
}
