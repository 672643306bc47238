package bench

import (
	"fmt"
	"math"
	"strconv"
	"time"

	"dvecap"
	"dvecap/internal/core"
	"dvecap/internal/vworld"
	"dvecap/internal/xrand"
)

// mix64 is splitmix64's finaliser; unit hashes a key into [0,1). Per-client
// attributes (node, bandwidth, the k-th re-probe of a delay row) are hashes
// of the client number, so the model can recompute any client's inputs
// without storing them.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func unit(a, b, c uint64) float64 {
	return float64(mix64(mix64(mix64(a)^b)^c)>>11) / (1 << 53)
}

// Pair is one zone pair crossed during a tick, with the number of crossings.
type Pair struct {
	A, B, N int32
}

// hotspotCfg sizes hotspot_moves.
type hotspotCfg struct {
	servers, cols, rows int
	avatars             int
	joinsPerTick        int     // visitors admitted per tick into the hot zones
	visitorPool         int     // visitors present at steady state
	delaysPerTick       int     // delay rows refreshed per tick
	dt                  float64 // seconds of avatar movement per tick
	ticks               int
	drainEvery          int // ticks between DrainServer→UncordonServer cycles
	solveEvery          int // calls between Resolve()s
	totalCap            float64
	hotZones            []int
}

const (
	hotspotTicksPerSec = 165 // calibrated on the reference box
	crossingMbps       = 0.05
	hotspotLambda      = 2
	hotspotDriftGuard  = 0.03
	hotspotSpreadGuard = 0.25
)

func hotspotConfig(o Options) hotspotCfg {
	side := scaleInt(20, math.Sqrt(o.Size), 4)
	cfg := hotspotCfg{
		servers:       40,
		cols:          side,
		rows:          side,
		avatars:       scaleInt(20000, o.Size, 200),
		joinsPerTick:  4,
		delaysPerTick: 2,
		dt:            0.2,
		ticks:         int(o.Seconds * hotspotTicksPerSec),
		drainEvery:    50,
	}
	cfg.visitorPool = cfg.avatars / 40
	cfg.solveEvery = scaleInt(100, o.Seconds/20, 10)
	// Mean bandwidth 0.1 Mbps per client, provisioned at 0.65 utilisation
	// before forwarding (2×RT for every client whose contact is not its target).
	cfg.totalCap = 0.1 * float64(cfg.avatars+cfg.visitorPool) / 0.65
	// Sixteen hotspots on a 4×4 lattice of the grid: towns and quest hubs.
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			z := (side*(2*r+1)/8)*side + side*(2*c+1)/8
			cfg.hotZones = append(cfg.hotZones, z)
		}
	}
	return cfg
}

// calls is the number of surface calls the measured phase makes: one per
// tick plus the drain and the uncordon of every cycle.
func (c hotspotCfg) calls() int { return c.ticks + 2*(c.ticks/c.drainEvery) }

// hotspotGen turns vworld's mobility model (hotspot attraction, correlated
// groups) into the tick stream, and is the model of where every client is.
type hotspotGen struct {
	cfg      hotspotCfg
	w        *world
	vw       *vworld.World
	rng      *xrand.RNG
	zone     []int32 // by client number; -1 once gone
	version  []int32 // delay-row refreshes applied, by client number
	visitors []int32 // FIFO of live visitors
	tick     int
	emitted  int // topology verbs emitted for the current tick: 0 or 1
	pairIdx  map[[2]int32]int
	op       Op // buffers reused between ticks
	pairs    []Pair
}

func newHotspotGen(seed uint64, w *world, cfg hotspotCfg) (*hotspotGen, error) {
	rng := xrand.New(seed)
	m, err := vworld.NewMap(100*float64(cfg.cols), 100*float64(cfg.rows), cfg.cols, cfg.rows)
	if err != nil {
		return nil, err
	}
	vw, err := vworld.NewWorld(rng.Split(), m, vworld.Config{
		Avatars:      cfg.avatars,
		MinSpeed:     5,
		MaxSpeed:     15,
		PauseMeanSec: 2,
		HotZones:     cfg.hotZones,
		HotBias:      0.2,
		Groups:       cfg.avatars / 10,
		GroupBias:    0.85,
	})
	if err != nil {
		return nil, err
	}
	g := &hotspotGen{cfg: cfg, w: w, vw: vw, rng: rng.Split(), pairIdx: map[[2]int32]int{}}
	for _, z := range vw.ZoneVector() {
		g.zone = append(g.zone, int32(z))
	}
	g.version = make([]int32, cfg.avatars)
	return g, nil
}

func (g *hotspotGen) population() int           { return g.cfg.avatars + len(g.visitors) }
func (g *hotspotGen) clients() int32            { return int32(len(g.zone)) }
func (g *hotspotGen) zoneOf(client int32) int32 { return g.zone[client] }

// nodeOf is the topology node a client measures its delays from.
func (g *hotspotGen) nodeOf(c int32) int32 { return int32(unit(1, uint64(c), 0) * float64(g.w.dm.N())) }

// bandwidth is the client's requirement in Mbps: 0.05–0.15.
func bandwidth(c int32) float64 { return 0.05 + 0.1*unit(2, uint64(c), 0) }

// rowOf writes the client's delay row after `version` re-probes: the oracle
// row of its node, each entry within ±10 % per re-probe generation.
func (g *hotspotGen) rowOf(c, version int32, dst []float64) {
	g.w.row(g.nodeOf(c), dst)
	if version == 0 {
		return
	}
	for i := range dst {
		f := 0.9 + 0.2*unit(3+uint64(i), uint64(c), uint64(version))
		dst[i] = math.Round(dst[i]*f*1000) / 1000
	}
}

func (g *hotspotGen) next(op *Op) {
	// Topology verbs ride between ticks: a drain at the start of every
	// cycle, the matching uncordon half a cycle later.
	if g.emitted == 0 {
		server := int32((g.tick / g.cfg.drainEvery) % g.cfg.servers)
		switch g.tick % g.cfg.drainEvery {
		case 0:
			g.emitted = 1
			*op = Op{Kind: OpDrain, Server: server}
			return
		case g.cfg.drainEvery / 2:
			g.emitted = 1
			*op = Op{Kind: OpUncordon, Server: server}
			return
		}
	}
	g.emitted = 0
	g.tick++

	t := &g.op
	t.Kind = OpTick
	t.Moves, t.Joins, t.Leaves, t.Delays = t.Moves[:0], t.Joins[:0], t.Leaves[:0], t.Delays[:0]
	g.pairs = g.pairs[:0]
	clear(g.pairIdx)
	for _, c := range g.vw.StepCrossings(g.cfg.dt) {
		t.Moves = append(t.Moves, Member{Client: int32(c.Avatar), Zone: int32(c.To)})
		g.zone[c.Avatar] = int32(c.To)
		a, b := int32(c.From), int32(c.To)
		if a > b {
			a, b = b, a
		}
		if i, ok := g.pairIdx[[2]int32{a, b}]; ok {
			g.pairs[i].N++
		} else {
			g.pairIdx[[2]int32{a, b}] = len(g.pairs)
			g.pairs = append(g.pairs, Pair{A: a, B: b, N: 1})
		}
	}
	for i := 0; i < g.cfg.joinsPerTick; i++ {
		c := int32(len(g.zone))
		z := int32(g.cfg.hotZones[g.rng.IntN(len(g.cfg.hotZones))])
		g.zone = append(g.zone, z)
		g.version = append(g.version, 0)
		g.visitors = append(g.visitors, c)
		t.Joins = append(t.Joins, Member{Client: c, Zone: z})
	}
	for len(g.visitors) > g.cfg.visitorPool {
		c := g.visitors[0]
		g.visitors = g.visitors[1:]
		g.zone[c] = -1
		t.Leaves = append(t.Leaves, c)
	}
	for i := 0; i < g.cfg.delaysPerTick; i++ {
		c := int32(g.rng.IntN(g.cfg.avatars))
		g.version[c]++
		t.Delays = append(t.Delays, c)
	}
	*op = *t
	op.Pairs = g.pairs
}

// hotspotSys is the public library path: a dvecap.Cluster opened as a
// ClusterSession with the traffic term and both guards armed.
type hotspotSys struct {
	cfg       hotspotCfg
	w         *world
	gen       *hotspotGen
	seed      uint64
	sess      *dvecap.ClusterSession
	zoneNames []string
	srvNames  []string
	ss        [][]float64 // server↔server RTTs
	rowBuf    []float64
	// scratch reused between ticks
	ids, zs []string
	joins   []dvecap.ClientJoin
	live    int
	solves  int // full solves asked for: Open's initial one and every Resolve
	opts    Options
}

func names(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = prefix + strconv.Itoa(i)
	}
	return out
}

// deployment starts a cluster with servers "s0"… of the given capacities
// and inter-server RTTs, zones "z0"…, D = 250 ms and no clients, and
// returns it with the server and zone names.
func deployment(caps []float64, ss [][]float64, zones int) (c *dvecap.Cluster, srvNames, zoneNames []string, err error) {
	c = dvecap.NewCluster(250)
	srvNames, zoneNames = names("s", len(caps)), names("z", zones)
	for i, id := range srvNames {
		if err := c.AddServer(id, dvecap.ServerSpec{CapacityMbps: caps[i]}); err != nil {
			return nil, nil, nil, err
		}
	}
	if err := c.SetServerRTTs(ss); err != nil {
		return nil, nil, nil, err
	}
	for _, id := range zoneNames {
		if err := c.AddZone(id); err != nil {
			return nil, nil, nil, err
		}
	}
	return c, srvNames, zoneNames, nil
}

// emptyCluster registers the deployment's servers and zones.
func (s *hotspotSys) emptyCluster() (*dvecap.Cluster, error) {
	c, _, _, err := deployment(s.w.caps, s.ss, s.w.zones)
	return c, err
}

// openOpts are the session's options: traffic term and both guards armed.
func (s *hotspotSys) openOpts() []dvecap.Option {
	opts := []dvecap.Option{dvecap.WithSeed(s.seed), dvecap.WithWorkers(1),
		dvecap.WithDriftGuard(hotspotDriftGuard), dvecap.WithImbalanceGuard(hotspotSpreadGuard),
		dvecap.WithTrafficWeight(hotspotLambda)}
	if s.opts.telemetry != nil {
		opts = append(opts, dvecap.WithTelemetry(s.opts.telemetry))
	}
	return opts
}

func (s *hotspotSys) open(c *dvecap.Cluster) (*dvecap.ClusterSession, error) {
	return c.Open("GreZ-GreC", s.openOpts()...)
}

// spec is the join spec of a client at its model zone and delay version.
func (s *hotspotSys) spec(c int32) dvecap.ClientSpec {
	row := make([]float64, len(s.srvNames))
	s.gen.rowOf(c, s.gen.version[c], row)
	return dvecap.ClientSpec{Zone: s.zoneNames[s.gen.zone[c]], BandwidthMbps: bandwidth(c), RTTRow: row}
}

// newHotspot builds the deployment, the stream and the populated cluster.
func newHotspot(seed uint64, o Options) (*hotspotSys, *dvecap.Cluster, error) {
	cfg := hotspotConfig(o)
	w, err := newWorld(cfg.servers, cfg.cols*cfg.rows, cfg.totalCap)
	if err != nil {
		return nil, nil, err
	}
	gen, err := newHotspotGen(seed, w, cfg)
	if err != nil {
		return nil, nil, err
	}
	s := &hotspotSys{
		cfg: cfg, w: w, gen: gen, seed: seed, opts: o,
		zoneNames: names("z", w.zones),
		srvNames:  names("s", cfg.servers),
		ss:        w.serverRTTs(),
		rowBuf:    make([]float64, cfg.servers),
		live:      cfg.avatars,
		solves:    1,
	}
	c, err := s.emptyCluster()
	if err != nil {
		return nil, nil, err
	}
	for a := int32(0); a < int32(cfg.avatars); a++ {
		if err := c.AddClient(clientID(a), s.spec(a)); err != nil {
			return nil, nil, err
		}
	}
	return s, c, nil
}

func buildHotspot(seed uint64, o Options) (system, opSource, phaseCfg, error) {
	s, c, err := newHotspot(seed, o)
	if err != nil {
		return nil, nil, phaseCfg{}, err
	}
	if s.sess, err = s.open(c); err != nil {
		return nil, nil, phaseCfg{}, err
	}
	// One read per call: per tick, that is, with the drain and uncordon
	// verbs making the call count a little larger than the tick count.
	return s, s.gen, phaseCfg{calls: s.cfg.calls(), solveEvery: s.cfg.solveEvery, readEvery: 1}, nil
}

// hotspotLayers is hotspot_moves' input to the layer probes: the initial
// population as a dense core problem and as the cluster itself, and the
// tick stream flattened into single events.
func hotspotLayers(seed uint64, o Options) (*layerInput, error) {
	s, c, err := newHotspot(seed, o)
	if err != nil {
		return nil, err
	}
	k := s.cfg.avatars
	in := &layerInput{
		problem: &core.Problem{
			ServerCaps: s.w.caps, NumZones: s.w.zones, D: 250, SS: s.ss,
			ClientZones: make([]int, k), ClientRT: make([]float64, k), CS: make([][]float64, k),
		},
		cluster:   c,
		openOpts:  s.openOpts(),
		zoneNames: s.zoneNames,
		rt:        bandwidth,
	}
	for j := 0; j < k; j++ {
		in.ids = append(in.ids, clientID(int32(j)))
		in.problem.ClientZones[j] = int(s.gen.zone[j])
		in.problem.ClientRT[j] = bandwidth(int32(j))
		in.problem.CS[j] = make([]float64, s.cfg.servers)
		s.gen.rowOf(int32(j), 0, in.problem.CS[j])
	}
	// The probes replay a few thousand events, so the feed's visitors start
	// leaving after two ticks rather than after the pool has filled.
	feedCfg := s.cfg
	feedCfg.visitorPool = 2 * feedCfg.joinsPerTick
	in.feed = func() func(op *Op) {
		gen, err := newHotspotGen(seed, s.w, feedCfg)
		if err != nil {
			panic(err) // the same configuration built a generator a moment ago
		}
		var tick Op
		var queue []Op
		row := make([]float64, s.cfg.servers)
		return func(op *Op) {
			for len(queue) == 0 {
				gen.next(&tick)
				for _, m := range tick.Moves {
					queue = append(queue, Op{Kind: OpMove, Client: m.Client, Zone: m.Zone})
				}
				for _, m := range tick.Joins {
					queue = append(queue, Op{Kind: OpJoin, Client: m.Client, Zone: m.Zone})
				}
				for _, c := range tick.Leaves {
					queue = append(queue, Op{Kind: OpLeave, Client: c})
				}
				for _, c := range tick.Delays {
					queue = append(queue, Op{Kind: OpDelay, Client: c})
				}
			}
			*op, queue = queue[0], queue[1:]
			if op.Kind == OpJoin || op.Kind == OpDelay {
				gen.rowOf(op.Client, gen.version[op.Client], row)
				op.Row = row
			}
		}
	}
	return in, nil
}

func (s *hotspotSys) write(op *Op) error {
	switch op.Kind {
	case OpDrain:
		if err := s.sess.DrainServer(s.srvNames[op.Server]); err != nil {
			return err
		}
		st := s.sess.Servers()[op.Server]
		if !st.Draining || st.Zones != 0 || math.Abs(st.LoadMbps) > 1e-6 {
			return fmt.Errorf("drain %s: %d zones and %.3f Mbps left on it", st.ID, st.Zones, st.LoadMbps)
		}
		return nil
	case OpUncordon:
		return s.sess.UncordonServer(s.srvNames[op.Server])
	case OpTick:
	default:
		return fmt.Errorf("hotspot: unexpected op %s", op.Kind)
	}
	if len(op.Moves) > 0 {
		s.ids, s.zs = s.ids[:0], s.zs[:0]
		for _, m := range op.Moves {
			s.ids = append(s.ids, clientID(m.Client))
			s.zs = append(s.zs, s.zoneNames[m.Zone])
		}
		if err := s.sess.MoveBatch(s.ids, s.zs); err != nil {
			return err
		}
		// Spot-check the batch through the session's own lookup.
		last := len(op.Moves) - 1
		cl, err := s.sess.Client(s.ids[last])
		if err != nil {
			return err
		}
		if cl.Zone != s.zs[last] {
			return fmt.Errorf("move %s: in zone %s, model says %s", cl.ID, cl.Zone, s.zs[last])
		}
	}
	for _, p := range op.Pairs {
		if err := s.sess.AddAdjacencyWeight(s.zoneNames[p.A], s.zoneNames[p.B], float64(p.N)*crossingMbps); err != nil {
			return err
		}
	}
	if len(op.Joins) > 0 {
		s.joins = s.joins[:0]
		for _, m := range op.Joins {
			s.joins = append(s.joins, dvecap.ClientJoin{ID: clientID(m.Client), Spec: s.spec(m.Client)})
		}
		if err := s.sess.JoinBatch(s.joins); err != nil {
			return err
		}
		s.live += len(op.Joins)
	}
	if len(op.Leaves) > 0 {
		s.ids = s.ids[:0]
		for _, c := range op.Leaves {
			s.ids = append(s.ids, clientID(c))
		}
		if err := s.sess.LeaveBatch(s.ids); err != nil {
			return err
		}
		s.live -= len(op.Leaves)
	}
	for _, c := range op.Delays {
		s.gen.rowOf(c, s.gen.version[c], s.rowBuf)
		if err := s.sess.UpdateDelayRow(clientID(c), s.rowBuf); err != nil {
			return err
		}
	}
	return nil
}

func (s *hotspotSys) read() error {
	res, err := s.sess.Result()
	if err != nil {
		return err
	}
	if res.Clients != s.live || res.PQoS < 0 || res.PQoS > 1 {
		return fmt.Errorf("result: %d clients (model %d), pQoS %v", res.Clients, s.live, res.PQoS)
	}
	return nil
}

func (s *hotspotSys) solve() error {
	s.solves++
	return s.sess.Resolve()
}

func (s *hotspotSys) repairCounts() repairCounts { return sessionCounts(s.sess, s.solves) }
func (s *hotspotSys) kill()                      {}
func (s *hotspotSys) remove()                    {}

// sessionCounts reads a session's repair counters; asked is the number of
// full solves the caller requested (Open's initial one included).
func sessionCounts(sess *dvecap.ClusterSession, asked int) repairCounts {
	st := sess.Stats()
	return repairCounts{full: st.FullSolves, guard: st.FullSolves - asked, handoffs: st.ZoneHandoffs, switches: st.ContactSwitches}
}

func (s *hotspotSys) note() string {
	st := s.sess.Stats()
	return fmt.Sprintf("utilization %.3f, %d full solves (%d by the imbalance guard), %d contact switches, %d drains, %d adjacency edits, traffic cut %.1f Mbps",
		s.sess.Utilization(), st.FullSolves, st.ImbalanceSolves, st.ContactSwitches, st.ServerDrains, st.AdjacencyEdits, s.sess.TrafficCut())
}

// verify rebuilds the problem from the model alone (zones, bandwidths,
// delay rows in the session's client order) and evaluates the session's
// assignment on it from scratch.
func (s *hotspotSys) verify(model opSource) (float64, error) {
	truth := func(ids []string) (*core.Problem, error) {
		p := &core.Problem{
			ServerCaps: s.w.caps, NumZones: s.w.zones, D: 250, SS: s.ss,
			ClientZones: make([]int, len(ids)), ClientRT: make([]float64, len(ids)), CS: make([][]float64, len(ids)),
		}
		for j, id := range ids {
			c, err := clientNumber(id, model)
			if err != nil {
				return nil, err
			}
			p.ClientZones[j] = int(model.zoneOf(c))
			p.ClientRT[j] = bandwidth(c)
			p.CS[j] = make([]float64, len(s.srvNames))
			s.gen.rowOf(c, s.gen.version[c], p.CS[j])
		}
		return p, nil
	}
	return verifySession(s.sess, model, s.zoneNames, truth)
}

// clientNumber parses a wire ID back into the model's client number.
func clientNumber(id string, model opSource) (int32, error) {
	n, err := strconv.Atoi(id[1:])
	if err != nil || id[0] != 'u' || int32(n) >= model.clients() {
		return 0, fmt.Errorf("verify: unexpected client %q", id)
	}
	return int32(n), nil
}

// verifySession checks a ClusterSession's end-of-phase state: population
// and zones equal the model, nothing sits on a drained server, and the
// maintained pQoS equals a from-scratch core evaluation of the session's
// assignment on the problem `truth` rebuilds from the model.
func verifySession(sess *dvecap.ClusterSession, model opSource, zoneNames []string, truth func(ids []string) (*core.Problem, error)) (float64, error) {
	res, err := sess.Result()
	if err != nil {
		return 0, err
	}
	if len(res.ClientIDs) != model.population() {
		return 0, fmt.Errorf("verify: session holds %d clients, model %d", len(res.ClientIDs), model.population())
	}
	seen := make(map[string]bool, len(res.ClientIDs))
	for _, id := range res.ClientIDs {
		c, err := clientNumber(id, model)
		if err != nil {
			return 0, err
		}
		if seen[id] || model.zoneOf(c) < 0 {
			return 0, fmt.Errorf("verify: client %q is not live in the model (or listed twice)", id)
		}
		seen[id] = true
		cl, err := sess.Client(id)
		if err != nil {
			return 0, err
		}
		if cl.Zone != zoneNames[model.zoneOf(c)] {
			return 0, fmt.Errorf("verify: client %q in zone %s, model says %s", id, cl.Zone, zoneNames[model.zoneOf(c)])
		}
	}
	servers := sess.Servers()
	for z, host := range res.ZoneServer {
		if servers[host].Draining {
			return 0, fmt.Errorf("verify: zone %d hosted on drained server %s", z, servers[host].ID)
		}
	}
	for j, contact := range res.ClientContact {
		if servers[contact].Draining {
			return 0, fmt.Errorf("verify: client %q forwards through drained server %s", res.ClientIDs[j], servers[contact].ID)
		}
	}
	p, err := truth(res.ClientIDs)
	if err != nil {
		return 0, err
	}
	m := core.Evaluate(p, &core.Assignment{ZoneServer: res.ZoneServer, ClientContact: res.ClientContact})
	if got := sess.PQoS(); math.Abs(m.PQoS-got) > 1e-9 {
		return 0, fmt.Errorf("verify: maintained pQoS %.12f vs from-scratch %.12f (%d of %d)", got, m.PQoS, m.WithQoS, len(res.ClientIDs))
	}
	if st := sess.Stats(); st.LastSolveError != "" {
		return 0, fmt.Errorf("verify: solve error %q", st.LastSolveError)
	}
	return sess.PQoS(), nil
}

// recoverOnce: Open on the bare deployment plus one JoinBatch of the live
// population, from the load generator's model.
func (s *hotspotSys) recoverOnce(model opSource) (time.Duration, error) {
	joins := make([]dvecap.ClientJoin, 0, model.population())
	for c := int32(0); c < model.clients(); c++ {
		if model.zoneOf(c) >= 0 {
			joins = append(joins, dvecap.ClientJoin{ID: clientID(c), Spec: s.spec(c)})
		}
	}
	t0 := time.Now()
	c, err := s.emptyCluster()
	if err != nil {
		return 0, err
	}
	sess, err := s.open(c)
	if err != nil {
		return 0, err
	}
	if err := sess.JoinBatch(joins); err != nil {
		return 0, err
	}
	el := time.Since(t0)
	if sess.NumClients() != model.population() {
		return 0, fmt.Errorf("recover: %d clients re-registered, model %d", sess.NumClients(), model.population())
	}
	return el, nil
}
