package bench

import (
	"fmt"
	"io"
	"io/fs"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"dvecap"
	"dvecap/internal/core"
	"dvecap/internal/director"
	"dvecap/internal/topology"
	"dvecap/internal/xrand"
	"dvecap/telemetry"
)

// The bandwidth model every director deployment in the repo uses
// (cmd/capdirector): 25 frames/s of 100-byte state messages.
const (
	frameRate    = 25
	messageBytes = 100
)

// worldSeed fixes the deployment (topology, server placement, capacity
// split) of every workload. Only the population and the operation stream
// derive from -seed: two seeds then differ by sampling noise, not by which
// network they happened to draw, which is what lets ten seeds agree within
// the metric bounds (README.md, "Design rules").
const worldSeed = 0x0d7ecab

// churnTargetUtil is the utilisation the churn deployment is sized for.
const churnTargetUtil = 0.88

// churnCfg sizes churn_mem and churn_durable.
type churnCfg struct {
	servers, zones   int
	clients, pinned  int
	writes           int // measured mutating requests
	solveEvery       int // POST /v1/reassign after every this many writes
	durable          bool
	snapEvery        int    // Config.SnapshotEvery (durable)
	tailEvents       int    // journaled events between the last auto-checkpoint and the kill
	dataRoot         string // parent of the data directories (durable)
	telemetry        *telemetry.Registry
	rec              *recorder // traced run: handler middleware + span-stamping transports
	preloadViaDirect bool      // probes preload through Director.Join, not HTTP
}

// world is the fixed deployment a workload (and the director probes of the
// traced run) runs on: the paper's 500-node hierarchy with its delay model,
// the servers' nodes and their capacities.
type world struct {
	dm          *topology.DelayMatrix
	serverNodes []int
	caps        []float64
	zones       int
}

// newWorld generates the topology from worldSeed, places the servers and
// splits totalCap between them (each server at least 40 % of the mean).
func newWorld(servers, zones int, totalCap float64) (*world, error) {
	rng := xrand.New(worldSeed)
	g, err := topology.Hier(rng.Split(), topology.DefaultHier())
	if err != nil {
		return nil, err
	}
	dm, err := topology.NewDelayMatrix(g, 500, 0.5)
	if err != nil {
		return nil, err
	}
	caps := rng.Simplex(servers, totalCap, 0.4*totalCap/float64(servers))
	return &world{dm: dm, serverNodes: rng.SampleWithout(g.N(), servers), caps: caps, zones: zones}, nil
}

// serverRTTs is the discounted server↔server RTT matrix.
func (w *world) serverRTTs() [][]float64 {
	ss := make([][]float64, len(w.serverNodes))
	for i, a := range w.serverNodes {
		ss[i] = make([]float64, len(w.serverNodes))
		for l, b := range w.serverNodes {
			ss[i][l] = w.dm.ServerRTT(a, b)
		}
	}
	return ss
}

// churnCapacity sizes the churn deployment so the preloaded population
// lands at a utilisation of churnTargetUtil. Expected target-side load of a uniform
// population: a zone of n clients asks n·rt(n) with rt(n) = 0.02·(1+n) Mbps,
// and n is ~Poisson(λ), so E[n(1+n)] = 2λ + λ². Forwarding adds 2·rt for
// every client whose contact is not its target, which the measured 1.25
// factor covers.
func churnCapacity(cfg churnCfg) float64 {
	lambda := float64(cfg.clients) / float64(cfg.zones)
	perClient := frameRate * messageBytes * 8 / 1e6
	load := float64(cfg.zones) * perClient * (2*lambda + lambda*lambda) * 1.25
	return load / churnTargetUtil
}

// row writes the oracle delay row of a client at node into dst.
func (w *world) row(node int32, dst []float64) {
	for i, sn := range w.serverNodes {
		dst[i] = w.dm.RTT(int(node), sn)
	}
}

// churnGen is the churn workloads' operation stream and model: 25 % join,
// 25 % leave, 40 % move, 10 % delay-row refresh. The join/leave split leans
// against the population's distance from its preload size, so utilisation
// (and with it pQoS, handoffs and heap) stays where the deployment was
// sized instead of random-walking away over 200k operations. The first
// cfg.pinned clients are never removed: the reader looks only them up, so
// no read can meet a 404.
type churnGen struct {
	rng    *xrand.RNG
	w      *world
	pinned int
	target int
	zone   []int32 // by client number; -1 once gone
	node   []int32
	live   []int32 // unpinned live clients
	rowBuf []float64
}

func newChurnGen(seed uint64, w *world, cfg churnCfg) *churnGen {
	g := &churnGen{
		rng:    xrand.New(seed),
		w:      w,
		pinned: cfg.pinned,
		target: cfg.clients,
		rowBuf: make([]float64, len(w.serverNodes)),
	}
	for c := 0; c < cfg.clients; c++ {
		g.zone = append(g.zone, int32(g.rng.IntN(w.zones)))
		g.node = append(g.node, int32(g.rng.IntN(w.dm.N())))
		if c >= cfg.pinned {
			g.live = append(g.live, int32(c))
		}
	}
	return g
}

func (g *churnGen) population() int           { return g.pinned + len(g.live) }
func (g *churnGen) clients() int32            { return int32(len(g.zone)) }
func (g *churnGen) zoneOf(client int32) int32 { return g.zone[client] }

// anyLive draws a live client, pinned ones included.
func (g *churnGen) anyLive() int32 {
	r := g.rng.IntN(g.pinned + len(g.live))
	if r < g.pinned {
		return int32(r)
	}
	return g.live[r-g.pinned]
}

func (g *churnGen) next(op *Op) {
	*op = Op{}
	r := g.rng.Float64()
	switch {
	case r < 0.5:
		// Mean reversion: at the preload size joins and leaves are equally
		// likely; 100 clients away the split is 100/0.
		pJoin := 0.5 + float64(g.target-g.population())/200
		if len(g.live) == 0 || g.rng.Float64() < pJoin {
			op.Kind = OpJoin
			op.Client = int32(len(g.zone))
			op.Zone = int32(g.rng.IntN(g.w.zones))
			op.Node = int32(g.rng.IntN(g.w.dm.N()))
			g.zone = append(g.zone, op.Zone)
			g.node = append(g.node, op.Node)
			g.live = append(g.live, op.Client)
			return
		}
		op.Kind = OpLeave
		i := g.rng.IntN(len(g.live))
		op.Client = g.live[i]
		g.live[i] = g.live[len(g.live)-1]
		g.live = g.live[:len(g.live)-1]
		g.zone[op.Client] = -1
	case r < 0.9:
		op.Kind = OpMove
		op.Client = g.anyLive()
		// A different zone every time, so each move is a real relocation.
		op.Zone = int32((int(g.zone[op.Client]) + 1 + g.rng.IntN(g.w.zones-1)) % g.w.zones)
		g.zone[op.Client] = op.Zone
	default:
		op.Kind = OpDelay
		op.Client = g.anyLive()
		g.w.row(g.node[op.Client], g.rowBuf)
		for i := range g.rowBuf {
			// A re-probe: the oracle row within ±10 %, rounded to the
			// microsecond so the JSON body has a stable size.
			g.rowBuf[i] = math.Round(g.rowBuf[i]*g.rng.Uniform(0.9, 1.1)*1000) / 1000
		}
		op.Row = g.rowBuf
	}
}

// churnSys is a director behind its HTTP handler on a loopback listener,
// with one connection for the writer and one for the reader.
type churnSys struct {
	cfg     churnCfg
	w       *world
	dcfg    director.Config
	d       *director.Director
	srv     *http.Server
	served  chan error
	wc, rc  *director.Client
	conns   []*http.Transport
	readRNG *xrand.RNG
	dataDir string
	solves  int // full solves asked for
	// Traced run only: the stream behind a direct pass, and the journal's
	// fsync and byte counts after its preload.
	tailGen                     *churnGen
	fsyncsAtStart, bytesAtStart float64
	// preKill is the state the recovered director must reproduce bit for bit.
	preKillClients []director.ClientInfo
	preKillStats   director.Stats
}

// client returns a director client that keeps exactly one connection. In
// the traced run its requests carry the open loadgen span (cur).
func (s *churnSys) client(base string, cur *atomic.Int32) *director.Client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	s.conns = append(s.conns, tr)
	hc := &http.Client{Transport: tr}
	if s.cfg.rec != nil {
		hc.Transport = spanTransport{base: tr, cur: cur}
	}
	return &director.Client{BaseURL: base, HTTPClient: hc}
}

// setupChurn builds the whole system from the seed: topology and delay
// model, director, HTTP server, population preloaded over HTTP, first full
// solve. It returns the system and the stream positioned after the preload.
func setupChurn(seed uint64, cfg churnCfg) (*churnSys, *churnGen, error) {
	w, err := newWorld(cfg.servers, cfg.zones, churnCapacity(cfg))
	if err != nil {
		return nil, nil, err
	}
	gen := newChurnGen(seed, w, cfg)
	s := &churnSys{cfg: cfg, w: w, readRNG: xrand.New(seed ^ 0x5eed)}
	s.dcfg = director.Config{
		ServerNodes:  w.serverNodes,
		ServerCaps:   w.caps,
		Zones:        cfg.zones,
		Delays:       w.dm,
		DelayBoundMs: 250,
		FrameRate:    frameRate,
		MessageBytes: messageBytes,
		Algorithm:    "GreZ-GreC",
		Seed:         seed,
		Telemetry:    cfg.telemetry,
	}
	if cfg.durable {
		s.dataDir, err = os.MkdirTemp(cfg.dataRoot, "data-")
		if err != nil {
			return nil, nil, err
		}
		s.dcfg.DataDir = s.dataDir
		s.dcfg.SnapshotEvery = cfg.snapEvery
	}
	s.d, err = director.New(s.dcfg)
	if err != nil {
		return nil, nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	h := director.Handler(s.d)
	var curWrite, curRead *atomic.Int32
	if cfg.rec != nil {
		h = cfg.rec.middleware(h)
		curWrite, curRead = &cfg.rec.curWrite, &cfg.rec.curRead
	}
	s.srv = &http.Server{Handler: h}
	s.served = make(chan error, 1)
	go func() { s.served <- s.srv.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	s.wc = s.client(base, curWrite)
	s.rc = s.client(base, curRead)
	for c := int32(0); c < int32(cfg.clients); c++ {
		if cfg.preloadViaDirect {
			_, err = s.d.Join(clientID(c), int(gen.node[c]), int(gen.zone[c]))
		} else {
			_, err = s.wc.Join(clientID(c), int(gen.node[c]), int(gen.zone[c]))
		}
		if err != nil {
			s.close()
			return nil, nil, fmt.Errorf("preload: %w", err)
		}
	}
	if err := s.solve(); err != nil {
		s.close()
		return nil, nil, err
	}
	return s, gen, nil
}

// close stops the HTTP server and waits for its goroutine. The director is
// abandoned, not closed: for the durable workload that is the kill.
func (s *churnSys) close() {
	_ = s.srv.Close() // the listener error, if any, arrives on s.served
	<-s.served
	for _, tr := range s.conns {
		tr.CloseIdleConnections()
	}
}

// remove deletes the system's data directory.
func (s *churnSys) remove() {
	if s.dataDir != "" {
		_ = os.RemoveAll(s.dataDir) // scratch space; a leftover is harmless
	}
}

// checkInfo verifies one response against the model.
func checkInfo(info director.ClientInfo, op *Op, zones, servers int) error {
	switch {
	case info.ID != clientID(op.Client):
		return fmt.Errorf("%s %s: response names %q", op.Kind, clientID(op.Client), info.ID)
	case op.Kind != OpDelay && info.Zone != int(op.Zone):
		return fmt.Errorf("%s %s: zone %d, model says %d", op.Kind, info.ID, info.Zone, op.Zone)
	case info.Zone < 0 || info.Zone >= zones:
		return fmt.Errorf("%s %s: zone %d out of range", op.Kind, info.ID, info.Zone)
	case info.Contact < 0 || info.Contact >= servers || info.Target < 0 || info.Target >= servers:
		return fmt.Errorf("%s %s: contact %d / target %d out of range", op.Kind, info.ID, info.Contact, info.Target)
	case info.QoS != (info.DelayMs <= 250):
		return fmt.Errorf("%s %s: qos %v at %.3f ms", op.Kind, info.ID, info.QoS, info.DelayMs)
	}
	return nil
}

func (s *churnSys) write(op *Op) error {
	id := clientID(op.Client)
	var info director.ClientInfo
	var err error
	switch op.Kind {
	case OpJoin:
		info, err = s.wc.Join(id, int(op.Node), int(op.Zone))
	case OpLeave:
		return s.wc.Leave(id)
	case OpMove:
		info, err = s.wc.Move(id, int(op.Zone))
	case OpDelay:
		info, err = s.wc.UpdateDelays(id, op.Row)
	default:
		return fmt.Errorf("churn: unexpected op %s", op.Kind)
	}
	if err != nil {
		return err
	}
	return checkInfo(info, op, s.cfg.zones, s.cfg.servers)
}

// read issues the reader's next request: 90 % lookups of a pinned client,
// 10 % stats.
func (s *churnSys) read() error {
	if s.readRNG.IntN(10) == 0 {
		st, err := s.rc.Stats()
		if err == nil && (st.Clients < s.cfg.pinned || st.PQoS < 0 || st.PQoS > 1) {
			err = fmt.Errorf("stats: %d clients, pQoS %v", st.Clients, st.PQoS)
		}
		return err
	}
	c := int32(s.readRNG.IntN(s.cfg.pinned))
	info, err := s.rc.Lookup(clientID(c))
	if err != nil {
		return err
	}
	// The writer may be moving this client right now, so the zone is only
	// range-checked here; the writer checks its own moves exactly.
	return checkInfo(info, &Op{Kind: OpDelay, Client: c}, s.cfg.zones, s.cfg.servers)
}

func (s *churnSys) solve() error {
	s.solves++
	_, err := s.wc.Reassign()
	return err
}

func (s *churnSys) repairCounts() repairCounts {
	st := s.d.Stats()
	return repairCounts{full: st.FullSolves, guard: st.FullSolves - s.solves, handoffs: st.ZoneHandoffs, switches: st.ContactSwitches}
}

func (s *churnSys) note() string {
	st := s.d.Stats()
	return fmt.Sprintf("utilization %.3f, %d full solves, %d contact switches, %d repair events",
		st.Utilization, st.FullSolves, st.ContactSwitches, st.RepairEvents)
}

// verify compares the director's end-of-phase state with the model and its
// maintained pQoS with a from-scratch core evaluation; it returns the pQoS.
func (s *churnSys) verify(model opSource) (float64, error) {
	return verifyDirector(s.d, model)
}

func verifyDirector(d *director.Director, model opSource) (float64, error) {
	snap := d.Snapshot()
	if len(snap) != model.population() {
		return 0, fmt.Errorf("verify: director holds %d clients, model %d", len(snap), model.population())
	}
	seen := make(map[string]bool, len(snap))
	for c := int32(0); c < model.clients(); c++ {
		if model.zoneOf(c) >= 0 {
			seen[clientID(c)] = false
		}
	}
	contacts := make([]int, len(snap))
	for j, info := range snap {
		var c int32
		if _, err := fmt.Sscanf(info.ID, "u%d", &c); err != nil || c >= model.clients() {
			return 0, fmt.Errorf("verify: unexpected client %q", info.ID)
		}
		if done, live := seen[info.ID]; !live || done {
			return 0, fmt.Errorf("verify: client %q is not live in the model (or listed twice)", info.ID)
		}
		seen[info.ID] = true
		if int32(info.Zone) != model.zoneOf(c) {
			return 0, fmt.Errorf("verify: client %q in zone %d, model says %d", info.ID, info.Zone, model.zoneOf(c))
		}
		contacts[j] = info.Contact
	}
	servers := d.Servers()
	for _, info := range snap {
		if servers[info.Contact].Draining || servers[info.Target].Draining {
			return 0, fmt.Errorf("verify: client %q sits on a drained server", info.ID)
		}
	}
	zones := d.Zones()
	hosts := make([]int, len(zones))
	for _, z := range zones {
		hosts[z.Zone] = z.Server
	}
	st := d.Stats()
	m := core.Evaluate(d.ProblemSnapshot(), &core.Assignment{ZoneServer: hosts, ClientContact: contacts})
	if math.Abs(m.PQoS-st.PQoS) > 1e-9 || m.WithQoS != st.WithQoS {
		return 0, fmt.Errorf("verify: maintained pQoS %.12f (%d) vs from-scratch %.12f (%d)", st.PQoS, st.WithQoS, m.PQoS, m.WithQoS)
	}
	if st.LastSolveError != "" {
		return 0, fmt.Errorf("verify: solve error %q", st.LastSolveError)
	}
	return st.PQoS, nil
}

// kill records the state a recovery must reproduce and abandons the
// director without Close — what a process loss leaves behind.
func (s *churnSys) kill() {
	s.preKillClients = byID(s.d.Snapshot())
	s.preKillStats = s.d.Stats()
	s.close()
}

// byID sorts a client listing by ID. Snapshot() lists clients in
// registration order on a director that never restarted and in the
// planner's dense order after a recovery from a checkpoint, so the
// bit-for-bit comparison is per client, not per position.
func byID(cs []director.ClientInfo) []director.ClientInfo {
	sort.Slice(cs, func(a, b int) bool { return cs[a].ID < cs[b].ID })
	return cs
}

// recoverOnce times "process lost" → "serving the same population".
// Durable: director.New on a fresh copy of the abandoned data directory
// (snapshot load + journal-tail replay), compared bit for bit with the
// pre-kill state. In-memory: a new director re-registered from the load
// generator's model through Director.Join, the fastest public verb.
func (s *churnSys) recoverOnce(model opSource) (time.Duration, error) {
	if !s.cfg.durable {
		t0 := time.Now()
		d, err := director.New(s.dcfg)
		if err != nil {
			return 0, err
		}
		g := model.(*churnGen)
		for c := int32(0); c < g.clients(); c++ {
			if g.zone[c] < 0 {
				continue
			}
			if _, err := d.Join(clientID(c), int(g.node[c]), int(g.zone[c])); err != nil {
				return 0, err
			}
		}
		el := time.Since(t0)
		if got := d.Stats().Clients; got != model.population() {
			return 0, fmt.Errorf("recover: %d clients re-registered, model %d", got, model.population())
		}
		return el, nil
	}
	dir, err := os.MkdirTemp(s.cfg.dataRoot, "recover-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	if err := copyDir(s.dataDir, dir); err != nil {
		return 0, err
	}
	cfg := s.dcfg
	cfg.DataDir = dir
	cfg.Telemetry = nil
	t0 := time.Now()
	d, err := director.New(cfg)
	if err != nil {
		return 0, err
	}
	el := time.Since(t0)
	defer d.Close()
	got := byID(d.Snapshot())
	if len(got) != len(s.preKillClients) {
		return 0, fmt.Errorf("recover: %d clients recovered, %d before the kill", len(got), len(s.preKillClients))
	}
	for j := range got {
		if got[j] != s.preKillClients[j] {
			return 0, fmt.Errorf("recover: client differs from the pre-kill state:\n got %+v\nwant %+v", got[j], s.preKillClients[j])
		}
	}
	if got := d.Stats(); got != s.preKillStats {
		return 0, fmt.Errorf("recover: stats differ from the pre-kill state:\n got %+v\nwant %+v", got, s.preKillStats)
	}
	return el, nil
}

// copyDir copies the regular files of src (a flat WAL directory) into dst.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(filepath.Join(dst, e.Name()))
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// scaleInt scales a full-size count, keeping it at least min.
func scaleInt(full int, f float64, min int) int {
	n := int(math.Round(float64(full) * f))
	if n < min {
		n = min
	}
	return n
}

// Call rates calibrated on the reference box (2 shared cores): requests
// the closed-loop writer completes per second of measured phase.
const (
	churnMemWritesPerSec     = 9000
	churnDurableWritesPerSec = 1600
)

// churnConfig is the full-size configuration of the two HTTP workloads:
// identical deployment, population and operation stream; the durable one
// adds the data directory and runs a shorter prefix of the stream.
func churnConfig(durable bool, o Options) churnCfg {
	cfg := churnCfg{
		servers:  40,
		zones:    scaleInt(400, o.Size, 8),
		clients:  scaleInt(10000, o.Size, 100),
		pinned:   scaleInt(1000, o.Size, 10),
		durable:  durable,
		dataRoot: o.WorkDir,
	}
	if !durable {
		cfg.writes = int(o.Seconds * churnMemWritesPerSec)
		cfg.solveEvery = scaleInt(5000, o.Seconds/20, 50)
		return cfg
	}
	cfg.snapEvery = cfg.clients
	cfg.tailEvents = cfg.snapEvery / 2
	cfg.solveEvery = scaleInt(1000, o.Seconds/20, 20)
	// Cut the stream so the kill lands exactly tailEvents journaled events
	// after the last auto-checkpoint: the journal holds the preload, the
	// first full solve, every write and every reassign.
	cfg.writes = int(o.Seconds * churnDurableWritesPerSec)
	for (cfg.clients+1+cfg.writes+cfg.writes/cfg.solveEvery)%cfg.snapEvery != cfg.tailEvents {
		cfg.writes++
	}
	return cfg
}

func buildChurn(durable bool) func(seed uint64, o Options) (system, opSource, phaseCfg, error) {
	return func(seed uint64, o Options) (system, opSource, phaseCfg, error) {
		cfg := churnConfig(durable, o)
		cfg.telemetry, cfg.rec = o.telemetry, o.rec
		s, gen, err := setupChurn(seed, cfg)
		if err != nil {
			return nil, nil, phaseCfg{}, err
		}
		return s, gen, phaseCfg{calls: cfg.writes, solveEvery: cfg.solveEvery}, nil
	}
}

// churnLayers is the churn workloads' input to the layer probes: the
// preloaded director's own problem snapshot, the same population as a
// dvecap.Cluster, and the churn stream as single events with their rows.
func churnLayers(seed uint64, o Options) (*layerInput, error) {
	cfg := churnConfig(false, o)
	cfg.preloadViaDirect = true
	sys, _, err := setupChurn(seed, cfg)
	if err != nil {
		return nil, err
	}
	sys.close()
	// The probes run in session semantics: one fixed bandwidth per
	// client — the director's model at the mean zone population — not a
	// population-dependent one.
	rt := frameRate * messageBytes * 8 / 1e6 * (1 + float64(cfg.clients)/float64(cfg.zones))
	in := &layerInput{
		problem:   sys.d.ProblemSnapshot(),
		zoneNames: names("z", cfg.zones),
		rt:        func(int32) float64 { return rt },
	}
	c, _, _, err := deployment(sys.w.caps, in.problem.SS, cfg.zones)
	if err != nil {
		return nil, err
	}
	for j := range in.problem.ClientZones {
		id := clientID(int32(j))
		in.ids = append(in.ids, id)
		in.problem.ClientRT[j] = rt
		spec := dvecap.ClientSpec{Zone: in.zoneNames[in.problem.ClientZones[j]], BandwidthMbps: rt, RTTRow: in.problem.CS[j]}
		if err := c.AddClient(id, spec); err != nil {
			return nil, err
		}
	}
	in.cluster = c
	in.openOpts = []dvecap.Option{dvecap.WithSeed(seed), dvecap.WithWorkers(1)}
	in.feed = func() func(op *Op) {
		gen := newChurnGen(seed, sys.w, cfg)
		row := make([]float64, cfg.servers)
		return func(op *Op) {
			gen.next(op)
			if op.Kind == OpJoin {
				sys.w.row(op.Node, row)
				op.Row = row
			}
		}
	}
	return in, nil
}
