package bench

import (
	"fmt"
	"math"
	"time"

	"dvecap"
	"dvecap/internal/core"
	"dvecap/internal/xrand"
)

// libraryCfg sizes library_100k.
type libraryCfg struct {
	servers, zones, clients int
	events                  int // single session events in the measured phase
	solves                  int // Cluster.Solve calls interleaved through it
	readEvery               int // Result() after every this many events
}

const libraryEventsPerSec = 2750 // calibrated on the reference box

func libraryConfig(o Options) libraryCfg {
	cfg := libraryCfg{
		servers: 50,
		zones:   scaleInt(500, o.Size, 10),
		clients: scaleInt(100000, o.Size, 1000),
		events:  int(o.Seconds * libraryEventsPerSec),
		solves:  31,
	}
	cfg.readEvery = scaleInt(500, o.Seconds/20, 10)
	return cfg
}

// libraryWorld is library_100k's fixed deployment: plane-embedded servers
// with a discounted inter-server mesh, as scale_test.go's
// buildCoordCluster lays them out, and the coordinates the provider fits
// for them — client coordinates are placed relative to those, so predicted
// delays straddle the 250 ms bound instead of sitting all inside it.
type libraryWorld struct {
	ss   [][]float64
	caps []float64
	ref  *core.CoordProvider // server embedding; also the scratch provider for truth rows
	dim  int
	buf  []float64 // coordinate scratch
}

func newLibraryWorld(cfg libraryCfg) *libraryWorld {
	rng := xrand.New(worldSeed)
	m := cfg.servers
	sx, sy := make([]float64, m), make([]float64, m)
	for i := range sx {
		sx[i], sy[i] = rng.Uniform(0, 400), rng.Uniform(0, 400)
	}
	w := &libraryWorld{ss: make([][]float64, m), caps: make([]float64, m)}
	for i := range w.ss {
		w.ss[i] = make([]float64, m)
		for l := range w.ss[i] {
			w.ss[i][l] = 0.5 * math.Hypot(sx[i]-sx[l], sy[i]-sy[l])
		}
		// ~1.3× the expected aggregate requirement (mean 0.1 Mbps a client).
		w.caps[i] = 1.3 * float64(cfg.clients) * 0.1 / float64(m)
	}
	w.ref = core.NewCoordProviderFromSS(w.ss, 0)
	w.dim = w.ref.Dim()
	w.buf = make([]float64, w.dim)
	return w
}

// coordOf writes client c's network coordinate: a point between two
// servers' coordinates, displaced by up to ±130 ms a dimension.
func (w *libraryWorld) coordOf(c int32, dst []float64) {
	m := len(w.caps)
	a := w.ref.ServerCoord(int(unit(10, uint64(c), 0) * float64(m)))
	b := w.ref.ServerCoord(int(unit(11, uint64(c), 0) * float64(m)))
	t := unit(12, uint64(c), 0)
	for d := range dst {
		dst[d] = a[d] + t*(b[d]-a[d]) + 260*(unit(13, uint64(c), uint64(d))-0.5)
	}
}

// sparseOf returns the one measured override every eighth original client
// carries: a server and a delay.
func (w *libraryWorld) sparseOf(c int32) (server int32, rtt float64, ok bool) {
	if c%8 != 0 {
		return 0, 0, false
	}
	return int32(unit(14, uint64(c), 0) * float64(len(w.caps))), 5 + 55*unit(15, uint64(c), 0), true
}

// measured is the RTT a probe from client c to server i reads on its k-th
// measurement: the coordinate distance within ±10 %, in whole microseconds.
func (w *libraryWorld) measured(c int32, i int, k uint64) float64 {
	w.coordOf(c, w.buf)
	var sq float64
	for d, v := range w.ref.ServerCoord(i) {
		sq += (w.buf[d] - v) * (w.buf[d] - v)
	}
	return math.Round(math.Sqrt(sq)*(0.9+0.2*unit(16+k, uint64(c), uint64(i)))*1000) / 1000
}

// overlay is one re-probed path of a client.
type overlay struct {
	server int32
	rtt    float64
}

// libraryGen is library_100k's stream of single session events and the
// model: where each client is and which of its paths were re-probed.
type libraryGen struct {
	rng      *xrand.RNG
	w        *libraryWorld
	cfg      libraryCfg
	zone     []int32
	live     []int32
	overlays map[int32][]overlay
	probes   int // delay events so far: the measurement generation
}

func newLibraryGen(seed uint64, w *libraryWorld, cfg libraryCfg) *libraryGen {
	g := &libraryGen{rng: xrand.New(seed), w: w, cfg: cfg, overlays: map[int32][]overlay{}}
	for c := 0; c < cfg.clients; c++ {
		g.zone = append(g.zone, int32(g.rng.IntN(cfg.zones)))
		g.live = append(g.live, int32(c))
	}
	return g
}

func (g *libraryGen) population() int           { return len(g.live) }
func (g *libraryGen) clients() int32            { return int32(len(g.zone)) }
func (g *libraryGen) zoneOf(client int32) int32 { return g.zone[client] }

func (g *libraryGen) next(op *Op) {
	*op = Op{}
	r := g.rng.Float64()
	switch {
	case r < 0.5:
		pJoin := 0.5 + float64(g.cfg.clients-len(g.live))/200
		if g.rng.Float64() < pJoin {
			op.Kind = OpJoin
			op.Client = int32(len(g.zone))
			op.Zone = int32(g.rng.IntN(g.cfg.zones))
			g.zone = append(g.zone, op.Zone)
			g.live = append(g.live, op.Client)
			return
		}
		op.Kind = OpLeave
		i := g.rng.IntN(len(g.live))
		op.Client = g.live[i]
		g.live[i] = g.live[len(g.live)-1]
		g.live = g.live[:len(g.live)-1]
		g.zone[op.Client] = -1
		delete(g.overlays, op.Client)
	case r < 0.9:
		op.Kind = OpMove
		op.Client = g.live[g.rng.IntN(len(g.live))]
		op.Zone = int32((int(g.zone[op.Client]) + 1 + g.rng.IntN(g.cfg.zones-1)) % g.cfg.zones)
		g.zone[op.Client] = op.Zone
	default:
		// Three re-probed paths: the partial refresh UpdateDelays is for.
		op.Kind = OpDelay
		op.Client = g.live[g.rng.IntN(len(g.live))]
		g.probes++
		for _, i := range g.rng.SampleWithout(g.cfg.servers, 3) {
			ov := overlay{server: int32(i), rtt: g.w.measured(op.Client, i, uint64(g.probes))}
			g.overlays[op.Client] = append(g.overlays[op.Client], ov)
			op.Delays = append(op.Delays, ov.server)
			op.Row = append(op.Row, ov.rtt)
		}
	}
}

// librarySys is the offline library at a working set larger than cache:
// the Cluster builder (solved from scratch again and again) and one opened
// session taking single events, both under the coordinate delay provider.
type librarySys struct {
	cfg       libraryCfg
	w         *libraryWorld
	seed      uint64
	cluster   *dvecap.Cluster
	sess      *dvecap.ClusterSession
	zoneNames []string
	srvNames  []string
	live      int
	original  int32 // clients below this number joined coordinate-natively
	solves    int   // session full solves asked for: Open's and every Resolve
	opts      Options
}

func (s *librarySys) openOpts() []dvecap.Option {
	opts := []dvecap.Option{dvecap.WithSeed(s.seed), dvecap.WithWorkers(1), dvecap.WithDelayProvider(dvecap.CoordDelays)}
	if s.opts.telemetry != nil {
		opts = append(opts, dvecap.WithTelemetry(s.opts.telemetry))
	}
	return opts
}

func (s *librarySys) open() (*dvecap.ClusterSession, error) {
	return s.cluster.Open("GreZ-GreC", s.openOpts()...)
}

// joinRow is the full measured row a client joining the live session
// brings (sessions take dense rows; only the builder joins by coordinate).
func (s *librarySys) joinRow(c int32) []float64 {
	row := make([]float64, s.cfg.servers)
	for i := range row {
		row[i] = s.w.measured(c, i, 0)
	}
	return row
}

// newLibrary builds the deployment, the stream and the 100k-client cluster.
func newLibrary(seed uint64, o Options) (*librarySys, *libraryGen, error) {
	cfg := libraryConfig(o)
	w := newLibraryWorld(cfg)
	gen := newLibraryGen(seed, w, cfg)
	s := &librarySys{
		cfg: cfg, w: w, seed: seed, opts: o,
		live:     cfg.clients,
		original: int32(cfg.clients),
		solves:   1,
	}
	c, srvNames, zoneNames, err := deployment(w.caps, w.ss, cfg.zones)
	if err != nil {
		return nil, nil, err
	}
	s.srvNames, s.zoneNames = srvNames, zoneNames
	for j := int32(0); j < int32(cfg.clients); j++ {
		spec := dvecap.ClientSpec{Zone: s.zoneNames[gen.zone[j]], BandwidthMbps: bandwidth(j), Coord: make([]float64, w.dim)}
		w.coordOf(j, spec.Coord)
		if srv, rtt, ok := w.sparseOf(j); ok {
			spec.RTTs = map[string]float64{s.srvNames[srv]: rtt}
		}
		if err := c.AddClient(clientID(j), spec); err != nil {
			return nil, nil, err
		}
	}
	s.cluster = c
	return s, gen, nil
}

func buildLibrary(seed uint64, o Options) (system, opSource, phaseCfg, error) {
	s, gen, err := newLibrary(seed, o)
	if err != nil {
		return nil, nil, phaseCfg{}, err
	}
	if s.sess, err = s.open(); err != nil {
		return nil, nil, phaseCfg{}, err
	}
	return s, gen, phaseCfg{calls: s.cfg.events, solveEvery: s.cfg.events / s.cfg.solves, readEvery: s.cfg.readEvery}, nil
}

// libraryLayers is library_100k's input to the layer probes: the initial
// population as a coordinate-provider problem and as the cluster itself,
// and the event stream with delay refreshes widened to full rows (the
// planner boundary takes nothing less).
func libraryLayers(seed uint64, o Options) (*layerInput, error) {
	s, gen, err := newLibrary(seed, o)
	if err != nil {
		return nil, err
	}
	ids := make([]string, s.cfg.clients)
	for j := range ids {
		ids[j] = clientID(int32(j))
	}
	p, err := s.truth(gen, ids)
	if err != nil {
		return nil, err
	}
	in := &layerInput{problem: p, ids: ids, cluster: s.cluster, openOpts: s.openOpts(), zoneNames: s.zoneNames, rt: bandwidth}
	in.feed = func() func(op *Op) {
		g := newLibraryGen(seed, s.w, s.cfg)
		return func(op *Op) {
			g.next(op)
			switch op.Kind {
			case OpJoin:
				op.Row = s.joinRow(op.Client)
			case OpDelay:
				op.Delays, op.Row = nil, s.joinRow(op.Client)
				for _, ov := range g.overlays[op.Client] {
					op.Row[ov.server] = ov.rtt
				}
			}
		}
	}
	return in, nil
}

func (s *librarySys) write(op *Op) error {
	id := clientID(op.Client)
	var err error
	switch op.Kind {
	case OpJoin:
		err = s.sess.Join(id, dvecap.ClientSpec{Zone: s.zoneNames[op.Zone], BandwidthMbps: bandwidth(op.Client), RTTRow: s.joinRow(op.Client)})
		s.live++
	case OpLeave:
		s.live--
		return s.sess.Leave(id)
	case OpMove:
		err = s.sess.Move(id, s.zoneNames[op.Zone])
	case OpDelay:
		rtts := make(map[string]float64, len(op.Delays))
		for x, srv := range op.Delays {
			rtts[s.srvNames[srv]] = op.Row[x]
		}
		return s.sess.UpdateDelays(id, rtts)
	default:
		return fmt.Errorf("library: unexpected op %s", op.Kind)
	}
	if err != nil {
		return err
	}
	cl, err := s.sess.Client(id)
	if err != nil {
		return err
	}
	if cl.Zone != s.zoneNames[op.Zone] {
		return fmt.Errorf("%s %s: in zone %s, model says %s", op.Kind, id, cl.Zone, s.zoneNames[op.Zone])
	}
	return nil
}

func (s *librarySys) read() error {
	res, err := s.sess.Result()
	if err != nil {
		return err
	}
	if res.Clients != s.live || res.PQoS < 0 || res.PQoS > 1 {
		return fmt.Errorf("result: %d clients (model %d), pQoS %v", res.Clients, s.live, res.PQoS)
	}
	return nil
}

// solve is one full two-phase re-execution offline and one online: the
// builder's population solved from scratch by Cluster.Solve, then the live
// session re-anchored by Resolve. The pair is one solve_p50_ms sample; the
// Resolve is also what makes zone handoffs a steady count here — single
// events among 100k clients almost never move a zone on their own.
func (s *librarySys) solve() error {
	res, err := s.cluster.Solve("GreZ-GreC", dvecap.WithSeed(s.seed), dvecap.WithWorkers(1),
		dvecap.WithDelayProvider(dvecap.CoordDelays))
	if err != nil {
		return err
	}
	if res.Clients != s.cfg.clients || res.WithQoS > res.Clients {
		return fmt.Errorf("solve: %d clients, %d with QoS", res.Clients, res.WithQoS)
	}
	s.solves++
	return s.sess.Resolve()
}

func (s *librarySys) repairCounts() repairCounts { return sessionCounts(s.sess, s.solves) }
func (s *librarySys) kill()                      {}
func (s *librarySys) remove()                    {}

func (s *librarySys) note() string {
	st := s.sess.Stats()
	return fmt.Sprintf("utilization %.3f, %d full solves in the session, %d contact switches",
		s.sess.Utilization(), st.FullSolves, st.ContactSwitches)
}

// truth rebuilds the coordinate-provider problem from the model alone —
// coordinates and sparse overrides for untouched original clients, dense
// rows for joiners and re-probed clients — with its clients in ids order.
func (s *librarySys) truth(g *libraryGen, ids []string) (*core.Problem, error) {
	cp := core.NewCoordProviderFromSS(s.w.ss, 0)
	p := &core.Problem{
		ServerCaps: s.w.caps, NumZones: s.cfg.zones, D: 250, SS: s.w.ss, Delays: cp,
		ClientZones: make([]int, len(ids)), ClientRT: make([]float64, len(ids)),
	}
	coord := make([]float64, s.w.dim)
	row := make([]float64, s.cfg.servers)
	for j, id := range ids {
		c, err := clientNumber(id, g)
		if err != nil {
			return nil, err
		}
		p.ClientZones[j] = int(g.zone[c])
		p.ClientRT[j] = bandwidth(c)
		var srvs []int32
		var vals []float64
		if c < s.original {
			s.w.coordOf(c, coord)
			if srv, rtt, ok := s.w.sparseOf(c); ok {
				srvs, vals = []int32{srv}, []float64{rtt}
			}
		}
		ovs := g.overlays[c]
		if c < s.original && len(ovs) == 0 {
			cp.AddClientAt(coord, srvs, vals)
			continue
		}
		if c < s.original {
			// The row the session overlaid the re-probes onto: the
			// provider's own prediction for this coordinate.
			at := s.w.ref.AddClientAt(coord, srvs, vals)
			s.w.ref.Row(at, row)
			s.w.ref.SwapRemoveClient(at)
		} else {
			copy(row, s.joinRow(c))
		}
		for _, ov := range ovs {
			row[ov.server] = ov.rtt
		}
		cp.AppendClient(row)
	}
	return p, nil
}

// verify evaluates the session's assignment from scratch on the problem
// truth rebuilds from the model.
func (s *librarySys) verify(model opSource) (float64, error) {
	g := model.(*libraryGen)
	return verifySession(s.sess, model, s.zoneNames, func(ids []string) (*core.Problem, error) { return s.truth(g, ids) })
}

// recoverOnce: Cluster.Open — what a restarted process pays to serve the
// builder's population again.
func (s *librarySys) recoverOnce(opSource) (time.Duration, error) {
	t0 := time.Now()
	sess, err := s.open()
	if err != nil {
		return 0, err
	}
	el := time.Since(t0)
	if sess.NumClients() != s.cfg.clients {
		return 0, fmt.Errorf("recover: %d clients opened, want %d", sess.NumClients(), s.cfg.clients)
	}
	return el, nil
}
