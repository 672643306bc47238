package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dvecap"
	"dvecap/internal/core"
	"dvecap/internal/director"
	"dvecap/internal/repair"
	"dvecap/internal/wal"
	"dvecap/internal/xrand"
	"dvecap/telemetry"
)

// PerLayer lists the per-layer metrics of the traced run, grouped by the
// module they measure, with the end-to-end metric each should move.
var PerLayer = []MetricSpec{
	{"loadgen.write_p99_ms", "ms", "lower", 0, "tail of write_p50_ms"},
	{"loadgen.read_p99_ms", "ms", "lower", 0, "tail of read_p50_ms"},
	{"loadgen.paced_write_p99_ms", "ms", "lower", 0, "open-loop write latency from the intended send time"},
	{"loadgen.paced_late_p99_ms", "ms", "lower", 0, "how late the generator itself sent: a slow generator is not a slow server"},
	{"loadgen.ops_failed", "count", "lower", 0, "operations of the traced run that failed verification"},
	{"net.transport_us_per_op", "us", "lower", 0, "client span minus handler span → write_p50_ms on churn_mem"},
	{"director.handler_us_per_write", "us", "lower", 0, "director.Handler(d).ServeHTTP per mutating request"},
	{"director.handler_us_per_read", "us", "lower", 0, "director.Handler(d).ServeHTTP per read"},
	{"director.state_us_per_write", "us", "lower", 0, "same stream through Director.Join/Leave/Move/UpdateDelays"},
	{"director.codec_us_per_write", "us", "lower", 0, "handler minus state: HTTP and JSON"},
	{"director.bookkeeping_us_per_write", "us", "lower", 0, "state minus bare planner: lock, ID maps, zone bandwidth refresh"},
	{"director.read_wait_us_p50", "us", "lower", 0, "read p50 with the writer running minus with it idle → read_p50_ms on churn_durable"},
	{"director.checkpoint_ms_p50", "ms", "lower", 0, "Director.Checkpoint"},
	{"director.recover_events_per_s", "1/s", "higher", 0, "journal-tail events replayed per second of director.New → recover_s on churn_durable"},
	{"wal.append_us_p50", "us", "lower", 0, "the run's own journal re-appended through wal.Open/Append → write_p50_ms on churn_durable"},
	{"wal.fsyncs_per_write", "count", "lower", 0, "fsyncs per journaled mutation"},
	{"wal.bytes_per_write", "B", "lower", 0, "framed journal bytes per mutation"},
	{"wal.snapshot_write_ms_p50", "ms", "lower", 0, "wal.WriteSnapshot of the director's own snapshot payload"},
	{"wal.snapshot_bytes", "B", "lower", 0, "size of that payload"},
	{"wal.replay_us_per_record", "us", "lower", 0, "wal.Replay over the journal tail → recover_s on churn_durable"},
	{"repair.event_us_p50.join", "us", "lower", 0, "bare repair.IDBinding join on the workload's problem"},
	{"repair.event_us_p50.leave", "us", "lower", 0, "bare leave"},
	{"repair.event_us_p50.move", "us", "lower", 0, "bare move"},
	{"repair.event_us_p50.delay", "us", "lower", 0, "bare delay-row refresh"},
	{"repair.batch_us_per_client", "us", "lower", 0, "MoveBatch of 64 clients, per client → throughput_ops_s on hotspot_moves"},
	{"repair.drain_ms_p50", "ms", "lower", 0, "DrainServer on the bare planner"},
	{"repair.full_solves", "count", "lower", 0, "full two-phase re-solves in the traced phase"},
	{"repair.guard_solves", "count", "lower", 0, "of those, fired by the drift or imbalance guard"},
	{"repair.zone_handoffs", "count", "lower", 0, "zone rehostings in the traced phase → handoffs_per_kop"},
	{"repair.contact_switches", "count", "lower", 0, "contact re-placements by the repair path"},
	{"core.solve_ms_p50", "ms", "lower", 0, "TwoPhase.Solve on the workload's problem → solve_p50_ms"},
	{"core.localsearch_ms_p50", "ms", "lower", 0, "one LocalSearchOpt round on that solution"},
	{"core.solve_w2_ms_p50", "ms", "lower", 0, "TwoPhase.Solve with Workers = 2"},
	{"core.evaluate_ms_p50", "ms", "lower", 0, "core.Evaluate → read_p50_ms on the library workloads"},
	{"core.cache_hit_ratio", "ratio", "higher", 0, "candidate-delta cache rows served without recomputation"},
	{"core.scan_rounds_per_event", "count", "lower", 0, "zone-move scans per client-level mutation"},
	{"core.provider_bytes_per_client", "B", "lower", 0, "delay storage per client → live_heap_mb on library_100k"},
	{"core.delay_read_ns", "ns", "lower", 0, "one Problem.CSAt read"},
	{"dvecap.open_ms", "ms", "lower", 0, "Cluster.Open → setup_s / recover_s on the library workloads"},
	{"dvecap.result_ms_p50", "ms", "lower", 0, "ClusterSession.Result → read_p50_ms on the library workloads"},
	{"dvecap.session_overhead_us_per_event", "us", "lower", 0, "session verb minus bare planner on the same events"},
	{"proc.cpu_us_per_op", "us", "lower", 0, "process CPU time per client-level mutation of the traced phase"},
	{"proc.alloc_bytes_per_op", "B", "lower", 0, "heap bytes allocated per mutation"},
	{"proc.mallocs_per_op", "count", "lower", 0, "heap objects allocated per mutation"},
	{"proc.gc_pause_ms_total", "ms", "lower", 0, "stop-the-world pause during the traced phase"},
	{"proc.gc_cycles", "count", "lower", 0, "collections during the traced phase"},
	{"proc.peak_rss_mb", "MB", "lower", 0, "VmHWM of the process at the end of the traced run"},
	{"telemetry.overhead_ratio", "ratio", "higher", 0, "traced ÷ untraced throughput of the same shortened phase"},
	{"trace.selfsum_ratio", "ratio", "higher", 0, "self times of the traced phase summed per write ÷ untraced mean write latency; within 0.10 of 1"},
	{"trace.durable_gap_ratio", "ratio", "higher", 0, "(durable − in-memory Director write, medians) ÷ wal.append_us_p50; within 0.15 of 1 on churn_durable"},
}

// layerInput is a workload's population and event stream in the form the
// layer probes replay them: a core problem with its clients in ids order,
// the same population at the public library surface, and single client
// events (join, leave, move, delay) with the joining or refreshed row in
// op.Row. feed returns a fresh, identical event stream on every call, so
// the same events can be timed at several boundaries.
type layerInput struct {
	problem   *core.Problem
	ids       []string
	cluster   *dvecap.Cluster
	openOpts  []dvecap.Option
	zoneNames []string
	rt        func(c int32) float64 // bandwidth requirement of a joining client
	feed      func() func(op *Op)
}

const (
	probeEvents   = 4000 // single events replayed per boundary
	probeBatches  = 20
	probeBatch    = 64
	pacedSeconds  = 3
	idleReads     = 300
	probeReps     = 5
	referenceSize = 2500 // clients of the durable reference director on non-durable workloads
	appendGap     = 100 * time.Microsecond
)

// RunTraced is the separate traced run: it produces every per-layer metric
// and writes the spans to trace-<workload>.jsonl in the work directory.
//
// It is a layered replay. The workload's own phase (a quarter of the
// untraced length) runs once with telemetry and tracing off and once with
// a telemetry registry attached and a span around every call; then the
// operation stream is replayed at each public boundary below the surface —
// Director methods, the bare repair.IDBinding, the dvecap session, core
// solves, the journal — and a layer's self time is its span minus the next
// boundary's time for the same operations. Layers a workload bypasses
// (director, net and wal on the two library workloads) are probed on the
// churn deployment, so the table is complete on every workload.
func RunTraced(w Workload, seed uint64, o Options) (*Result, error) {
	res := &Result{Workload: w.Name, Seed: seed, Metrics: map[string]Metric{}}
	rec := newRecorder()
	if err := traceSurface(w, seed, o, rec, res); err != nil {
		return nil, fmt.Errorf("%s: traced phase: %w", w.Name, err)
	}
	in, err := w.layers(seed, o)
	if err != nil {
		return nil, fmt.Errorf("%s: layer input: %w", w.Name, err)
	}
	// The director layers are probed on the workload's own deployment when
	// it has one, on churn_mem's otherwise.
	ccfg, churnIn := churnConfig(false, o), in
	if w.director != nil {
		ccfg = w.director(o)
	} else if churnIn, err = churnLayers(seed, o); err != nil {
		return nil, err
	}
	plannerOnChurn, err := probeDirector(ccfg, churnIn, seed, rec, res)
	if err != nil {
		return nil, fmt.Errorf("%s: director probe: %w", w.Name, err)
	}
	if err := probeLayers(in, in == churnIn, plannerOnChurn, rec, res); err != nil {
		return nil, fmt.Errorf("%s: layer probe: %w", w.Name, err)
	}
	if err := probeCore(in.problem, seed, res); err != nil {
		return nil, fmt.Errorf("%s: core probe: %w", w.Name, err)
	}
	res.set("proc.peak_rss_mb", peakRSSMiB(), "MB")
	res.set("loadgen.ops_failed", float64(res.Failed), "count")

	path := filepath.Join(o.WorkDir, "trace-"+w.Name+".jsonl")
	if err := rec.writeJSONL(path); err != nil {
		return nil, err
	}
	res.notef("%d spans written to %s", rec.len(), path)
	// Report in the contract's order, and insist that nothing is missing.
	res.Order = res.Order[:0]
	for _, spec := range PerLayer {
		m, ok := res.Metrics[spec.Name]
		if !ok {
			return nil, fmt.Errorf("%s: traced run produced no %s", w.Name, spec.Name)
		}
		m.Unit = spec.Unit
		res.Metrics[spec.Name] = m
		res.Order = append(res.Order, spec.Name)
	}
	return res, nil
}

// procSample is the process-wide resource state at one instant.
type procSample struct {
	cpu time.Duration
	ms  runtime.MemStats
}

func sampleProc() procSample {
	var s procSample
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	runtime.ReadMemStats(&s.ms)
	return s
}

// peakRSSMiB reads VmHWM from /proc/self/status (0 where there is none).
func peakRSSMiB() float64 {
	f := strings.Fields(firstField("/proc/self/status", "VmHWM"))
	if len(f) == 0 {
		return 0
	}
	kb, err := strconv.ParseFloat(f[0], 64)
	if err != nil {
		return 0
	}
	return kb / 1024
}

// counterValue reads a label-free counter a layer registered.
func counterValue(reg *telemetry.Registry, name string) float64 {
	return float64(reg.Counter(name, "").Value())
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func meanNs(l latencies) float64 {
	if len(l) == 0 {
		return 0
	}
	var sum float64
	for _, v := range l {
		sum += float64(v)
	}
	return sum / float64(len(l))
}

// p50ns is the median of the samples, 0 when there are none.
func p50ns(l latencies) float64 {
	if len(l) == 0 {
		return 0
	}
	return percentile(l.sortedCopy(), 0.5)
}

func p50us(l latencies) float64 { return p50ns(l) / nsPerUs }
func p50ms(l latencies) float64 { return p50ns(l) / nsPerMs }

// traceSurface runs the workload's own phase, shortened, twice: untraced
// for the baseline and traced (telemetry registry + spans) for the
// loadgen.*, proc.*, repair.* counts and core.* cache metrics; then the
// open-loop paced phase on the traced system.
func traceSurface(w Workload, seed uint64, o Options, rec *recorder, res *Result) error {
	short := o
	short.Seconds = o.Seconds / 4

	sys0, src0, cfg0, err := w.build(seed, short)
	if err != nil {
		return err
	}
	runtime.GC()
	ph0 := runPhase(sys0, src0, cfg0, nil, nil)
	sys0.kill()
	sys0.remove()

	traced := short
	traced.telemetry = telemetry.NewRegistry()
	traced.rec = rec
	sys1, src1, cfg1, err := w.build(seed, traced)
	if err != nil {
		return err
	}
	defer sys1.remove()
	runtime.GC()
	c0 := sys1.repairCounts()
	from := rec.len() // the preload's handler spans are not the phase's
	p0 := sampleProc()
	ph1 := runPhase(sys1, src1, cfg1, rec.hooks(), nil)
	p1 := sampleProc()
	c1 := sys1.repairCounts()
	res.Attempted += ph0.attempted + ph1.attempted
	res.Failed += ph0.failed + ph1.failed

	ws, rs := ph1.writes.sortedCopy(), ph1.reads.sortedCopy()
	res.set("loadgen.write_p99_ms", percentile(ws, 0.99)/nsPerMs, "ms")
	res.set("loadgen.read_p99_ms", percentile(rs, 0.99)/nsPerMs, "ms")
	res.set("telemetry.overhead_ratio", ratio(median(ph1.seg.rates()), median(ph0.seg.rates())), "ratio")

	muts := float64(ph1.mutations)
	res.set("proc.cpu_us_per_op", float64((p1.cpu-p0.cpu).Microseconds())/muts, "us")
	res.set("proc.alloc_bytes_per_op", float64(p1.ms.TotalAlloc-p0.ms.TotalAlloc)/muts, "B")
	res.set("proc.mallocs_per_op", float64(p1.ms.Mallocs-p0.ms.Mallocs)/muts, "count")
	res.set("proc.gc_pause_ms_total", float64(p1.ms.PauseTotalNs-p0.ms.PauseTotalNs)/nsPerMs, "ms")
	res.set("proc.gc_cycles", float64(p1.ms.NumGC-p0.ms.NumGC), "count")

	res.set("repair.full_solves", float64(c1.full-c0.full), "count")
	res.set("repair.guard_solves", float64(c1.guard-c0.guard), "count")
	res.set("repair.zone_handoffs", float64(c1.handoffs-c0.handoffs), "count")
	res.set("repair.contact_switches", float64(c1.switches-c0.switches), "count")
	res.set("core.scan_rounds_per_event", ratio(counterValue(traced.telemetry, "dvecap_scan_rounds_total"), muts), "count")

	// Self times of the traced phase: every span under a loadgen.write root,
	// summed per write, against what the untraced generator measured.
	st := selfTimes(rec.snapshot(from))
	var selfSum int64
	for _, s := range st {
		selfSum += s.OpSelfNs
	}
	res.set("trace.selfsum_ratio", ratio(float64(selfSum)/float64(len(ph1.writes)), meanNs(ph0.writes)), "ratio")
	names := make([]string, 0, len(st))
	for name := range st {
		names = append(names, name)
	}
	sort.Strings(names)
	res.notef("self-time table of the traced phase (%d writes; untraced mean write %.1f us):", len(ph1.writes), meanNs(ph0.writes)/nsPerUs)
	for _, name := range names {
		s := st[name]
		res.notef("  %-24s %7d spans  mean %9.1f us  self %9.1f us", name, s.Count,
			float64(s.Total)/float64(s.Count)/nsPerUs, float64(s.SelfNs)/float64(s.Count)/nsPerUs)
	}

	paced := runPaced(sys1, src1, w.paced, pacedSeconds)
	res.Attempted += paced.attempted
	res.Failed += paced.failed
	res.set("loadgen.paced_write_p99_ms", percentile(paced.writes.sortedCopy(), 0.99)/nsPerMs, "ms")
	res.set("loadgen.paced_late_p99_ms", percentile(paced.reads.sortedCopy(), 0.99)/nsPerMs, "ms")
	res.notef("paced phase: %d calls at %d/s, p50 %.3f ms from the intended send", len(paced.writes), w.paced, p50ms(paced.writes))

	res.Attempted++
	if _, err := sys1.verify(src1); err != nil {
		res.Failed++
		fmt.Fprintln(os.Stderr, "capbench: FAILED:", err)
	}
	sys1.kill()
	return nil
}

// runPaced is the open-loop phase: one connection, calls due at a fixed
// rate regardless of how the previous one fared. Latency runs from the
// intended send time, so a stall is charged to every call it delays
// (coordinated-omission-safe). The generator's own lateness — how long
// after both the due time and the previous completion the call really
// started — is returned in the reads slot, so a slow generator is not read
// as a slow server.
func runPaced(sys system, src opSource, perSec, seconds int) phaseResult {
	n := perSec * seconds
	res := phaseResult{writes: make(latencies, 0, n), reads: make(latencies, 0, n)}
	interval := time.Second / time.Duration(perSec)
	var op Op
	start := time.Now()
	prevDone := start
	for i := 0; i < n && res.failed < maxFailures; i++ {
		src.next(&op)
		due := start.Add(time.Duration(i) * interval)
		for {
			wait := time.Until(due)
			if wait <= 0 {
				break
			}
			// Sleeping overshoots by up to a millisecond here; the last
			// stretch is spun so the generator itself is not the late one.
			if wait > 2*time.Millisecond {
				time.Sleep(wait - time.Millisecond)
			} else {
				runtime.Gosched()
			}
		}
		free := due
		if prevDone.After(free) {
			free = prevDone
		}
		sent := time.Now()
		err := sys.write(&op)
		prevDone = time.Now()
		res.writes.add(prevDone.Sub(due).Nanoseconds())
		res.reads.add(sent.Sub(free).Nanoseconds())
		res.attempted++
		if err != nil {
			res.failed++
			fmt.Fprintln(os.Stderr, "capbench: FAILED: paced write:", err)
		}
	}
	return res
}

// applyPlanner executes one single event on the bare ID binding.
func applyPlanner(b *repair.IDBinding, in *layerInput, op *Op) error {
	id := clientID(op.Client)
	switch op.Kind {
	case OpJoin:
		return b.Join(id, int(op.Zone), in.rt(op.Client), op.Row)
	case OpLeave:
		return b.Leave(id)
	case OpMove:
		return b.Move(id, int(op.Zone))
	case OpDelay:
		return b.UpdateDelays(id, op.Row)
	}
	return fmt.Errorf("planner probe: unexpected op %s", op.Kind)
}

// applySession executes one single event through the session's verbs.
func applySession(s *dvecap.ClusterSession, in *layerInput, op *Op) error {
	id := clientID(op.Client)
	switch op.Kind {
	case OpJoin:
		return s.Join(id, dvecap.ClientSpec{Zone: in.zoneNames[op.Zone], BandwidthMbps: in.rt(op.Client), RTTRow: op.Row})
	case OpLeave:
		return s.Leave(id)
	case OpMove:
		return s.Move(id, in.zoneNames[op.Zone])
	case OpDelay:
		return s.UpdateDelayRow(id, op.Row)
	}
	return fmt.Errorf("session probe: unexpected op %s", op.Kind)
}

// barePlanner builds a repair planner and ID binding over the input's
// problem, the way Cluster.Open and director.New do.
func barePlanner(in *layerInput, seed uint64) (*repair.IDBinding, error) {
	algo, _ := core.ByName("GreZ-GreC")
	pl, err := repair.New(repair.Config{Algo: algo, Opt: core.Options{Overflow: core.SpillLargestResidual, Workers: 1}},
		in.problem, xrand.New(seed))
	if err != nil {
		return nil, err
	}
	return repair.NewIDBinding(pl, in.ids)
}

// probeLayers measures the repair and dvecap layers on the workload's own
// population and events: the bare planner (singles by kind, 64-client
// move batches, drain cycles) and the public session (open, the same
// singles, Result).
func probeLayers(in *layerInput, isChurn bool, plannerOnChurn *plannerResult, rec *recorder, res *Result) error {
	pr := plannerOnChurn
	if !isChurn {
		var err error
		if pr, err = runPlannerProbe(in, 1, rec); err != nil {
			return err
		}
	}
	for kind, name := range map[OpKind]string{OpJoin: "join", OpLeave: "leave", OpMove: "move", OpDelay: "delay"} {
		res.set("repair.event_us_p50."+name, p50us(pr.byKind[kind]), "us")
	}
	res.set("repair.batch_us_per_client", pr.batchUsPerClient, "us")
	res.set("repair.drain_ms_p50", pr.drainMsP50, "ms")

	t0 := time.Now()
	sess, err := in.cluster.Open("GreZ-GreC", in.openOpts...)
	if err != nil {
		return err
	}
	res.set("dvecap.open_ms", float64(time.Since(t0).Nanoseconds())/nsPerMs, "ms")
	next := in.feed()
	var op Op
	var sessLat latencies
	for i := 0; i < probeEvents; i++ {
		next(&op)
		id := rec.begin("dvecap.session", -1, int32(i))
		t0 := time.Now()
		err := applySession(sess, in, &op)
		sessLat.add(time.Since(t0).Nanoseconds())
		rec.end(id)
		if err != nil {
			return fmt.Errorf("session probe event %d: %w", i, err)
		}
	}
	var results latencies
	for i := 0; i < probeReps; i++ {
		t0 := time.Now()
		if _, err := sess.Result(); err != nil {
			return err
		}
		results.add(time.Since(t0).Nanoseconds())
	}
	res.set("dvecap.result_ms_p50", p50ms(results), "ms")
	res.set("dvecap.session_overhead_us_per_event", (meanNs(sessLat)-meanNs(pr.all))/nsPerUs, "us")
	return nil
}

// plannerResult is what the bare-planner probe measured.
type plannerResult struct {
	byKind           map[OpKind]latencies
	all              latencies
	batchUsPerClient float64
	drainMsP50       float64
}

// runPlannerProbe replays the input's events on a bare planner: singles
// timed by kind, then move batches, then drain cycles.
func runPlannerProbe(in *layerInput, seed uint64, rec *recorder) (*plannerResult, error) {
	b, err := barePlanner(in, seed)
	if err != nil {
		return nil, err
	}
	next := in.feed()
	pr := &plannerResult{byKind: map[OpKind]latencies{}}
	var op Op
	for i := 0; i < probeEvents; i++ {
		next(&op)
		id := rec.begin("repair.planner", -1, int32(i))
		t0 := time.Now()
		err := applyPlanner(b, in, &op)
		ns := time.Since(t0).Nanoseconds()
		rec.end(id)
		if err != nil {
			return nil, fmt.Errorf("planner probe event %d: %w", i, err)
		}
		l := pr.byKind[op.Kind]
		l.add(ns)
		pr.byKind[op.Kind] = l
		pr.all.add(ns)
	}

	// Batches: the next moves of the stream, up to 64 distinct clients at a
	// time, as one MoveBatch each. Other clients' events in between are
	// applied singly at once; an event of a client already in the batch must
	// not overtake its batched move, so it closes the batch and follows it.
	var batchNs float64
	for n := 0; n < probeBatches; n++ {
		ids, zones := make([]string, 0, probeBatch), make([]int, 0, probeBatch)
		inBatch := map[int32]bool{}
		pending := false
		for len(ids) < probeBatch && !pending {
			next(&op)
			switch {
			case inBatch[op.Client]:
				pending = true
			case op.Kind == OpMove:
				inBatch[op.Client] = true
				ids, zones = append(ids, clientID(op.Client)), append(zones, int(op.Zone))
			default:
				if err := applyPlanner(b, in, &op); err != nil {
					return nil, err
				}
			}
		}
		t0 := time.Now()
		if err := b.MoveBatch(ids, zones); err != nil {
			return nil, err
		}
		batchNs += float64(time.Since(t0).Nanoseconds()) / float64(len(ids))
		if pending {
			if err := applyPlanner(b, in, &op); err != nil {
				return nil, err
			}
		}
	}
	pr.batchUsPerClient = batchNs / probeBatches / nsPerUs

	var drains latencies
	pl := b.Planner()
	for i := 0; i < probeReps; i++ {
		server := i % pl.NumServers()
		t0 := time.Now()
		if err := pl.DrainServer(server); err != nil {
			return nil, err
		}
		drains.add(time.Since(t0).Nanoseconds())
		if err := pl.UncordonServer(server); err != nil {
			return nil, err
		}
	}
	pr.drainMsP50 = p50ms(drains)
	return pr, nil
}

// probeCore times the core layer on the workload's problem.
func probeCore(p *core.Problem, seed uint64, res *Result) error {
	algo, _ := core.ByName("GreZ-GreC")
	var a *core.Assignment
	solve := func(workers int) (latencies, error) {
		var l latencies
		opt := core.Options{Overflow: core.SpillLargestResidual, Scratch: core.NewWorkspace(), Workers: workers}
		for i := 0; i < probeReps; i++ {
			t0 := time.Now()
			var err error
			if a, err = algo.Solve(xrand.New(seed), p, opt); err != nil {
				return nil, err
			}
			l.add(time.Since(t0).Nanoseconds())
		}
		return l, nil
	}
	w1, err := solve(1)
	if err != nil {
		return err
	}
	w2, err := solve(2)
	if err != nil {
		return err
	}
	res.set("core.solve_ms_p50", p50ms(w1), "ms")
	res.set("core.solve_w2_ms_p50", p50ms(w2), "ms")

	// One local-search round per sample; the last sample's evaluator runs
	// two more rounds with a registry attached, which is where the
	// candidate-delta cache can serve rows it already computed.
	var ls, evs latencies
	reg := telemetry.NewRegistry()
	for i := 0; i < 3; i++ {
		ev := core.NewEvaluator(p, a)
		ev.SetTelemetry(reg)
		t0 := time.Now()
		ev.LocalSearch(1)
		ls.add(time.Since(t0).Nanoseconds())
		if i == 2 {
			ev.LocalSearch(2)
		}
	}
	hits := counterValue(reg, "dvecap_cache_row_hits_total")
	res.set("core.cache_hit_ratio", ratio(hits, hits+counterValue(reg, "dvecap_cache_row_refreshes_total")), "ratio")
	for i := 0; i < probeReps; i++ {
		t0 := time.Now()
		core.Evaluate(p, a)
		evs.add(time.Since(t0).Nanoseconds())
	}
	res.set("core.localsearch_ms_p50", p50ms(ls), "ms")
	res.set("core.evaluate_ms_p50", p50ms(evs), "ms")

	k, m := p.NumClients(), p.NumServers()
	bytes := float64(k * m * 8)
	if p.Delays != nil {
		bytes = float64(p.Delays.MemoryBytes())
	}
	res.set("core.provider_bytes_per_client", bytes/float64(k), "B")
	const reads = 1 << 20
	var sink float64
	x := uint64(seed)
	t0 := time.Now()
	for i := 0; i < reads; i++ {
		x = mix64(x)
		sink += p.CSAt(int(x>>33)%k, int(x&0xffff)%m)
	}
	el := time.Since(t0)
	if sink < 0 {
		return fmt.Errorf("core probe: negative delay sum %v", sink)
	}
	res.set("core.delay_read_ns", float64(el.Nanoseconds())/reads, "ns")
	return nil
}

// probeDirector measures the director, net and wal layers by replaying the
// churn stream at each boundary: over HTTP with a bench-owned middleware
// around director.Handler (client span → handler span), through the
// Director's methods directly (in memory and durable), and on the bare
// planner; then the journal the durable pass wrote is read back and
// re-appended, its snapshot rewritten, and the directory recovered.
func probeDirector(cfg churnCfg, in *layerInput, seed uint64, rec *recorder, res *Result) (*plannerResult, error) {
	mem := cfg
	mem.durable, mem.preloadViaDirect, mem.rec, mem.telemetry = false, true, rec, nil

	// 1. Over HTTP, writer and reader running.
	sys, gen, err := setupChurn(seed, mem)
	if err != nil {
		return nil, err
	}
	from := rec.len()
	ph := runPhase(sys, gen, phaseCfg{calls: probeEvents}, rec.hooks(), nil)
	res.Attempted += ph.attempted
	res.Failed += ph.failed
	st := selfTimes(rec.snapshot(from))
	hw, hr, lw := st["director.handler.write"], st["director.handler.read"], st["loadgen.write"]
	handlerUs := ratio(float64(hw.Total), float64(hw.Count)) / nsPerUs
	res.set("net.transport_us_per_op", ratio(float64(lw.SelfNs), float64(lw.Count))/nsPerUs, "us")
	res.set("director.handler_us_per_write", handlerUs, "us")
	res.set("director.handler_us_per_read", ratio(float64(hr.Total), float64(hr.Count))/nsPerUs, "us")
	// The same reads with nobody taking the write lock: the writer's
	// connection stays as busy as before, but with GET /v1/stats, so the
	// difference is the wait behind writes, not a processor gone cold.
	var idle latencies
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				_, _ = sys.wc.Stats() // only keeps the connection busy
			}
		}
	}()
	for i := 0; i < idleReads; i++ {
		time.Sleep(thinkTime)
		t0 := time.Now()
		err := sys.read()
		idle.add(time.Since(t0).Nanoseconds())
		if err != nil {
			close(stop)
			<-done
			return nil, err
		}
	}
	close(stop)
	<-done
	res.set("director.read_wait_us_p50", p50us(ph.reads)-p50us(idle), "us")
	sys.kill()

	// 2. The same stream through the Director's methods, in memory.
	stateMem, _, err := directPass(seed, mem, probeEvents, rec)
	if err != nil {
		return nil, err
	}
	// 3. …and on the bare planner.
	pr, err := runPlannerProbe(in, seed, rec)
	if err != nil {
		return nil, err
	}
	stateUs := meanNs(stateMem) / nsPerUs
	res.set("director.state_us_per_write", stateUs, "us")
	res.set("director.codec_us_per_write", handlerUs-stateUs, "us")
	res.set("director.bookkeeping_us_per_write", stateUs-meanNs(pr.all)/nsPerUs, "us")

	// 4. Durable: the workload's own configuration on churn_durable, a
	// reduced reference population elsewhere (every preloaded client is one
	// fsync).
	dur := cfg
	dur.durable, dur.preloadViaDirect, dur.rec = true, true, nil
	dur.telemetry = telemetry.NewRegistry()
	if !cfg.durable {
		dur.clients, dur.pinned = min(cfg.clients, referenceSize), min(cfg.pinned, referenceSize/10)
	}
	dur.snapEvery, dur.tailEvents = 0, 0
	stateDur, dsys, err := directPass(seed, dur, probeEvents/2, rec)
	if err != nil {
		return nil, err
	}
	defer dsys.remove()
	writes := float64(len(stateDur))
	fsyncs, bytes := journalCounters(dur.telemetry)
	res.set("wal.fsyncs_per_write", (fsyncs-dsys.fsyncsAtStart)/writes, "count")
	res.set("wal.bytes_per_write", (bytes-dsys.bytesAtStart)/writes, "B")
	return pr, probeJournal(dsys, stateDur, stateMem, res)
}

// directPass preloads a fresh director through Director.Join and replays n
// stream operations through its methods, no HTTP.
func directPass(seed uint64, cfg churnCfg, n int, rec *recorder) (latencies, *churnSys, error) {
	sys, gen, err := setupChurn(seed, cfg)
	if err != nil {
		return nil, nil, err
	}
	sys.close() // the HTTP side is not used here
	sys.tailGen = gen
	if cfg.durable {
		sys.fsyncsAtStart, sys.bytesAtStart = journalCounters(cfg.telemetry)
	}
	var lat latencies
	var op Op
	for i := 0; i < n; i++ {
		gen.next(&op)
		id := rec.begin("director.state", -1, int32(i))
		t0 := time.Now()
		err := sys.direct(&op)
		lat.add(time.Since(t0).Nanoseconds())
		rec.end(id)
		if err != nil {
			return nil, nil, fmt.Errorf("direct pass op %d: %w", i, err)
		}
	}
	if _, err := verifyDirector(sys.d, gen); err != nil {
		return nil, nil, err
	}
	return lat, sys, nil
}

// direct executes one stream operation through the Director's methods.
func (s *churnSys) direct(op *Op) error {
	id := clientID(op.Client)
	var info director.ClientInfo
	var err error
	switch op.Kind {
	case OpJoin:
		info, err = s.d.Join(id, int(op.Node), int(op.Zone))
	case OpLeave:
		return s.d.Leave(id)
	case OpMove:
		info, err = s.d.Move(id, int(op.Zone))
	case OpDelay:
		info, err = s.d.UpdateDelays(id, op.Row)
	}
	if err != nil {
		return err
	}
	return checkInfo(info, op, s.cfg.zones, s.cfg.servers)
}

// journalCounters reads the wal layer's cumulative fsync and byte counts.
func journalCounters(reg *telemetry.Registry) (fsyncs, bytes float64) {
	return float64(reg.Histogram("dvecap_wal_fsync_duration_seconds", "", nil).Count()),
		counterValue(reg, "dvecap_wal_appended_bytes_total")
}

// probeJournal measures the wal layer on the journal a durable director
// just wrote, and the director's checkpoint and recovery on top of it.
func probeJournal(s *churnSys, stateDur, stateMem latencies, res *Result) error {
	var cps latencies
	for i := 0; i < probeReps; i++ {
		t0 := time.Now()
		if _, err := s.d.Checkpoint(); err != nil {
			return err
		}
		cps.add(time.Since(t0).Nanoseconds())
	}
	res.set("director.checkpoint_ms_p50", p50ms(cps), "ms")
	// A journal tail for replay and recovery: more stream after the last
	// checkpoint.
	gen := s.tailGen
	var op Op
	for i := 0; i < probeEvents/2; i++ {
		gen.next(&op)
		if err := s.direct(&op); err != nil {
			return err
		}
	}
	s.preKillClients, s.preKillStats = byID(s.d.Snapshot()), s.d.Stats()

	snapLSN, snapPayload, err := wal.LatestSnapshot(s.dataDir)
	if err != nil {
		return err
	}
	var payloads [][]byte
	t0 := time.Now()
	if _, err := wal.Replay(s.dataDir, snapLSN, func(_ uint64, p []byte) error {
		payloads = append(payloads, append([]byte(nil), p...))
		return nil
	}); err != nil {
		return err
	}
	res.set("wal.replay_us_per_record", float64(time.Since(t0).Nanoseconds())/float64(len(payloads))/nsPerUs, "us")

	dir, err := os.MkdirTemp(s.cfg.dataRoot, "walprobe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	w, err := wal.Open(dir, 0, wal.Options{})
	if err != nil {
		return err
	}
	// Re-appended at the workload's cadence — a request's worth of idle
	// time between two appends — because an fsync that follows other work
	// costs more than one of a back-to-back series.
	var appends latencies
	for _, p := range payloads {
		time.Sleep(appendGap)
		t0 := time.Now()
		if _, err := w.Append(p); err != nil {
			w.Close()
			return err
		}
		appends.add(time.Since(t0).Nanoseconds())
	}
	if err := w.Close(); err != nil {
		return err
	}
	appendUs := p50us(appends)
	res.set("wal.append_us_p50", appendUs, "us")
	res.set("trace.durable_gap_ratio", ratio(p50us(stateDur)-p50us(stateMem), appendUs), "ratio")

	var snaps latencies
	for i := 0; i < probeReps; i++ {
		t0 := time.Now()
		if err := wal.WriteSnapshot(dir, uint64(i+1), snapPayload, nil); err != nil {
			return err
		}
		snaps.add(time.Since(t0).Nanoseconds())
	}
	res.set("wal.snapshot_write_ms_p50", p50ms(snaps), "ms")
	res.set("wal.snapshot_bytes", float64(len(snapPayload)), "B")

	el, err := s.recoverOnce(gen)
	res.Attempted++
	if err != nil {
		res.Failed++
		fmt.Fprintln(os.Stderr, "capbench: FAILED:", err)
		res.set("director.recover_events_per_s", 0, "1/s")
		return nil
	}
	res.set("director.recover_events_per_s", float64(len(payloads))/el.Seconds(), "1/s")
	return nil
}
