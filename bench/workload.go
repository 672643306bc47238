package bench

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"sync"
	"time"

	"dvecap/telemetry"
)

// system is one workload's program under test, driven through its public
// surface. Implementations verify every response against the model and
// return an error on any mismatch.
type system interface {
	// write executes one mutating call.
	write(op *Op) error
	// read executes one read.
	read() error
	// solve runs one full two-phase re-execution.
	solve() error
	// repairCounts are the repair planner's cumulative counters.
	repairCounts() repairCounts
	// verify checks the end-of-phase state against the model and the
	// maintained pQoS against a from-scratch core evaluation.
	verify(model opSource) (pqos float64, err error)
	// note describes the end-of-phase state for the human-readable output.
	note() string
	// kill stops serving the way a lost process would.
	kill()
	// recoverOnce times one recovery and checks the recovered state.
	recoverOnce(model opSource) (time.Duration, error)
	// remove deletes whatever the system left on disk.
	remove()
}

// repairCounts are cumulative counters of a system's repair planner.
// guard is the number of full solves the drift and imbalance guards fired:
// all full solves minus the ones the system was asked for.
type repairCounts struct {
	full, guard, handoffs, switches int
}

// phaseCfg shapes a measured phase: fixed call counts, never durations.
type phaseCfg struct {
	calls      int // mutating calls
	solveEvery int // a full solve after every this many calls
	// readEvery > 0 issues one read inline after every this many calls (the
	// library surfaces are single-threaded); 0 runs the reader as a second
	// closed-loop goroutine with thinkTime between reads.
	readEvery int
	// maxWall cuts the phase short on a machine so slow that the call count
	// would run into the gate's per-run time limit; the cut is reported.
	maxWall time.Duration
}

const (
	thinkTime   = 2 * time.Millisecond
	numSegments = 20
	// weatherSamples is how often the reference kernel runs through a
	// measured phase; weatherAround how often before and after each
	// repetition of a single-shot phase.
	weatherSamples = 200
	weatherAround  = 3
	// Single-shot phases are repeated and reported as medians: at least
	// this many times, and until the repetitions add up to repBudget (a
	// 50 ms recovery is repeated more often than a 1 s one), at most maxReps.
	setupReps    = 2
	recoverReps  = 7
	maxReps      = 15
	repBudget    = 2500 * time.Millisecond
	maxFailures  = 50 // abort a phase whose model has clearly diverged
	bytesPerMiB  = 1 << 20
	nsPerMs      = 1e6
	nsPerUs      = 1e3
	reportErrors = 5 // mismatches printed to stderr per phase
)

// Workload names one benchmark workload and why it exists.
type Workload struct {
	Name string
	Why  string
	// build constructs the system from the seed. seconds sizes the measured
	// phase (call counts are seconds × a rate calibrated on the reference
	// box); size scales populations (1 = full, tests use 1/50).
	build func(seed uint64, o Options) (system, opSource, phaseCfg, error)
	// layers returns the population and event stream the traced run's layer
	// probes replay.
	layers func(seed uint64, o Options) (*layerInput, error)
	// director is the deployment of a workload that runs a director (nil
	// for the library workloads).
	director func(o Options) churnCfg
	// requests is the reference-kernel mix (speed.go) that setup_s,
	// throughput_ops_s, write_p50_ms and read_p50_ms are scaled by: what a
	// request to this workload's surface follows. solve_p50_ms and recover_s
	// run in one goroutine on every workload and always follow general.
	requests mix
	// paced is the open-loop call rate of the traced run's paced phase:
	// about a third of what the closed loop sustains.
	paced int
}

// Options are the knobs shared by every run.
type Options struct {
	Seconds float64 // nominal length of the measured phase
	Size    float64 // population scale, 1 = as specified
	WorkDir string  // scratch directory inside the checkout
	// The traced run attaches a registry and a span recorder; the untraced
	// run leaves both nil.
	telemetry *telemetry.Registry
	rec       *recorder
}

// Workloads lists the four workloads in reporting order.
func Workloads() []Workload {
	return []Workload{
		{Name: "churn_mem", Why: "in-memory director behind HTTP: decode/encode, the single RWMutex and incremental repair do all the work and wal does none",
			build: buildChurn(false), layers: churnLayers, requests: general, paced: 2000,
			director: func(o Options) churnCfg { return churnConfig(false, o) }},
		{Name: "churn_durable", Why: "same config and op stream with a journal on a real filesystem: fsync-before-ack under the write lock dominates, so the difference to churn_mem is the price of durability",
			build: buildChurn(true), layers: churnLayers, requests: journal, paced: 500,
			director: func(o Options) churnCfg { return churnConfig(true, o) }},
		{Name: "hotspot_moves", Why: "public library path on a 20x20 world with hotspots and groups: batches, traffic term, guards and drain cycles stress the repair planner where churn_mem uses single events",
			build: buildHotspot, layers: hotspotLayers, requests: general, paced: 100},
		{Name: "library_100k", Why: "offline solves and single events at 100k coordinate-native clients: two-phase solve, local search, delay-provider reads and memory dominate; director, wal and HTTP are bypassed",
			build: buildLibrary, layers: libraryLayers, requests: general, paced: 2000},
	}
}

// WorkloadByName finds a workload.
func WorkloadByName(name string) (Workload, bool) {
	for _, w := range Workloads() {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// Select resolves a -workload argument: one workload by name, or "all".
func Select(name string) ([]Workload, error) {
	if name == "all" {
		return Workloads(), nil
	}
	if w, ok := WorkloadByName(name); ok {
		return []Workload{w}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// Metric is one reported number.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is one run of one workload.
type Result struct {
	Workload  string
	Seed      uint64
	Metrics   map[string]Metric
	Order     []string // metric names in reporting order
	Attempted int
	Failed    int
	// Notes are extra human-readable lines (tails, sample counts, phase
	// length) that are printed but not gated.
	Notes []string
}

func (r *Result) set(name string, v float64, unit string) {
	if _, dup := r.Metrics[name]; !dup {
		r.Order = append(r.Order, name)
	}
	r.Metrics[name] = Metric{Value: v, Unit: unit}
}

func (r *Result) notef(format string, a ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, a...))
}

// phaseResult is what one measured phase recorded.
type phaseResult struct {
	writes, reads, solves latencies
	seg                   *segments
	mutations             int
	attempted, failed     int
	wall                  time.Duration
	cutAt                 int // calls made when maxWall cut the phase short; 0 = ran to the end
	// Weather-clock seconds of every read and every solve, so each can be
	// matched with the machine speed measured around it.
	readAt, solveAt []float64
}

// failures counts mismatches and keeps the first few for stderr.
type failures struct {
	mu      sync.Mutex
	n       int
	printed int
}

func (f *failures) add(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.n++
	if f.printed < reportErrors {
		f.printed++
		fmt.Fprintln(os.Stderr, "capbench: FAILED:", err)
	}
}

func (f *failures) count() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.n
}

// hooks lets the traced run observe a phase's calls; nil fields are skipped.
type hooks struct {
	// write wraps the execution of one mutating call.
	write func(i int, op *Op, do func() error) error
	// read wraps one read.
	read func(do func() error) error
}

// runPhase drives one measured phase: exactly one writer, so the state
// trajectory — and every count derived from it — is a function of the seed.
func runPhase(sys system, src opSource, cfg phaseCfg, hk *hooks, wx *weather) phaseResult {
	res := phaseResult{
		writes: make(latencies, 0, cfg.calls),
		seg:    newSegments(cfg.calls, numSegments),
	}
	var fails failures
	clock := func() float64 { return 0 }
	if wx != nil {
		clock = wx.now
	}
	doRead := func() error { return sys.read() }
	if hk != nil && hk.read != nil {
		doRead = func() error { return hk.read(sys.read) }
	}

	// The reader: closed loop, one request in flight, thinkTime between
	// requests, latency timed from the actual send.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var readCount int
	if cfg.readEvery == 0 {
		res.reads = make(latencies, 0, 1<<14)
		wg.Add(1)
		go func() {
			defer wg.Done()
			timer := time.NewTimer(thinkTime)
			defer timer.Stop()
			for {
				select {
				case <-stop:
					return
				case <-timer.C:
				}
				res.readAt = append(res.readAt, clock())
				t0 := time.Now()
				err := doRead()
				res.reads.add(time.Since(t0).Nanoseconds())
				readCount++
				if err != nil {
					fails.add(fmt.Errorf("read: %w", err))
				}
				timer.Reset(thinkTime)
			}
		}()
	}

	var op Op
	wxEvery := max(cfg.calls/weatherSamples, 1)
	start := time.Now()
	for i := 0; i < cfg.calls && fails.count() < maxFailures; i++ {
		if wx != nil && i%wxEvery == 0 {
			wx.sample()
			if cfg.maxWall > 0 && time.Since(start) > cfg.maxWall {
				res.cutAt = i
				break
			}
		}
		src.next(&op)
		var err error
		t0 := time.Now()
		if hk != nil && hk.write != nil {
			err = hk.write(i, &op, func() error { return sys.write(&op) })
		} else {
			err = sys.write(&op)
		}
		ns := time.Since(t0).Nanoseconds()
		res.writes.add(ns)
		res.seg.add(op.Mutations(), ns, clock())
		res.mutations += op.Mutations()
		res.attempted++
		if err != nil {
			fails.add(fmt.Errorf("write %d: %w", i, err))
		}
		if cfg.solveEvery > 0 && (i+1)%cfg.solveEvery == 0 {
			res.solveAt = append(res.solveAt, clock())
			t0 := time.Now()
			err := sys.solve()
			res.solves.add(time.Since(t0).Nanoseconds())
			res.attempted++
			if err != nil {
				fails.add(fmt.Errorf("solve after write %d: %w", i, err))
			}
		}
		if cfg.readEvery > 0 && (i+1)%cfg.readEvery == 0 {
			res.readAt = append(res.readAt, clock())
			t0 := time.Now()
			err := doRead()
			res.reads.add(time.Since(t0).Nanoseconds())
			readCount++
			if err != nil {
				fails.add(fmt.Errorf("read after write %d: %w", i, err))
			}
		}
	}
	res.wall = time.Since(start)
	if wx != nil {
		wx.sample()
	}
	close(stop)
	wg.Wait()
	res.attempted += readCount
	res.failed = fails.count()
	return res
}

// heapMiB is HeapAlloc after two collections: what the run keeps alive.
func heapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / bytesPerMiB
}

// repeated runs a single-shot phase several times — at least minReps, then
// on until the repetitions add up to repBudget or reach maxReps — with the
// reference kernel sampled before and after each, and returns the median of
// the durations at reference speed, and the raw median.
func repeated(wx *weather, on mix, minReps int, once func() (time.Duration, error), failed func(error)) (atRef, raw float64) {
	var ref, raws []float64
	for rep, spent := 0, time.Duration(0); rep < minReps || (spent < repBudget && rep < maxReps); rep++ {
		runtime.GC()
		from := wx.now()
		for i := 0; i < weatherAround; i++ {
			wx.sample()
		}
		var d time.Duration
		var err error
		wx.during(func() { d, err = once() })
		for i := 0; i < weatherAround; i++ {
			wx.sample()
		}
		spent += d
		if err != nil {
			failed(err)
			continue
		}
		raws = append(raws, d.Seconds())
		ref = append(ref, d.Seconds()*wx.factor(on, from, wx.now()))
	}
	if len(ref) == 0 {
		return 0, 0
	}
	return median(ref), median(raws)
}

// Run executes the untraced run of one workload and returns its nine
// end-to-end metrics. Telemetry and tracing are off. Every timed metric is
// at reference speed (speed.go); the values as measured are in the notes.
func Run(w Workload, seed uint64, o Options) (*Result, error) {
	res := &Result{Workload: w.Name, Seed: seed, Metrics: map[string]Metric{}}
	wx, err := newWeather()
	if err != nil {
		return nil, err
	}
	defer wx.close()
	fail := func(err error) {
		res.Failed++
		fmt.Fprintln(os.Stderr, "capbench: FAILED:", err)
	}

	// setup_s: the whole construction, several times. All but the last
	// system are torn down again.
	var sys system
	var src opSource
	var cfg phaseCfg
	var setupErr error
	setup, setupRaw := repeated(wx, w.requests, setupReps, func() (time.Duration, error) {
		if sys != nil {
			sys.kill()
			sys.remove()
		}
		t0 := time.Now()
		sys, src, cfg, setupErr = w.build(seed, o)
		return time.Since(t0), setupErr
	}, func(error) {})
	if setupErr != nil {
		return nil, fmt.Errorf("%s: setup: %w", w.Name, setupErr)
	}
	defer sys.remove()

	runtime.GC()
	cfg.maxWall = time.Duration(3 * o.Seconds * float64(time.Second))
	h0 := sys.repairCounts().handoffs
	ph := runPhase(sys, src, cfg, nil, wx)
	if ph.cutAt > 0 {
		res.notef("PHASE CUT after %d of %d calls: it ran past %v; counts are not comparable with a full run", ph.cutAt, cfg.calls, cfg.maxWall)
	}
	h1 := sys.repairCounts().handoffs
	res.Attempted, res.Failed = ph.attempted, ph.failed

	pqos, err := sys.verify(src)
	res.Attempted++
	if err != nil {
		fail(err)
	}
	heap := heapMiB()
	res.notef("%s", sys.note())

	sys.kill()
	recov, recovRaw := repeated(wx, general, recoverReps, func() (time.Duration, error) {
		res.Attempted++
		return sys.recoverOnce(src)
	}, fail)

	// Per segment: the machine speed measured while it ran, its rate and
	// its median write latency; the run reports the median segment.
	n := ph.seg.full()
	rates := ph.seg.rates()
	wp50, _, _ := chunkMedians(ph.writes[:n*ph.seg.per], n)
	factors := make([]float64, n)
	for i := range factors {
		factors[i] = wx.factor(w.requests, ph.seg.from[i], ph.seg.to[i])
		rates[i] /= factors[i]
		wp50[i] *= factors[i]
	}
	rraw, lo, hi := chunkMedians(ph.reads, numSegments)
	rp50 := make([]float64, len(rraw))
	for i := range rraw {
		rp50[i] = rraw[i] * wx.factor(w.requests, ph.readAt[lo[i]], ph.readAt[hi[i]])
	}
	sp50 := make([]float64, len(ph.solves))
	for i, v := range ph.solves {
		sp50[i] = float64(v) * wx.factor(general, ph.solveAt[i], ph.solveAt[i]+float64(v)/1e9)
	}

	res.set("setup_s", setup, "s")
	res.set("throughput_ops_s", median(rates), "1/s")
	res.set("write_p50_ms", median(wp50)/nsPerMs, "ms")
	res.set("read_p50_ms", median(rp50)/nsPerMs, "ms")
	res.set("solve_p50_ms", median(sp50)/nsPerMs, "ms")
	res.set("recover_s", recov, "s")
	res.set("pqos", pqos, "fraction")
	res.set("handoffs_per_kop", 1000*float64(h1-h0)/float64(ph.mutations), "count")
	res.set("live_heap_mb", heap, "MB")

	ws, rs, ss := ph.writes.sortedCopy(), ph.reads.sortedCopy(), ph.solves.sortedCopy()
	wn, wv := highestPercentile(ws)
	rn, rv := highestPercentile(rs)
	res.notef("measured phase %.1f s wall: %d writes (%d mutations), %d reads, %d full solves, population %d",
		ph.wall.Seconds(), len(ws), ph.mutations, len(rs), len(ss), src.population())
	res.notef("machine speed during the phase: median factor %.3f (%.3f–%.3f over the segments); 1 = the reference box when quiet; kernel medians:%s",
		median(slices.Clone(factors)), slices.Min(factors), slices.Max(factors), wx.medians())
	res.notef("as measured, before scaling to reference speed: setup %.4f s, throughput %.0f 1/s, write p50 %.4f ms, read p50 %.4f ms, solve p50 %.3f ms, recover %.4f s",
		setupRaw, median(ph.seg.rates()), percentile(ws, 0.5)/nsPerMs, percentile(rs, 0.5)/nsPerMs, percentile(ss, 0.5)/nsPerMs, recovRaw)
	res.notef("write %s %.3f ms, read %s %.3f ms as measured (tails are not gated: they spread ~20 %% run to run)",
		wn, wv/nsPerMs, rn, rv/nsPerMs)
	res.notef("ops_attempted %d ops_failed %d zone_handoffs %d", res.Attempted, res.Failed, h1-h0)
	return res, nil
}
