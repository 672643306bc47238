package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sort"
	"time"
)

// weather measures how fast the machine is right now, with a fixed
// reference kernel that shares no code with the program under test: only
// the Go runtime and standard library, which do not change between two
// commits of this repository.
//
// Why it exists. On the two shared cores this benchmark runs on, the same
// binary runs up to 1.5× slower for minutes at a time (README.md, "Noise"):
// the slowdown sits in memory latency, allocation, system calls and
// goroutine wake-ups, not in arithmetic,
// and no length of phase averages it away because it outlasts the run.
// Every timed metric is therefore reported at reference speed: the time as
// measured, multiplied by the machine's speed factor over the same stretch
// of the run. The kernel is sampled two hundred times through a measured
// phase and three times before and after every repeated single shot.
//
// The kernel has three parts, each a probe of one thing the slow spells
// slow down, and a metric is scaled by a mix of them (see mix).
type weather struct {
	parts   [numParts]func()
	t0      time.Time
	at      [numParts][]float64 // seconds since t0 of each sample
	ns      [numParts][]float64 // the sample's duration
	closers []func()

	// state of the parts
	perm   []uint32
	pos    uint32
	m      map[uint64]uint64
	seq    uint64
	client *http.Client
	url    string
}

// The kernel's parts: three probes of what the slow spells slow down. A
// sample runs each and records its duration.
const (
	partMemory = iota // dependent loads through a 4 MiB permutation: memory latency
	partAlloc         // JSON encode/decode and map churn: allocator and garbage collector
	partHTTP          // HTTP round trips with JSON bodies to a bench-owned handler: system calls and wake-ups
	numParts
)

var partNames = [numParts]string{"memory", "alloc", "http"}

// Work per sample, sized so each part takes a fraction of a millisecond.
const (
	memorySteps    = 3000
	allocDocs      = 30
	httpRoundTrips = 12
	// sampleEvery is the background sampler's period during single shots:
	// about 3 % of one core.
	sampleEvery = 50 * time.Millisecond
)

// mix is how strongly a metric follows each probe: the machine's speed
// factor for the metric is Π (nominal ÷ measured)^exponent over the parts.
type mix [numParts]float64

// The two mixes in use, chosen on two sets of forty runs an hour apart
// that recorded every probe — one set in a fast spell, one in a slow one
// (README.md, "Reference speed"). No single probe tracks every workload;
// their geometric mean (exponents 1/3) tracks the three in-memory
// workloads within a few percent across both spells. Requests that wait
// for the journal slow down 1.2× as much as the probes do — a regression
// over the segments of both sets puts the exponents' sum at 1.2–1.4 — so
// they are scaled with exponents 0.4. An fsync probe was tried and dropped:
// next to the other three it explained nothing more.
var (
	general = mix{1.0 / 3, 1.0 / 3, 1.0 / 3}
	journal = mix{0.4, 0.4, 0.4}
)

// weatherNominal is each part's duration in nanoseconds on the reference
// box (2 shared cores) in a quiet half hour. The constants only set the
// scale: a machine that is uniformly slower reports uniformly larger
// numbers.
var weatherNominal = [numParts]float64{
	partMemory: 0.44e6,
	partAlloc:  0.15e6,
	partHTTP:   0.65e6,
}

// weatherDoc is the JSON body the kernel encodes and decodes: about the
// size of a director request or response.
type weatherDoc struct {
	ID    string    `json:"id"`
	Zone  int       `json:"zone"`
	Delay float64   `json:"delay_ms"`
	Row   []float64 `json:"row"`
}

// newWeather starts a recorder with all three probes.
func newWeather() (*weather, error) {
	w := &weather{t0: time.Now()}
	w.addMemory()
	w.addAlloc()
	if err := w.addHTTP(); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *weather) close() {
	for _, c := range w.closers {
		c()
	}
}

// addMemory walks a 4 MiB single-cycle permutation: one dependent cache
// miss a step.
func (w *weather) addMemory() {
	w.perm = make([]uint32, 1<<20)
	for i := range w.perm {
		w.perm[i] = uint32(i)
	}
	x := uint64(1)
	for i := len(w.perm) - 1; i > 0; i-- { // Sattolo: one cycle through every entry
		x = mix64(x)
		j := int(x % uint64(i))
		w.perm[i], w.perm[j] = w.perm[j], w.perm[i]
	}
	w.parts[partMemory] = func() {
		p := w.pos
		for i := 0; i < memorySteps; i++ {
			p = w.perm[p]
		}
		w.pos = p
	}
}

// addAlloc encodes and decodes small JSON documents and churns a map.
func (w *weather) addAlloc() {
	w.m = map[uint64]uint64{}
	doc := weatherDoc{ID: "u0000001", Zone: 7, Delay: 123.456, Row: []float64{1.5, 2.5, 3.5, 4.5, 5.5, 6.5, 7.5, 8.5}}
	w.parts[partAlloc] = func() {
		for i := 0; i < allocDocs; i++ {
			b, _ := json.Marshal(&doc) // a struct of plain fields cannot fail to encode
			var d weatherDoc
			_ = json.Unmarshal(b, &d) // nor its own encoding to decode
			w.seq++
			w.m[w.seq] = uint64(len(b) + d.Zone)
		}
		clear(w.m)
	}
}

// addHTTP serves a trivial JSON handler on its own loopback listener and
// calls it over one connection: net/http's client and server, the network
// poller and the scheduler, with none of the repository's code.
func (w *weather) addHTTP() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		var d weatherDoc
		if err := json.NewDecoder(r.Body).Decode(&d); err != nil {
			http.Error(rw, err.Error(), http.StatusBadRequest)
			return
		}
		d.Zone++
		rw.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(rw).Encode(&d) // the client notices a short reply
	})}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	w.client = &http.Client{Transport: tr}
	w.url = "http://" + ln.Addr().String() + "/"
	w.closers = append(w.closers, func() {
		_ = srv.Close() // Serve's error arrives on served
		<-served
		tr.CloseIdleConnections()
	})
	body, err := json.Marshal(weatherDoc{ID: "u0000001", Zone: 7, Delay: 123.456, Row: []float64{1.5, 2.5, 3.5, 4.5}})
	if err != nil {
		return err
	}
	w.parts[partHTTP] = func() {
		for i := 0; i < httpRoundTrips; i++ {
			resp, err := w.client.Post(w.url, "application/json", bytes.NewReader(body))
			if err != nil {
				continue // a failed round trip only makes this sample short
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
	return nil
}

// sample runs every part once and records the durations.
func (w *weather) sample() {
	for part, run := range w.parts {
		t0 := time.Now()
		run()
		w.record(part, t0, time.Since(t0))
	}
}

// during runs f with a background sampler: the kernel every sampleEvery,
// so a single shot that lasts seconds is matched with the weather it ran
// in, not only with the weather just before and after it. The sampler is
// the only one touching the recorder while f runs, and has stopped when
// during returns.
func (w *weather) during(f func()) {
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(sampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				w.sample()
			}
		}
	}()
	f()
	close(stop)
	<-done
}

// record stores one sample of a part that started at t0.
func (w *weather) record(part int, t0 time.Time, d time.Duration) {
	w.at[part] = append(w.at[part], t0.Sub(w.t0).Seconds())
	w.ns[part] = append(w.ns[part], float64(d.Nanoseconds()))
}

// now is the weather clock: seconds since the recorder started.
func (w *weather) now() float64 { return time.Since(w.t0).Seconds() }

// factor is the machine's speed over [from, to] (weather-clock seconds)
// relative to the reference box, as the mix sees it. Each probe is
// measured as the median of its samples in that window, widened to the
// nearest samples on each side so that it always holds at least four.
func (w *weather) factor(m mix, from, to float64) float64 {
	f := 1.0
	for part, exponent := range m {
		at := w.at[part]
		if exponent == 0 || len(at) == 0 {
			continue
		}
		lo := sort.SearchFloat64s(at, from)
		hi := sort.SearchFloat64s(at, to)
		for hi-lo < 4 && (lo > 0 || hi < len(at)) {
			if lo > 0 {
				lo--
			}
			if hi < len(at) {
				hi++
			}
		}
		measured := median(append([]float64(nil), w.ns[part][lo:hi]...))
		f *= math.Pow(weatherNominal[part]/measured, exponent)
	}
	return f
}

// medians describes the run's weather: each sampled part's median duration.
func (w *weather) medians() string {
	var b bytes.Buffer
	for part, name := range partNames {
		if len(w.ns[part]) > 0 {
			fmt.Fprintf(&b, " %s %.3f ms", name, median(append([]float64(nil), w.ns[part]...))/nsPerMs)
		}
	}
	return b.String()
}
