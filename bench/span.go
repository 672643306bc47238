package bench

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed interval at a layer boundary. Start and End are
// nanoseconds since the recorder was created; Parent is the index of the
// span that caused this one (-1 for a root); Op is the index of the
// operation in its stream, shared by every span of that operation.
type Span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int32  `json:"parent"`
	Op     int32  `json:"op"`
}

// recorder keeps spans in memory until the run ends. The writer, the
// reader and the HTTP server's goroutines record concurrently.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []Span
	// curWrite / curRead are the open loadgen spans of the writer's and the
	// reader's request in flight; the span transport stamps them onto the
	// request so the handler's span can name its parent.
	curWrite, curRead atomic.Int32
}

func newRecorder() *recorder {
	r := &recorder{t0: time.Now()}
	r.curWrite.Store(-1)
	r.curRead.Store(-1)
	return r
}

func (r *recorder) begin(name string, parent, op int32) int32 {
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	id := int32(len(r.spans))
	r.spans = append(r.spans, Span{Name: name, Start: now, End: -1, Parent: parent, Op: op})
	r.mu.Unlock()
	return id
}

func (r *recorder) end(id int32) {
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// opOf returns the operation index of span id (-1 for no span).
func (r *recorder) opOf(id int32) int32 {
	if id < 0 {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if int(id) >= len(r.spans) {
		return -1
	}
	return r.spans[id].Op
}

// snapshot returns a copy of the spans recorded from index `from` on, with
// Parent rebased to index into the copy (-1 for parents before `from`). A
// span still open is given zero length.
func (r *recorder) snapshot(from int) []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := append([]Span(nil), r.spans[from:]...)
	for i := range out {
		if out[i].End < 0 {
			out[i].End = out[i].Start
		}
		if out[i].Parent -= int32(from); out[i].Parent < 0 {
			out[i].Parent = -1
		}
	}
	return out
}

func (r *recorder) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// writeJSONL writes one span a line.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.snapshot(0) {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTime is one layer's share of a trace.
type selfTime struct {
	Count  int
	Total  int64 // summed span durations, ns
	SelfNs int64 // summed durations minus the part child spans cover, ns
	// OpSelfNs is SelfNs over the spans that belong to an operation of the
	// stream (Op ≥ 0): a reassign request or a read has a span but no Op.
	OpSelfNs int64
}

// selfTimes computes, per span name, the time spent in that layer itself:
// each span's duration minus the part of its interval its child spans
// cover. spans must be a slice whose Parent fields index into itself (or
// are -1 / out of range for roots).
func selfTimes(spans []Span) map[string]selfTime {
	covered := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent < 0 || int(s.Parent) >= len(spans) {
			continue
		}
		p := spans[s.Parent]
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			covered[s.Parent] += hi - lo
		}
	}
	out := map[string]selfTime{}
	for i, s := range spans {
		st := out[s.Name]
		st.Count++
		st.Total += s.End - s.Start
		st.SelfNs += s.End - s.Start - covered[i]
		if s.Op >= 0 {
			st.OpSelfNs += s.End - s.Start - covered[i]
		}
		out[s.Name] = st
	}
	return out
}

// spanHeader carries the client-side span of a request to the server, where
// the bench-owned middleware records the handler span as its child.
const spanHeader = "X-Capbench-Span"

// spanTransport stamps the open loadgen span onto each outgoing request.
type spanTransport struct {
	base http.RoundTripper
	cur  *atomic.Int32
}

func (t spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if id := t.cur.Load(); id >= 0 {
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, strconv.Itoa(int(id)))
	}
	return t.base.RoundTrip(req)
}

// middleware wraps director.Handler(d).ServeHTTP in a span: the handler
// boundary, measured from outside the director.
func (r *recorder) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		parent := int32(-1)
		if h := req.Header.Get(spanHeader); h != "" {
			if n, err := strconv.Atoi(h); err == nil {
				parent = int32(n)
			}
		}
		name := "director.handler.write"
		if req.Method == http.MethodGet {
			name = "director.handler.read"
		}
		id := r.begin(name, parent, r.opOf(parent))
		next.ServeHTTP(w, req)
		r.end(id)
	})
}

// hooks returns phase hooks that record one loadgen span per call.
func (r *recorder) hooks() *hooks {
	return &hooks{
		write: func(i int, _ *Op, do func() error) error {
			id := r.begin("loadgen.write", -1, int32(i))
			r.curWrite.Store(id)
			err := do()
			r.curWrite.Store(-1)
			r.end(id)
			return err
		},
		read: func(do func() error) error {
			id := r.begin("loadgen.read", -1, -1)
			r.curRead.Store(id)
			err := do()
			r.curRead.Store(-1)
			r.end(id)
			return err
		},
	}
}
