// Package sim provides a deterministic discrete-event simulation engine and
// a DVE churn driver built on it. The engine schedules closures on a
// virtual clock; the driver turns a dve.World into a living system —
// Poisson client arrivals, exponential session lengths, zone migrations —
// with an assignment algorithm re-executed periodically from scratch, the
// mechanism the paper prescribes for coping with DVE dynamics (§3.4,
// Table 3). In repair mode the driver feeds every event to a repair.Planner
// instead, and the optional autoscale loop is what drains and uncordons
// servers through it.
package sim

import (
	"container/heap"
	"fmt"
)

// Engine is a discrete-event simulator. Events fire in (time, insertion)
// order, so identical schedules replay identically. The zero value is not
// usable; call NewEngine.
type Engine struct {
	now float64
	pq  eventHeap
	seq uint64
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Schedule enqueues fn to run after delay seconds (>= 0) of virtual time.
func (e *Engine) Schedule(delay float64, fn func()) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	e.ScheduleAt(e.now+delay, fn)
}

// ScheduleAt enqueues fn at absolute virtual time t (>= Now).
func (e *Engine) ScheduleAt(t float64, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", t, e.now))
	}
	e.seq++
	heap.Push(&e.pq, event{t: t, seq: e.seq, fn: fn})
}

// Step executes the next event, if any, advancing the clock to it.
func (e *Engine) Step() bool {
	if len(e.pq) == 0 {
		return false
	}
	ev := heap.Pop(&e.pq).(event)
	e.now = ev.t
	ev.fn()
	return true
}

// Run executes events until the clock would pass `until` or no events
// remain; it returns the number of events executed. Events scheduled
// exactly at `until` run.
func (e *Engine) Run(until float64) int {
	count := 0
	for len(e.pq) > 0 && e.pq[0].t <= until {
		e.Step()
		count++
	}
	if e.now < until {
		e.now = until
	}
	return count
}

type event struct {
	t   float64
	seq uint64
	fn  func()
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	ev := old[n-1]
	*h = old[:n-1]
	return ev
}
