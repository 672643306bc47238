package topology

import (
	"container/heap"
	"math"
	"runtime"
	"sync"
)

// ShortestFrom computes single-source shortest path delays from src using
// Dijkstra's algorithm with a binary heap. Unreachable nodes get +Inf.
func (g *Graph) ShortestFrom(src int) []float64 {
	g.buildAdj()
	n := g.N()
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	pq := &distHeap{items: []distItem{{node: src, d: 0}}}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(distItem)
		if it.d > dist[it.node] {
			continue // stale entry
		}
		for _, h := range g.adj[it.node] {
			if nd := it.d + h.w; nd < dist[h.to] {
				dist[h.to] = nd
				heap.Push(pq, distItem{node: h.to, d: nd})
			}
		}
	}
	return dist
}

// AllPairsShortest computes the full n×n one-way delay matrix by running
// Dijkstra from every source in parallel across GOMAXPROCS workers. The
// result is row-major: row s holds delays from source s.
func (g *Graph) AllPairsShortest() [][]float64 {
	g.buildAdj()
	n := g.N()
	out := make([][]float64, n)
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	var next int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				src := next
				next++
				mu.Unlock()
				if src >= n {
					return
				}
				out[src] = g.ShortestFrom(src)
			}
		}()
	}
	wg.Wait()
	return out
}

type distItem struct {
	node int
	d    float64
}

type distHeap struct{ items []distItem }

func (h *distHeap) Len() int           { return len(h.items) }
func (h *distHeap) Less(i, j int) bool { return h.items[i].d < h.items[j].d }
func (h *distHeap) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *distHeap) Push(x interface{}) { h.items = append(h.items, x.(distItem)) }
func (h *distHeap) Pop() interface{} {
	old := h.items
	n := len(old)
	it := old[n-1]
	h.items = old[:n-1]
	return it
}
