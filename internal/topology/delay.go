package topology

import (
	"fmt"
	"math"
)

// DelayMatrix holds round-trip network delays, in milliseconds, between all
// node pairs of a topology, post-processed the way the paper's simulations
// post-process BRITE output:
//
//   - shortest-path delays are scaled so the maximum round-trip delay
//     between any two nodes equals MaxRTT (500 ms in the paper), and
//   - delays between two *servers* are discounted by ServerFactor (0.5 in
//     the paper, citing Lee/Ko/Calo) to model well-provisioned,
//     low-congestion inter-server connections.
//
// The matrix is symmetric with a zero diagonal. Client-server lookups use
// RTT; server-server lookups use ServerRTT.
type DelayMatrix struct {
	rtt          [][]float64
	MaxRTT       float64
	ServerFactor float64
}

// NewDelayMatrix computes the all-pairs round-trip delay matrix of g,
// scaled so the largest finite RTT equals maxRTT. serverFactor is the
// multiplier applied to inter-server delays (use 0.5 for the paper's
// well-provisioned mesh; 1.0 disables the discount). The graph must be
// non-empty and connected.
func NewDelayMatrix(g *Graph, maxRTT, serverFactor float64) (*DelayMatrix, error) {
	if g.N() == 0 {
		return nil, fmt.Errorf("topology: delay matrix of empty graph")
	}
	if maxRTT <= 0 {
		return nil, fmt.Errorf("topology: maxRTT = %v, want > 0", maxRTT)
	}
	if serverFactor <= 0 || serverFactor > 1 {
		return nil, fmt.Errorf("topology: serverFactor = %v, want (0,1]", serverFactor)
	}
	oneWay := g.AllPairsShortest()
	var maxD float64
	for _, row := range oneWay {
		for _, d := range row {
			if math.IsInf(d, 1) {
				return nil, fmt.Errorf("topology: graph is disconnected; delay matrix undefined")
			}
			if d > maxD {
				maxD = d
			}
		}
	}
	scale := 1.0
	if maxD > 0 {
		// RTT = 2 × one-way, so the scale maps 2·maxD onto maxRTT.
		scale = maxRTT / (2 * maxD)
	}
	n := g.N()
	rtt := make([][]float64, n)
	flat := make([]float64, n*n)
	for i := range rtt {
		rtt[i], flat = flat[:n], flat[n:]
		for j := 0; j < n; j++ {
			rtt[i][j] = 2 * oneWay[i][j] * scale
		}
	}
	return &DelayMatrix{rtt: rtt, MaxRTT: maxRTT, ServerFactor: serverFactor}, nil
}

// NewDelayMatrixFromRTT wraps a precomputed symmetric RTT matrix (ms).
func NewDelayMatrixFromRTT(rtt [][]float64, serverFactor float64) (*DelayMatrix, error) {
	n := len(rtt)
	var maxD float64
	for i, row := range rtt {
		if len(row) != n {
			return nil, fmt.Errorf("topology: RTT matrix row %d has length %d, want %d", i, len(row), n)
		}
		for j, d := range row {
			if d < 0 || math.IsNaN(d) {
				return nil, fmt.Errorf("topology: RTT[%d][%d] = %v invalid", i, j, d)
			}
			if i == j && d != 0 {
				return nil, fmt.Errorf("topology: RTT diagonal [%d] = %v, want 0", i, d)
			}
			if d > maxD {
				maxD = d
			}
		}
	}
	if serverFactor <= 0 || serverFactor > 1 {
		return nil, fmt.Errorf("topology: serverFactor = %v, want (0,1]", serverFactor)
	}
	return &DelayMatrix{rtt: rtt, MaxRTT: maxD, ServerFactor: serverFactor}, nil
}

// N returns the number of nodes covered by the matrix.
func (m *DelayMatrix) N() int { return len(m.rtt) }

// RTT returns the round-trip delay in ms between nodes u and v, e.g. a
// client's node and a server's node.
func (m *DelayMatrix) RTT(u, v int) float64 { return m.rtt[u][v] }

// ServerRTT returns the round-trip delay in ms between two *server* nodes,
// with the well-provisioned-interconnect discount applied.
func (m *DelayMatrix) ServerRTT(u, v int) float64 {
	if u == v {
		return 0
	}
	return m.rtt[u][v] * m.ServerFactor
}

// Clone returns a deep copy, so perturbation (estimation-error modelling)
// never aliases the ground-truth matrix.
func (m *DelayMatrix) Clone() *DelayMatrix {
	n := len(m.rtt)
	rtt := make([][]float64, n)
	flat := make([]float64, n*n)
	for i := range rtt {
		rtt[i], flat = flat[:n], flat[n:]
		copy(rtt[i], m.rtt[i])
	}
	return &DelayMatrix{rtt: rtt, MaxRTT: m.MaxRTT, ServerFactor: m.ServerFactor}
}
