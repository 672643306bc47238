package dvecap

import (
	"dvecap/internal/core"
)

// Result is the outcome of one assignment run.
type Result struct {
	// Algorithm is the algorithm that produced the assignment.
	Algorithm string
	// PQoS is the fraction of clients within the delay bound.
	PQoS float64
	// Utilization is consumed bandwidth over total capacity.
	Utilization float64
	// WithQoS is the absolute count of clients within the bound.
	WithQoS int
	// Clients is the total client count.
	Clients int
	// Delays holds each client's effective delay to its target (ms).
	Delays []float64
	// ZoneServer and ClientContact expose the raw assignment: the server
	// index hosting each zone, and each client's contact server index.
	ZoneServer    []int
	ClientContact []int
	// ClientIDs names the client behind each index of Delays and
	// ClientContact ("c0"… in world order on the Scenario paths). Zone and
	// server indices follow the cluster's ZoneIDs and ServerIDs order.
	ClientIDs []string
}

// newResult assembles the Result shared by every solve surface — Assign,
// AssignWithEstimationError, Cluster.Solve, and the session Result
// methods — from an evaluation against truth.
func newResult(algorithm string, truth *core.Problem, a *core.Assignment, m core.Metrics, ids []string) *Result {
	return &Result{
		Algorithm:     algorithm,
		PQoS:          m.PQoS,
		Utilization:   m.Utilization,
		WithQoS:       m.WithQoS,
		Clients:       truth.NumClients(),
		Delays:        m.Delays,
		ZoneServer:    a.ZoneServer,
		ClientContact: a.ClientContact,
		ClientIDs:     ids,
	}
}
