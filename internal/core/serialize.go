package core

import (
	"encoding/json"
	"fmt"
	"io"

	"dvecap/internal/interact"
)

// problemJSON is the interchange form of a Problem. Field names are stable;
// the format is the contract between cmd/capassign runs and any external
// tooling that wants to feed real measurements into the solver.
type problemJSON struct {
	ServerCaps  []float64   `json:"server_caps_mbps"`
	ClientZones []int       `json:"client_zones"`
	NumZones    int         `json:"num_zones"`
	ClientRT    []float64   `json:"client_rt_mbps"`
	CS          [][]float64 `json:"client_server_rtt_ms"`
	SS          [][]float64 `json:"server_server_rtt_ms"`
	D           float64     `json:"delay_bound_ms"`
	// ZoneAdjacency is the interaction graph's canonical edge list (a < b,
	// sorted) and TrafficWeight its objective weight (DESIGN.md §15); both
	// absent for problems without the traffic term.
	ZoneAdjacency []interact.Edge `json:"zone_adjacency,omitempty"`
	TrafficWeight float64         `json:"traffic_weight,omitempty"`
}

// WriteJSON serialises the problem. Provider-backed problems are
// materialised to the dense interchange form — the format carries the full
// client×server matrix, so round-tripping a sparse provider through JSON
// preserves its observable delays but not its compressed representation.
func (p *Problem) WriteJSON(w io.Writer) error {
	pj := problemJSON{
		ServerCaps:  p.ServerCaps,
		ClientZones: p.ClientZones,
		NumZones:    p.NumZones,
		ClientRT:    p.ClientRT,
		CS:          p.DenseRows(),
		SS:          p.SS,
		D:           p.D,

		TrafficWeight: p.TrafficWeight,
	}
	if p.Adjacency != nil {
		pj.ZoneAdjacency = p.Adjacency.Edges()
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(pj)
}

// ReadProblemJSON deserialises and validates a problem.
func ReadProblemJSON(r io.Reader) (*Problem, error) {
	var pj problemJSON
	if err := json.NewDecoder(r).Decode(&pj); err != nil {
		return nil, fmt.Errorf("core: decoding problem: %w", err)
	}
	p := &Problem{
		ServerCaps:  pj.ServerCaps,
		ClientZones: pj.ClientZones,
		NumZones:    pj.NumZones,
		ClientRT:    pj.ClientRT,
		CS:          pj.CS,
		SS:          pj.SS,
		D:           pj.D,

		TrafficWeight: pj.TrafficWeight,
	}
	if len(pj.ZoneAdjacency) > 0 {
		g, err := interact.FromState(&interact.State{NumZones: pj.NumZones, Edges: pj.ZoneAdjacency})
		if err != nil {
			return nil, fmt.Errorf("core: invalid zone adjacency: %w", err)
		}
		p.Adjacency = g
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid problem: %w", err)
	}
	return p, nil
}

// assignmentJSON is the interchange form of an Assignment plus its
// evaluation, so a reader needs no solver to interpret the outcome.
type assignmentJSON struct {
	Algorithm     string    `json:"algorithm,omitempty"`
	ZoneServer    []int     `json:"zone_server"`
	ClientContact []int     `json:"client_contact"`
	PQoS          float64   `json:"pqos"`
	Utilization   float64   `json:"utilization"`
	WithQoS       int       `json:"with_qos"`
	Delays        []float64 `json:"delays_ms,omitempty"`
}

// WriteAssignmentJSON serialises an assignment together with its metrics
// under p.
func WriteAssignmentJSON(w io.Writer, p *Problem, a *Assignment, algorithm string, includeDelays bool) error {
	if err := a.Validate(p); err != nil {
		return err
	}
	m := Evaluate(p, a)
	out := assignmentJSON{
		Algorithm:     algorithm,
		ZoneServer:    a.ZoneServer,
		ClientContact: a.ClientContact,
		PQoS:          m.PQoS,
		Utilization:   m.Utilization,
		WithQoS:       m.WithQoS,
	}
	if includeDelays {
		out.Delays = m.Delays
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}

// ReadAssignmentJSON deserialises an assignment and validates it against p.
// The stored metrics are ignored (they are advisory); callers re-evaluate.
func ReadAssignmentJSON(r io.Reader, p *Problem) (*Assignment, error) {
	var aj assignmentJSON
	if err := json.NewDecoder(r).Decode(&aj); err != nil {
		return nil, fmt.Errorf("core: decoding assignment: %w", err)
	}
	a := &Assignment{ZoneServer: aj.ZoneServer, ClientContact: aj.ClientContact}
	if err := a.Validate(p); err != nil {
		return nil, fmt.Errorf("core: invalid assignment: %w", err)
	}
	return a, nil
}
