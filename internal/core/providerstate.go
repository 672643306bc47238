package core

import (
	"errors"
	"fmt"
)

// Provider kinds, the discriminator of ProviderState. These strings are
// part of the durable snapshot format — never renumber or rename.
const (
	ProviderCoord     = "coord"
	ProviderSharedRow = "shared"
)

// ProviderState is a serializable snapshot of a DelayProvider's complete
// internal state, written into durable-session snapshots so recovery
// restores not just the delays a provider would report but the exact
// internal representation — override maps, coordinates, group tables,
// free lists — making every post-recovery mutation bit-identical to the
// uncrashed trajectory (DESIGN.md §13).
type ProviderState struct {
	Kind   string          `json:"kind"`
	Coord  *CoordState     `json:"coord,omitempty"`
	Shared *SharedRowState `json:"shared,omitempty"`
}

// ErrDenseProviderState refuses a provider state of kind "dense": the
// format reserved that kind for a provider wrapping plain rows, but no build
// ever wrote it — dense delays are snapshotted as per-client rows — and the
// provider is gone.
var ErrDenseProviderState = errors.New("core: delay-provider kind \"dense\" is not supported (dense delays are stored as per-client rows)")

// CoordState snapshots a CoordProvider.
type CoordState struct {
	Dim   int         `json:"dim"`
	Srv   []float64   `json:"srv"`
	Cli   []float64   `json:"cli"`
	OvSrv [][]int32   `json:"ov_srv"`
	OvVal [][]float64 `json:"ov_val"`
}

// SharedRowState snapshots a SharedRowProvider, including the group table
// and the LIFO free list (group-id allocation order is part of the
// deterministic-replay contract).
type SharedRowState struct {
	Servers int         `json:"servers"`
	Group   []int32     `json:"group"`
	Rows    [][]float64 `json:"rows"`
	Refs    []int32     `json:"refs"`
	Free    []int32     `json:"free"`
}

// NewProviderFromState reconstructs the provider a State() call snapshot.
// The round trip is exact: the restored provider's every read and every
// future mutation is bit-identical to the original's.
func NewProviderFromState(st *ProviderState) (DelayProvider, error) {
	if st == nil {
		return nil, fmt.Errorf("core: nil provider state")
	}
	switch st.Kind {
	case "dense":
		return nil, ErrDenseProviderState
	case ProviderCoord:
		c := st.Coord
		if c == nil {
			return nil, fmt.Errorf("core: coord provider state missing payload")
		}
		if c.Dim <= 0 || c.Dim > 16 {
			return nil, fmt.Errorf("core: coord provider dim %d outside (0,16]", c.Dim)
		}
		if len(c.Srv)%c.Dim != 0 || len(c.Cli)%c.Dim != 0 {
			return nil, fmt.Errorf("core: coord provider coordinate arrays not a multiple of dim %d", c.Dim)
		}
		k := len(c.Cli) / c.Dim
		if len(c.OvSrv) != k || len(c.OvVal) != k {
			return nil, fmt.Errorf("core: coord provider has %d clients but %d/%d override lists", k, len(c.OvSrv), len(c.OvVal))
		}
		cp := &CoordProvider{
			dim:   c.Dim,
			srv:   append([]float64(nil), c.Srv...),
			cli:   append([]float64(nil), c.Cli...),
			ovSrv: make([][]int32, k),
			ovVal: make([][]float64, k),
		}
		m := int32(cp.NumServers())
		for j := 0; j < k; j++ {
			if len(c.OvSrv[j]) != len(c.OvVal[j]) {
				return nil, fmt.Errorf("core: coord provider client %d override lists disagree", j)
			}
			for x, s := range c.OvSrv[j] {
				if s < 0 || s >= m {
					return nil, fmt.Errorf("core: coord provider client %d override server %d outside [0,%d)", j, s, m)
				}
				if x > 0 && c.OvSrv[j][x-1] >= s {
					return nil, fmt.Errorf("core: coord provider client %d overrides not strictly ascending", j)
				}
			}
			cp.ovSrv[j] = append([]int32(nil), c.OvSrv[j]...)
			cp.ovVal[j] = append([]float64(nil), c.OvVal[j]...)
		}
		return cp, nil
	case ProviderSharedRow:
		s := st.Shared
		if s == nil {
			return nil, fmt.Errorf("core: shared-row provider state missing payload")
		}
		if len(s.Rows) != len(s.Refs) {
			return nil, fmt.Errorf("core: shared-row provider has %d rows but %d refcounts", len(s.Rows), len(s.Refs))
		}
		sp := &SharedRowProvider{
			servers: s.Servers,
			group:   append([]int32(nil), s.Group...),
			refs:    append([]int32(nil), s.Refs...),
			free:    append([]int32(nil), s.Free...),
			rows:    make([][]float64, len(s.Rows)),
		}
		for g, r := range s.Rows {
			if s.Refs[g] > 0 && len(r) != s.Servers {
				return nil, fmt.Errorf("core: shared-row provider group %d has %d entries, want %d", g, len(r), s.Servers)
			}
			sp.rows[g] = append([]float64(nil), r...)
		}
		for j, g := range sp.group {
			if int(g) >= len(sp.rows) || g < 0 || sp.refs[g] <= 0 {
				return nil, fmt.Errorf("core: shared-row provider client %d in dead group %d", j, g)
			}
		}
		sp.rebuildIndex()
		return sp, nil
	}
	return nil, fmt.Errorf("core: unknown delay-provider kind %q", st.Kind)
}
