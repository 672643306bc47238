package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
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
	Dim   int       `json:"dim"`
	Srv   []float64 `json:"srv"`
	Cli   FloatRow  `json:"cli"`
	OvSrv [][]int32 `json:"ov_srv"`
	OvVal FloatRows `json:"ov_val"`
}

// SharedRowState snapshots a SharedRowProvider, including the group table
// and the LIFO free list (group-id allocation order is part of the
// deterministic-replay contract).
type SharedRowState struct {
	Servers int       `json:"servers"`
	Group   []int32   `json:"group"`
	Rows    FloatRows `json:"rows"`
	Refs    []int32   `json:"refs"`
	Free    []int32   `json:"free"`
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
		if err := s.check(); err != nil {
			return nil, err
		}
		sp := &SharedRowProvider{
			servers: s.Servers,
			group:   append([]int32(nil), s.Group...),
			refs:    append([]int32(nil), s.Refs...),
			free:    append([]int32(nil), s.Free...),
			stride:  s.Servers,
			chunks:  make([][]float64, (len(s.Rows)+chunkRows-1)/chunkRows),
			sums:    make([]uint64, len(s.Rows)),
			next:    make([]int32, len(s.Rows)),
			stale:   true,
		}
		for c := range sp.chunks {
			sp.chunks[c] = make([]float64, chunkRows*s.Servers)
		}
		for g, refs := range s.Refs {
			if refs > 0 {
				copy(sp.row(int32(g)), s.Rows[g])
				sp.sums[g] = hashRow(s.Rows[g])
			}
		}
		return sp, nil
	}
	return nil, fmt.Errorf("core: unknown delay-provider kind %q", st.Kind)
}

// check refuses a shared-row state the store could not have written —
// snapshots carry no checksum, and a refcount or free list at odds with the
// group table would let a later join overwrite a live row, or a leave keep
// a dead one or free a live one. Every client names a group, every
// refcount is its group's member count, every live row has one entry per
// server, none negative or NaN, and the free list names each dead group
// exactly once.
func (s *SharedRowState) check() error {
	if s.Servers < 0 || len(s.Rows) != len(s.Refs) {
		return fmt.Errorf("core: shared-row provider has %d servers, %d rows and %d refcounts", s.Servers, len(s.Rows), len(s.Refs))
	}
	members := make([]int32, len(s.Rows))
	for j, g := range s.Group {
		if g < 0 || int(g) >= len(s.Rows) {
			return fmt.Errorf("core: shared-row provider client %d in group %d outside [0,%d)", j, g, len(s.Rows))
		}
		members[g]++
	}
	dead := 0
	for g, refs := range s.Refs {
		switch {
		case refs != members[g]:
			return fmt.Errorf("core: shared-row provider group %d has refcount %d but %d members", g, refs, members[g])
		case refs == 0:
			dead++
		case len(s.Rows[g]) != s.Servers:
			return fmt.Errorf("core: shared-row provider group %d has %d entries, want %d", g, len(s.Rows[g]), s.Servers)
		case slices.ContainsFunc(s.Rows[g], func(d float64) bool { return d < 0 || math.IsNaN(d) }):
			return fmt.Errorf("core: shared-row provider group %d has a delay entry that is negative or NaN", g)
		}
	}
	freed := make([]bool, len(s.Rows))
	for _, g := range s.Free {
		if g < 0 || int(g) >= len(s.Rows) || s.Refs[g] > 0 || freed[g] {
			return fmt.Errorf("core: shared-row provider frees group %d: out of range, live or freed twice", g)
		}
		freed[g] = true
	}
	if len(s.Free) != dead {
		return fmt.Errorf("core: shared-row provider has %d dead groups but frees %d", dead, len(s.Free))
	}
	return nil
}
