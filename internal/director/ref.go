package director

// Stable-ID addressing (DESIGN.md §10). The director names its servers
// ("s0"…) and zones ("z0"…) in the machine's ID binding; the names survive
// the swap-remove renumbering a removal causes, the dense indices do not.

import (
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
)

// Ref addresses a server or a zone: ID("s3") by its stable name, Index(3) by
// its CURRENT dense index — the deprecated alias kept for one release, which
// renumbers when a server or zone is removed. In a URL path segment or a
// JSON field a purely numeric value is the index form, anything else the ID
// form; IDs are therefore never purely numeric.
type Ref struct {
	id  string
	idx int
}

// ID addresses by stable name.
func ID(id string) Ref { return Ref{id: id} }

// Index addresses by current dense index.
func Index(i int) Ref { return Ref{idx: i} }

// ParseRef reads the textual form: purely numeric is Index, the rest ID.
func ParseRef(s string) Ref {
	if i, err := strconv.Atoi(s); err == nil {
		return Index(i)
	}
	return ID(s)
}

func (r Ref) String() string {
	if r.id != "" {
		return r.id
	}
	return strconv.Itoa(r.idx)
}

// UnmarshalJSON accepts a string (ParseRef) or an integer (Index); the Go
// binding sends the String form.
func (r *Ref) UnmarshalJSON(b []byte) error {
	var s string
	if len(b) > 0 && b[0] == '"' {
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		*r = ParseRef(s)
		return nil
	}
	return json.Unmarshal(b, &r.idx)
}

// resolve turns r into a dense index below n; lookup resolves the ID form,
// unknown is the sentinel an out-of-range index wraps.
func (r Ref) resolve(n int, lookup func(string) (int, error), unknown error) (int, error) {
	if r.id != "" {
		return lookup(r.id)
	}
	if r.idx < 0 || r.idx >= n {
		return 0, fmt.Errorf("%w: index %d outside [0,%d)", unknown, r.idx, n)
	}
	return r.idx, nil
}

// serverIndex and zoneIndex resolve a Ref against the live topology. The
// caller holds wmu or mu. Errors wrap ErrUnknownServer / ErrUnknownZone.
func (d *Director) serverIndex(r Ref) (int, error) {
	return r.resolve(d.planner().NumServers(), d.m.Binding().ServerIndex, ErrUnknownServer)
}

func (d *Director) zoneIndex(r Ref) (int, error) {
	return r.resolve(d.planner().NumZones(), d.m.Binding().ZoneIndex, ErrUnknownZone)
}

// names issues the IDs of a director's initial servers and zones.
func names(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = prefix + strconv.Itoa(i)
	}
	return out
}

// freshName picks the ID of an added server or zone: prefix + the lowest
// number, starting at the current count, that is not taken — a function of
// the live names alone, so a recovered director issues the same IDs as one
// that never stopped.
func freshName(prefix string, taken []string) string {
	for n := len(taken); ; n++ {
		if id := prefix + strconv.Itoa(n); !slices.Contains(taken, id) {
			return id
		}
	}
}
