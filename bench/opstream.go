package bench

import "strconv"

// OpKind names one mutating call at a workload's surface.
type OpKind uint8

const (
	OpJoin OpKind = iota
	OpLeave
	OpMove
	OpDelay
	// OpTick is hotspot_moves' bundle: one MoveBatch plus the adjacency
	// feedback of its crossings, one JoinBatch, one LeaveBatch and a few
	// delay-row refreshes (fields Moves, Joins, Leaves, Delays).
	OpTick
	OpDrain
	OpUncordon
)

func (k OpKind) String() string {
	return [...]string{"join", "leave", "move", "delay", "tick", "drain", "uncordon"}[k]
}

// Member is one client of a batch: its number and destination zone.
type Member struct {
	Client, Zone int32
}

// Op is one element of a workload's operation stream. Slice fields are
// owned by the generator and valid until its next call.
type Op struct {
	Kind   OpKind
	Client int32 // client number; clientID renders the wire ID
	Zone   int32 // destination zone (join, move)
	Node   int32 // topology node (join)
	Server int32 // drain, uncordon
	// Row is the refreshed delay row (delay) or the joining client's
	// measured row (session joins), one entry per server.
	Row []float64
	// Tick payload.
	Moves  []Member
	Joins  []Member
	Leaves []int32
	Delays []int32
	Pairs  []Pair // zone pairs the tick's moves crossed
}

// Mutations is the number of client-level mutations the op carries: a
// batch counts its clients, a topology verb counts one.
func (o *Op) Mutations() int {
	if o.Kind == OpTick {
		return len(o.Moves) + len(o.Joins) + len(o.Leaves) + len(o.Delays)
	}
	return 1
}

// opSource produces a workload's operation stream: a pure function of the
// seed it was built from. It also is the load generator's model — after the
// last op, zoneOf tells where every client it ever named must be.
type opSource interface {
	// next fills op with the next operation.
	next(op *Op)
	// population is the number of live clients after the ops produced so far.
	population() int
	// zoneOf returns the zone the client is in, or -1 when it has left.
	zoneOf(client int32) int32
	// clients is one past the highest client number named so far.
	clients() int32
}

// clientID renders a client number as the ID used on every surface.
func clientID(n int32) string {
	var buf [8]byte
	s := strconv.AppendInt(buf[:0], int64(n), 10)
	id := []byte("u0000000")
	copy(id[len(id)-len(s):], s)
	return string(id)
}
