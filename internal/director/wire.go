package director

// The client resource's wire codec (DESIGN.md §7 "What a request costs on
// the wire"): join, move and delay bodies and the ClientInfo they answer
// with, read and written in one pass when canonical — fields in the Go
// binding's order, no space inside, nothing to escape — exactly as
// encoding/json would; everything else goes to encoding/json as before.

import (
	"bytes"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"

	"dvecap/internal/core"
)

// wireBufs holds the buffers a body is read into or a response rendered in.
var wireBufs = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// readWire reads src into buf's capacity until src ends (io.EOF), buf is
// full (nil) or src fails.
func readWire(src io.Reader, buf []byte) (b []byte, err error) {
	b, n := buf[:cap(buf)], 0
	for n < len(b) && err == nil {
		var k int
		k, err = src.Read(b[n:])
		n += k
	}
	return b[:n], err
}

// replay reads what src yields from its start: readWire's b, then the rest
// of src or the error it failed with.
func replay(b []byte, err error, src io.Reader) io.Reader {
	if err == io.EOF {
		return bytes.NewReader(b)
	} else if err != nil {
		src = failedReader{err}
	}
	return io.MultiReader(bytes.NewReader(b), src)
}

type failedReader struct{ err error }

func (f failedReader) Read([]byte) (int, error) { return 0, f.err }

// decodeBody decodes a request body into v as decodeJSON does: in one pass
// when it fits a wire buffer and read (which leaves v be when it declines)
// accepts it, else by decodeJSON over the same bytes.
func decodeBody[T any](w http.ResponseWriter, r *http.Request, v *T, read func([]byte, *T) bool) bool {
	src := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if read == nil {
		return decodeJSON(w, src, v)
	}
	bp := wireBufs.Get().(*[]byte)
	defer wireBufs.Put(bp)
	b, err := readWire(src, *bp)
	if err == io.EOF && read(b, v) {
		return true
	}
	return decodeJSON(w, replay(b, err, src), v)
}

// replyClient is reply for a ClientInfo, by appendClientInfo or writeJSON.
func replyClient(w http.ResponseWriter, status int, info ClientInfo, err error) {
	if err != nil {
		writeOpErr(w, err, http.StatusBadRequest)
		return
	}
	bp := wireBufs.Get().(*[]byte)
	defer wireBufs.Put(bp)
	b, ok := appendClientInfo((*bp)[:0], &info)
	if !ok {
		writeJSON(w, status, info)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(b)
}

// appendClientInfo appends in as json.NewEncoder(w).Encode(in) writes it,
// newline included, and reports whether it could: a string that is not
// plain, or a DelayMs that is not finite, is encoding/json's to write.
func appendClientInfo(b []byte, in *ClientInfo) ([]byte, bool) {
	if !core.Plain(in.ID) || !core.Plain(in.ZoneID) || !core.Plain(in.ContactID) || !core.Plain(in.TargetID) ||
		math.IsInf(in.DelayMs, 0) || math.IsNaN(in.DelayMs) {
		return b, false
	}
	b = append(append(append(b, `{"id":"`...), in.ID...), `","node":`...)
	b = append(strconv.AppendInt(b, int64(in.Node), 10), `,"zone":`...)
	b = append(strconv.AppendInt(b, int64(in.Zone), 10), `,"contact":`...)
	b = append(strconv.AppendInt(b, int64(in.Contact), 10), `,"target":`...)
	b = append(strconv.AppendInt(b, int64(in.Target), 10), `,"delay_ms":`...)
	// encoding/json's float64: 'e' below 1e-6 and from 1e21 up, e-07 as e-7.
	format := byte('f')
	if abs := math.Abs(in.DelayMs); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, in.DelayMs, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	b = append(append(strconv.AppendBool(append(b, `,"qos":`...), in.QoS), `,"zone_id":"`...), in.ZoneID...)
	b = append(append(append(b, `","contact_id":"`...), in.ContactID...), `","target_id":"`...)
	return append(append(b, in.TargetID...), "\"}\n"...), true
}

// The client resource's request bodies: the handlers' unnamed struct types,
// so the strict decoder reads them and words its errors (".zone") as before.
type (
	joinRequest = struct {
		ID   string `json:"id"` // optional: the director names the client
		Node *int   `json:"node"`
		Zone Ref    `json:"zone"`
	}
	moveRequest = struct {
		Zone Ref `json:"zone"`
	}
	delaysRequest = struct {
		RTTsMs []float64 `json:"rtts_ms"`
	}
)

// readJoin reads {"id":"…","node":N,"zone":"…"}.
func readJoin(b []byte, req *joinRequest) bool {
	r := core.WireReader{Rest: b, OK: true}
	id := r.Key(`{"id":`).Str()
	node := r.Key(`,"node":`).Int()
	zone := r.Key(`,"zone":`).Str()
	if !r.End("}") {
		return false
	}
	*req = joinRequest{ID: id, Node: &node, Zone: ParseRef(zone)}
	return true
}

// readMove reads {"zone":"…"}.
func readMove(b []byte, req *moveRequest) bool {
	r := core.WireReader{Rest: b, OK: true}
	zone := r.Key(`{"zone":`).Str()
	if !r.End("}") {
		return false
	}
	req.Zone = ParseRef(zone)
	return true
}

// readDelays reads {"rtts_ms":[…]}, the row as core.FloatRow decodes it,
// which is as encoding/json decodes a []float64.
func readDelays(b []byte, req *delaysRequest) bool {
	r := core.WireReader{Rest: b, OK: true}
	row := r.Key(`{"rtts_ms":`).Row()
	if !r.End("}") {
		return false
	}
	req.RTTsMs = row
	return true
}

// readClientInfo reads what appendClientInfo writes.
func readClientInfo(b []byte, out *ClientInfo) bool {
	var in ClientInfo
	r := core.WireReader{Rest: b, OK: true}
	in.ID = r.Key(`{"id":`).Str()
	in.Node = r.Key(`,"node":`).Int()
	in.Zone = r.Key(`,"zone":`).Int()
	in.Contact = r.Key(`,"contact":`).Int()
	in.Target = r.Key(`,"target":`).Int()
	in.DelayMs = r.Key(`,"delay_ms":`).Float() // out of range: encoding/json refuses it too
	in.QoS = bytes.HasPrefix(r.Key(`,"qos":`).Rest, []byte("true"))
	r.Key(strconv.FormatBool(in.QoS))
	in.ZoneID = r.Key(`,"zone_id":`).Str()
	in.ContactID = r.Key(`,"contact_id":`).Str()
	in.TargetID = r.Key(`,"target_id":`).Str()
	if !r.End("}") {
		return false
	}
	*out = in
	return true
}
