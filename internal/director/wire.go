package director

// The client resource's wire codec (DESIGN.md §7 "What a request costs on
// the wire"): join, move and delay bodies and the ClientInfo they answer
// with, read and written in one pass when canonical — fields in the Go
// binding's order, no space inside, nothing to escape — exactly as
// encoding/json would; everything else goes to encoding/json as before.

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
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

// plain reports whether encoding/json writes s unescaped: no byte below
// 0x20 or from 0x80 up (invalid UTF-8, U+2028), none of " \ < > &.
func plain[S string | []byte](s S) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || strings.IndexByte(`"\<>&`, c) >= 0 {
			return false
		}
	}
	return true
}

// appendString appends s as a JSON string: as is when plain, else as
// encoding/json quotes it.
func appendString(b []byte, s string) []byte {
	if plain(s) {
		return append(append(append(b, '"'), s...), '"')
	}
	q, _ := json.Marshal(s) // a string always marshals
	return append(b, q...)
}

// appendClientInfo appends in as json.NewEncoder(w).Encode(in) writes it,
// newline included, and reports whether it could: a string that is not
// plain, or a DelayMs that is not finite, is encoding/json's to write.
func appendClientInfo(b []byte, in *ClientInfo) ([]byte, bool) {
	if !plain(in.ID) || !plain(in.ZoneID) || !plain(in.ContactID) || !plain(in.TargetID) ||
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

// wireReader reads a canonical body: each step consumes what it expects
// or clears ok, after which no step consumes anything.
type wireReader struct {
	b  []byte
	ok bool
}

// key consumes the literal s that comes before a value.
func (r *wireReader) key(s string) *wireReader {
	if r.ok = r.ok && bytes.HasPrefix(r.b, []byte(s)); r.ok {
		r.b = r.b[len(s):]
	}
	return r
}

// str consumes a plain string.
func (r *wireReader) str() string {
	end := bytes.IndexByte(r.b[min(1, len(r.b)):], '"') + 1
	if r.ok = r.ok && end > 0 && r.b[0] == '"' && plain(r.b[1:end]); !r.ok {
		return ""
	}
	s := string(r.b[1:end])
	r.b = r.b[end+1:]
	return s
}

// number consumes a number that encoding/json's scanner accepts.
func (r *wireReader) number() []byte {
	i := 0
	for i < len(r.b) && strings.IndexByte("+-.0123456789Ee", r.b[i]) >= 0 {
		i++
	}
	text := r.b[:i]
	if r.ok = r.ok && json.Valid(text); r.ok {
		r.b = r.b[i:]
	}
	return text
}

// int consumes an integer short enough that no int overflows.
func (r *wireReader) int() (n int) {
	text := r.number()
	digits := bytes.TrimPrefix(text, []byte("-"))
	r.ok = r.ok && len(digits) < strconv.IntSize*3/10 && !bytes.ContainsAny(digits, ".Ee")
	for _, c := range digits {
		n = 10*n + int(c-'0')
	}
	if len(digits) < len(text) {
		return -n
	}
	return n
}

// end consumes the closing s and reports whether only space follows.
func (r *wireReader) end(s string) bool {
	return r.key(s).ok && len(bytes.TrimLeft(r.b, " \t\r\n")) == 0
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
	r := wireReader{b, true}
	id := r.key(`{"id":`).str()
	node := r.key(`,"node":`).int()
	zone := r.key(`,"zone":`).str()
	if !r.end("}") {
		return false
	}
	*req = joinRequest{ID: id, Node: &node, Zone: ParseRef(zone)}
	return true
}

// readMove reads {"zone":"…"}.
func readMove(b []byte, req *moveRequest) bool {
	r := wireReader{b, true}
	zone := r.key(`{"zone":`).str()
	if !r.end("}") {
		return false
	}
	req.Zone = ParseRef(zone)
	return true
}

// readDelays reads {"rtts_ms":[…]}, the row up to the last '}' taken whole
// by core.FloatRow, which decodes a row as encoding/json decodes a []float64.
func readDelays(b []byte, req *delaysRequest) bool {
	r := wireReader{b, true}
	k := bytes.LastIndexByte(r.key(`{"rtts_ms":`).b, '}')
	var row core.FloatRow
	if !r.ok || k < 0 || len(bytes.TrimLeft(r.b[k+1:], " \t\r\n")) > 0 || row.UnmarshalJSON(r.b[:k]) != nil {
		return false
	}
	req.RTTsMs = row
	return true
}

// readClientInfo reads what appendClientInfo writes.
func readClientInfo(b []byte, out *ClientInfo) bool {
	var in ClientInfo
	r := wireReader{b, true}
	in.ID = r.key(`{"id":`).str()
	in.Node = r.key(`,"node":`).int()
	in.Zone = r.key(`,"zone":`).int()
	in.Contact = r.key(`,"contact":`).int()
	in.Target = r.key(`,"target":`).int()
	delay := r.key(`,"delay_ms":`).number()
	in.QoS = bytes.HasPrefix(r.key(`,"qos":`).b, []byte("true"))
	r.key(strconv.FormatBool(in.QoS))
	in.ZoneID = r.key(`,"zone_id":`).str()
	in.ContactID = r.key(`,"contact_id":`).str()
	in.TargetID = r.key(`,"target_id":`).str()
	var err error
	if !r.end("}") {
		return false
	} else if in.DelayMs, err = strconv.ParseFloat(string(delay), 64); err != nil {
		return false // out of range: encoding/json refuses it too
	}
	*out = in
	return true
}
