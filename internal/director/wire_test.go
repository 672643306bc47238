package director

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// wireSeeds are FuzzWire's seed inputs per route: the canonical bodies the
// Go binding writes and near misses of each.
var wireSeeds = [4][]string{
	{ // POST /v1/clients
		`{"id":"c000001","node":3,"zone":"7"}`, `{"id":"","node":0,"zone":"z2"}`, `{"id":"a b","node":-4,"zone":"z99"}`,
		`{"id":"c1","node":3,"zone":"7"} `, `{"id":"c1","node":3,"zone":"7"}x`, `{"id":"c1","node":03,"zone":"7"}`,
		`{"id":"c1","node":3.0,"zone":"7"}`, `{"id":"c1","node":1e1,"zone":"7"}`, `{"id":"c1","node":"3","zone":"7"}`,
		`{"id":"c1","node":999999999999999999,"zone":"7"}`, `{"id":"c1","node":9999999999999999999,"zone":"7"}`,
		`{"id":"c\"1","node":3,"zone":"7"}`, `{"id":"c1","node":3,"zone":"7"}`, "{\"id\":\"c\xff\",\"node\":3,\"zone\":\"7\"}",
		`{"id":"c1","node":3,"zone":7}`, `{"id":"c1","node":null,"zone":"7"}`, `{"node":3,"zone":"7"}`, `{"id":"c1","id":"c2","node":3,"zone":"7"}`,
	},
	{ // POST /v1/clients/{id}/move
		`{"zone":"z3"}`, `{"zone":"3"}`, `{"zone":""}`, `{"zone":"-1"}`, `{"zone":"z3"}` + "\n", `{"zone":"z3"}}`,
		`{"zone":3}`, `{"zone":null}`, `{"Zone":"z3"}`, `{"zone":"z3","zone":"z4"}`, `{"zone":"z3"}`, ` {"zone":"z3"}`,
	},
	{ // POST /v1/clients/{id}/delays
		`{"rtts_ms":[10,20.5,30,40]}`, `{"rtts_ms":[1e-7,1e21,-0,5e-324]}`, `{"rtts_ms":null}`, `{"rtts_ms":[]}`,
		`{"rtts_ms":[10,null,30]}`, `{"rtts_ms":[1e999]}`, `{"rtts_ms":[10,"x"]}`, `{"rtts_ms":"x"}`, `{"rtts_ms":[[1]]}`,
		`{"rtts_ms":[10,20]}}`, `{"rtts_ms":[10,20]}x`, `{"rtts_ms":[10,20]} {}`, `{"rtts_ms":[10,20],"x":1}`, `{"rtts_ms":[10,20] }`, `{"rtts_ms":[10,20]`, `{"rtts_ms":[01]}`,
	},
	{ // a ClientInfo response
		`{"id":"c1","node":12,"zone":1,"contact":1,"target":1,"delay_ms":159.07207930720688,"qos":true,"zone_id":"z1","contact_id":"s1","target_id":"s1"}` + "\n",
		`{"id":"c1","node":-12,"zone":0,"contact":3,"target":2,"delay_ms":1e-7,"qos":false,"zone_id":"z0","contact_id":"s3","target_id":"s2"}` + "\n",
		`{"id":"c1","node":12,"zone":1,"contact":1,"target":1,"delay_ms":1e999,"qos":true,"zone_id":"z1","contact_id":"s1","target_id":"s1"}` + "\n",
		`{"id":"c1","node":12,"zone":1,"contact":1,"target":1,"delay_ms":-0,"qos":true,"zone_id":"z1","contact_id":"s1","target_id":"s1"} {}`,
		`{"id":"c1","node":12,"zone":1,"contact":1,"target":1,"delay_ms":1.,"qos":true,"zone_id":"z1","contact_id":"s1","target_id":"s1"}`,
		`{"id":"c1","node":12,"zone":1,"contact":1,"target":1,"delay_ms":2,"qos":tru,"zone_id":"z1","contact_id":"s1","target_id":"s1"}`,
		`{"error":"director: unknown client"}` + "\n",
	},
}

// FuzzWire: on arbitrary bytes, each one-pass reader — the three request
// bodies of the client resource and a ClientInfo response — declines and
// leaves its target as it was, or yields what the strict decoder yields
// from the same bytes (bit for bit), and the strict decoder accepts them.
// So a handler answers every body as decodeJSON alone would.
func FuzzWire(f *testing.F) {
	for route, seeds := range wireSeeds {
		for _, s := range seeds {
			f.Add(byte(route), []byte(s))
		}
	}
	f.Fuzz(func(t *testing.T, route byte, body []byte) {
		switch route % 4 {
		case 0:
			checkWireRead(t, body, readJoin, func(a, b *joinRequest) bool { return reflect.DeepEqual(a, b) })
		case 1:
			checkWireRead(t, body, readMove, func(a, b *moveRequest) bool { return *a == *b })
		case 2:
			checkWireRead(t, body, readDelays, func(a, b *delaysRequest) bool { return sameBits(a.RTTsMs, b.RTTsMs) })
		case 3:
			var fast, strict ClientInfo
			if !readClientInfo(body, &fast) {
				if fast != (ClientInfo{}) {
					t.Fatalf("declined %q but wrote %+v", body, fast)
				}
				return
			}
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&strict); err != nil {
				t.Fatalf("read %q as %+v; encoding/json refuses it: %v", body, fast, err)
			}
			if !sameInfo(fast, strict) {
				t.Fatalf("read %q as %+v; encoding/json reads %+v", body, fast, strict)
			}
		}
	})
}

func checkWireRead[T any](t *testing.T, body []byte, read func([]byte, *T) bool, same func(a, b *T) bool) {
	t.Helper()
	var fast, zero, strict T
	if !read(body, &fast) {
		if !reflect.DeepEqual(fast, zero) {
			t.Fatalf("declined %q but wrote %+v", body, fast)
		}
		return
	}
	if rec := httptest.NewRecorder(); !decodeJSON(rec, bytes.NewReader(body), &strict) {
		t.Fatalf("read %q as %+v; the strict decoder refuses it: %s", body, fast, rec.Body)
	}
	if !same(&fast, &strict) {
		t.Fatalf("read %q as %+v; the strict decoder reads %+v", body, fast, strict)
	}
}

// sameBits reports whether two rows are the same value: both nil or both
// not, bit-equal entries (so -0 and 0 differ).
func sameBits(a, b []float64) bool {
	return (a == nil) == (b == nil) && slices.EqualFunc(a, b, func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y)
	})
}

func sameInfo(a, b ClientInfo) bool {
	da, db := a.DelayMs, b.DelayMs
	a.DelayMs, b.DelayMs = 0, 0
	return a == b && math.Float64bits(da) == math.Float64bits(db)
}

// TestClientInfoWire: over random ClientInfo values — IDs with <>&, U+2028,
// invalid UTF-8 and control bytes, and DelayMs at the format's switch
// points, at -0, subnormal, non-finite and at random bit patterns — a
// ClientInfo route writes exactly what json.NewEncoder writes, and the
// Go binding's one-pass reader reads every response the encoder wrote
// itself back to the same value.
func TestClientInfoWire(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 50))
	strs := []string{"", "c000001", "z3", "s12", "guild/7", "a b", "<b>", "a<b", "a>b", "x&y", "q\"uote", `back\slash`,
		"line\u2028sep", "café", "bad\xffutf8", "ctl\x01", "tab\t", "del\x7f", "~!#$%'()*+,-./:;=?@[]^_`{|}"}
	delays := []float64{0, math.Copysign(0, -1), 1e-7, -1e-7, 1e-6, 9.99999e-7, 1e21, 9.99999e20, 1e20, 5e-324,
		math.SmallestNonzeroFloat64 * 3, 2.2250738585072014e-308 / 2, math.MaxFloat64, 123.456, 159.07207930720688,
		1e-9, 1.5e-10, 1e100, 250, math.Inf(1), math.Inf(-1), math.NaN()}
	pick := func() string { return strs[rng.IntN(len(strs))] }
	fast := 0
	for i := 0; i < 20000; i++ {
		in := ClientInfo{
			ID: pick(), Node: rng.IntN(2000) - 1000, Zone: rng.IntN(400), Contact: rng.IntN(40), Target: rng.IntN(40),
			DelayMs: math.Float64frombits(rng.Uint64()), QoS: rng.IntN(2) == 0,
			ZoneID: pick(), ContactID: pick(), TargetID: pick(),
		}
		if i%2 == 0 {
			in.DelayMs = delays[rng.IntN(len(delays))]
		}
		if i%3 == 0 {
			in.ID, in.ZoneID, in.ContactID, in.TargetID = "c"+strconv.Itoa(i), "z1", "s2", "s3"
		}
		var want bytes.Buffer
		wantErr := json.NewEncoder(&want).Encode(in)
		rec := httptest.NewRecorder()
		replyClient(rec, http.StatusOK, in, nil)
		if rec.Body.String() != want.String() {
			t.Fatalf("%+v: wrote %q, encoding/json writes %q", in, rec.Body, want.String())
		}
		b, ok := appendClientInfo(nil, &in)
		if !ok {
			continue
		}
		fast++
		var back ClientInfo
		if wantErr != nil || !readClientInfo(b, &back) || !sameInfo(back, in) {
			t.Fatalf("%+v: wrote %q (encoding/json: %v), read back %+v", in, b, wantErr, back)
		}
	}
	if fast < 5000 {
		t.Fatalf("only %d of 20000 values took the one-pass encoder", fast)
	}
}

// TestRefDecodesLikeEncodingJSON pins what Ref.UnmarshalJSON makes of each
// kind of "zone" value — the Ref, the error encoding/json's string and int
// decoding words, and the move route's status — so a decoder that reads the
// literal itself must answer the same.
func TestRefDecodesLikeEncodingJSON(t *testing.T) {
	for _, tc := range []struct {
		lit    string
		want   Ref
		err    string
		status int
	}{
		{`"z1"`, ID("z1"), "", http.StatusOK},
		{`"z\u0031"`, ID("z1"), "", http.StatusOK},
		{`"\u0033"`, Index(3), "", http.StatusOK},
		{"\"z\xff\"", ID("z\ufffd"), "", http.StatusBadRequest},
		{`"z\ud800"`, ID("z\ufffd"), "", http.StatusBadRequest},
		{`"café"`, ID("café"), "", http.StatusBadRequest},
		{`4`, Index(4), "", http.StatusOK},
		{`-0`, Index(0), "", http.StatusOK},
		{`-1`, Index(-1), "", http.StatusBadRequest},
		{`8`, Index(8), "", http.StatusBadRequest},
		{`99999999999999999999`, Index(0), "json: cannot unmarshal number 99999999999999999999 into Go struct field .zone of type int", http.StatusBadRequest},
		{`1.5`, Index(0), "json: cannot unmarshal number 1.5 into Go struct field .zone of type int", http.StatusBadRequest},
		{`1e2`, Index(0), "json: cannot unmarshal number 1e2 into Go struct field .zone of type int", http.StatusBadRequest},
		{`true`, Index(0), "json: cannot unmarshal bool into Go struct field .zone of type int", http.StatusBadRequest},
		{`{"a":1}`, Index(0), "json: cannot unmarshal object into Go struct field .zone of type int", http.StatusBadRequest},
		{`[1]`, Index(0), "json: cannot unmarshal array into Go struct field .zone of type int", http.StatusBadRequest},
		{`null`, Ref{}, "", http.StatusBadRequest},
	} {
		body := `{"zone":` + tc.lit + `}`
		var req moveRequest
		err := json.Unmarshal([]byte(body), &req)
		if req.Zone != tc.want || (err == nil) != (tc.err == "") || (err != nil && err.Error() != tc.err) {
			t.Errorf("%s: %+v, %v; want %+v, %q", body, req.Zone, err, tc.want, tc.err)
		}
		d := testDirector(t)
		if _, err := d.Join("alice", 12, 2); err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		Handler(d).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/clients/alice/move", strings.NewReader(body)))
		if rec.Code != tc.status {
			t.Errorf("POST move %s: %d %s, want %d", body, rec.Code, rec.Body, tc.status)
		}
	}
}

// TestMoveRoundTripAllocs pins the allocations of one move through Handler,
// request and recorder included: the body is read and the ClientInfo
// written in one pass (wire.go).
func TestMoveRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the wire buffers' sync.Pool drops items at random under -race")
	}
	d := testDirector(t)
	if _, err := d.Join("alice", 12, 2); err != nil {
		t.Fatal(err)
	}
	h := Handler(d)
	bodies := []string{`{"zone":"z3"}`, `{"zone":"z2"}`}
	i := 0
	move := func() {
		i++
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/clients/alice/move", strings.NewReader(bodies[i%2])))
		if rec.Code != http.StatusOK {
			t.Fatalf("move: %d %s", rec.Code, rec.Body)
		}
	}
	for range 8 {
		move()
	}
	const pin = 25
	if n := testing.AllocsPerRun(200, move); n > pin {
		t.Errorf("a move round trip allocates %v objects, want at most %d", n, pin)
	}
}

// BenchmarkClientMove times one director.Client.Move round trip over a
// loopback httptest.Server: the binding's body, the handler's read, the
// move itself, the ClientInfo written and read back.
func BenchmarkClientMove(b *testing.B) {
	d := testDirector(b)
	if _, err := d.Join("alice", 12, 2); err != nil {
		b.Fatal(err)
	}
	srv := httptest.NewServer(Handler(d))
	defer srv.Close()
	c := &Client{BaseURL: srv.URL, HTTPClient: srv.Client()}
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		i++
		if _, err := c.Move("alice", 2+i%2); err != nil {
			b.Fatal(err)
		}
	}
}
