package dvecap

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

const specJSON = `{
  "delay_bound_ms": 100,
  "servers": [
    {"id": "fra", "capacity_mbps": 100, "rtts_ms": {"nyc": 80}},
    {"id": "nyc", "capacity_mbps": 100}
  ],
  "zones": ["plaza", "forest"],
  "clients": [
    {"id": "alice", "zone": "plaza", "bandwidth_mbps": 2, "rtts_ms": {"fra": 20, "nyc": 95}},
    {"id": "bruno", "zone": "plaza", "bandwidth_mbps": 2, "rtts_ms": {"fra": 30, "nyc": 90}},
    {"id": "chloe", "zone": "forest", "bandwidth_mbps": 2, "rtt_row_ms": [95, 15]},
    {"id": "diego", "zone": "forest", "bandwidth_mbps": 2, "rtt_row_ms": [90, 25]}
  ]
}`

// TestReadClusterJSON checks the spec maps onto the exact builder calls:
// the loaded cluster must solve identically to the hand-built one.
func TestReadClusterJSON(t *testing.T) {
	c, err := ReadClusterJSON(strings.NewReader(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Solve("GreZ-GreC", WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	want, err := smallCluster(t).Solve("GreZ-GreC", WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "json vs builder", got, want)
	for i, id := range want.ClientIDs {
		if got.ClientIDs[i] != id {
			t.Fatalf("client %d named %q, want %q", i, got.ClientIDs[i], id)
		}
	}
}

// fullMatrixSpecJSON is specJSON with the inter-server RTTs given as one
// matrix instead of per pair.
func fullMatrixSpecJSON() string {
	spec := strings.Replace(specJSON,
		`{"id": "fra", "capacity_mbps": 100, "rtts_ms": {"nyc": 80}},`,
		`{"id": "fra", "capacity_mbps": 100},`, 1)
	return strings.Replace(spec, `"zones":`,
		`"server_rtts_ms": [[0, 80], [80, 0]],
  "zones":`, 1)
}

func TestReadClusterJSONFullMatrix(t *testing.T) {
	c, err := ReadClusterJSON(strings.NewReader(fullMatrixSpecJSON()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Solve("GreZ-GreC", WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	want, err := smallCluster(t).Solve("GreZ-GreC", WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "matrix vs pairwise", got, want)
}

func TestReadClusterJSONErrors(t *testing.T) {
	for name, spec := range invalidSpecs() {
		t.Run(name, func(t *testing.T) {
			if _, err := ReadClusterJSON(strings.NewReader(spec)); err == nil {
				t.Fatalf("invalid spec accepted")
			}
		})
	}
}

// invalidSpecs are specJSON variants the reader must refuse, by what is
// wrong with them.
func invalidSpecs() map[string]string {
	return map[string]string{
		"malformed":        `{`,
		"missing pair":     strings.Replace(specJSON, `, "rtts_ms": {"nyc": 80}`, ``, 1),
		"unknown zone":     strings.Replace(specJSON, `"zone": "plaza"`, `"zone": "atlantis"`, 1),
		"zero capacity":    strings.Replace(specJSON, `"capacity_mbps": 100,`, `"capacity_mbps": 0,`, 1),
		"duplicate server": strings.Replace(specJSON, `"id": "nyc"`, `"id": "fra"`, 1),
		"duplicate client": strings.Replace(specJSON, `"id": "bruno"`, `"id": "alice"`, 1),
		"short rtt row":    strings.Replace(specJSON, `[95, 15]`, `[95]`, 1),
		"uncovered client": strings.Replace(specJSON, `{"fra": 20, "nyc": 95}`, `{"fra": 20}`, 1),
		"both rtt forms": strings.Replace(specJSON,
			`"rtt_row_ms": [95, 15]`, `"rtt_row_ms": [95, 15], "rtts_ms": {"fra": 95, "nyc": 15}`, 1),
	}
}

// TestWriteClusterJSONRoundTrip proves export ∘ import is the identity on
// the validated instance: re-reading a written spec yields the same IDs
// and a bit-identical core problem, and even a second write round-trips
// byte-identically (the export is already in normalized form).
func TestWriteClusterJSONRoundTrip(t *testing.T) {
	orig, err := ReadClusterJSON(strings.NewReader(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.WriteClusterJSON(&buf); err != nil {
		t.Fatal(err)
	}
	reread, err := ReadClusterJSON(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("re-reading written spec: %v\n%s", err, buf.String())
	}
	if !reflect.DeepEqual(reread.ServerIDs(), orig.ServerIDs()) ||
		!reflect.DeepEqual(reread.ZoneIDs(), orig.ZoneIDs()) ||
		!reflect.DeepEqual(reread.ClientIDs(), orig.ClientIDs()) {
		t.Fatal("IDs changed across the round trip")
	}
	po, err := orig.problem()
	if err != nil {
		t.Fatal(err)
	}
	pr, err := reread.problem()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(po, pr) {
		t.Fatal("problem changed across the round trip")
	}
	var buf2 bytes.Buffer
	if err := reread.WriteClusterJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("second write is not byte-identical (export not normalized)")
	}
}

// FuzzReadClusterJSON: the cluster spec is the one instance format, read
// from files, from GET /v1/problem bodies and, through snapshots, from
// disk. Arbitrary bytes must never panic the reader; every accepted spec
// must write, the written spec must re-read and write again to the same
// bytes, and the spec must solve under GreZ-GreC.
func FuzzReadClusterJSON(f *testing.F) {
	for _, spec := range []string{specJSON, fullMatrixSpecJSON(), trafficSpecJSON, `{}`, `garbage`} {
		f.Add(spec)
	}
	for _, spec := range invalidSpecs() {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, s string) {
		c, err := ReadClusterJSON(strings.NewReader(s))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := c.WriteClusterJSON(&first); err != nil {
			t.Fatalf("accepted spec does not write: %v", err)
		}
		reread, err := ReadClusterJSON(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("written spec does not re-read: %v\n%s", err, first.Bytes())
		}
		if err := reread.WriteClusterJSON(&second); err != nil || !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("second write differs (err %v):\n%s\nvs\n%s", err, first.Bytes(), second.Bytes())
		}
		res, err := c.Solve("GreZ-GreC", WithSeed(1))
		if err != nil {
			t.Fatalf("accepted spec does not solve: %v", err)
		}
		if res.PQoS < 0 || res.PQoS > 1 {
			t.Fatalf("pQoS %v outside [0,1]", res.PQoS)
		}
	})
}
