package topology

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadJSON: arbitrary bytes must never panic the JSON topology reader,
// and anything accepted must validate.
func FuzzReadJSON(f *testing.F) {
	var buf bytes.Buffer
	if err := USBackbone().WriteJSON(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add(`{"nodes":[],"edges":[]}`)
	f.Add(`{"nodes":[{"id":0,"x":1,"y":2,"as":0}],"edges":[]}`)
	f.Add(`garbage`)
	f.Add(`{"nodes":[{"id":0}],"edges":[{"a":0,"b":0,"delay":-1}]}`)
	f.Fuzz(func(t *testing.T, s string) {
		g, err := ReadJSON(strings.NewReader(s))
		if err != nil {
			return
		}
		if verr := g.Validate(); verr != nil {
			t.Fatalf("ReadJSON accepted invalid graph: %v", verr)
		}
	})
}
