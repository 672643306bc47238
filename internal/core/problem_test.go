package core

import (
	"math"
	"strings"
	"testing"

	"dvecap/internal/xrand"
)

func TestProblemValidateAcceptsTiny(t *testing.T) {
	if err := tinyProblem().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestProblemValidateCatchesCorruption(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(p *Problem)
		wantSub string
	}{
		{"no servers", func(p *Problem) { p.ServerCaps = nil }, "no servers"},
		{"no zones", func(p *Problem) { p.NumZones = 0 }, "zones"},
		{"bad bound", func(p *Problem) { p.D = 0 }, "delay bound"},
		{"NaN bound", func(p *Problem) { p.D = math.NaN() }, "delay bound"},
		{"infinite bound", func(p *Problem) { p.D = math.Inf(1) }, "delay bound"},
		{"bad capacity", func(p *Problem) { p.ServerCaps[1] = -5 }, "capacity"},
		{"infinite capacity", func(p *Problem) { p.ServerCaps[1] = math.Inf(1) }, "capacity"},
		{"bad zone index", func(p *Problem) { p.ClientZones[0] = 9 }, "zone"},
		{"zero RT", func(p *Problem) { p.ClientRT[2] = 0 }, "RT"},
		{"infinite RT", func(p *Problem) { p.ClientRT[2] = math.Inf(1) }, "RT"},
		{"ragged CS", func(p *Problem) { p.CS[1] = p.CS[1][:1] }, "CS row"},
		{"negative CS", func(p *Problem) { p.CS[0][1] = -1 }, "CS[0][1]"},
		{"ragged SS", func(p *Problem) { p.SS[0] = p.SS[0][:1] }, "SS row"},
		{"SS diagonal", func(p *Problem) { p.SS[1][1] = 3 }, "diagonal"},
		{"infinite SS", func(p *Problem) { p.SS[0][1] = math.Inf(1) }, "SS[0][1]"},
		{"RT length", func(p *Problem) { p.ClientRT = p.ClientRT[:1] }, "RT entries"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := tinyProblem()
			tc.corrupt(p)
			err := p.Validate()
			if err == nil {
				t.Fatalf("corruption %q not caught", tc.name)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

func TestZoneClientsAndRT(t *testing.T) {
	p := tinyProblem()
	zc := p.ZoneClients()
	if len(zc) != 2 || len(zc[0]) != 2 || len(zc[1]) != 1 {
		t.Fatalf("ZoneClients = %v", zc)
	}
	rt := p.ZoneRT()
	if rt[0] != 2 || rt[1] != 1 {
		t.Fatalf("ZoneRT = %v", rt)
	}
	if p.TotalCapacity() != 20 {
		t.Fatalf("TotalCapacity = %v", p.TotalCapacity())
	}
}

func TestProblemCloneIsDeep(t *testing.T) {
	p := tinyProblem()
	q := p.Clone()
	q.SetCSAt(0, 0, 999)
	q.SS[0][1] = 999
	q.ServerCaps[0] = 999
	q.ClientZones[0] = 1
	if p.CS[0][0] == 999 || p.SS[0][1] == 999 || p.ServerCaps[0] == 999 || p.ClientZones[0] == 1 {
		t.Fatal("Clone aliases parent storage")
	}
	if q.CSAt(0, 0) != 999 || q.CSAt(0, 1) != 300 || q.CSAt(2, 1) != 50 {
		t.Fatal("Clone did not load the raw rows into its store")
	}
}

// TestCopyCSRowFillsDst: a store may answer Row with an internal slice and
// leave the buffer alone (the exact store does); CopyCSRow must fill dst
// regardless — partial delay refreshes overlay onto that copy.
func TestCopyCSRowFillsDst(t *testing.T) {
	raw := tinyProblem()
	for _, p := range []*Problem{raw, providerProblem(raw, ProviderCoord), raw.Clone()} {
		dst := make([]float64, p.NumServers())
		for j := range raw.CS {
			p.CopyCSRow(j, dst)
			for i, want := range raw.CS[j] {
				if dst[i] != want {
					t.Fatalf("provider %T: CopyCSRow(%d)[%d] = %v, want %v", p.Delays, j, i, dst[i], want)
				}
			}
		}
	}
}

func TestRandomProblemsValid(t *testing.T) {
	rng := xrand.New(99)
	for i := 0; i < 50; i++ {
		if err := randomProblem(rng.Split(), i%2 == 0).Validate(); err != nil {
			t.Fatalf("random problem %d invalid: %v", i, err)
		}
	}
}
