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
		{"bad zone index", func(p *Problem) { p.ClientZones[0] = 9 }, "zone"},
		{"zero RT", func(p *Problem) { p.ClientRT[2] = 0 }, "RT"},
		{"ragged CS", func(p *Problem) { p.CS[1] = p.CS[1][:1] }, "CS row"},
		{"negative CS", func(p *Problem) { p.CS[0][1] = -1 }, "CS[0][1]"},
		{"ragged SS", func(p *Problem) { p.SS[0] = p.SS[0][:1] }, "SS row"},
		{"SS diagonal", func(p *Problem) { p.SS[1][1] = 3 }, "diagonal"},
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
	q.CS[0][0] = 999
	q.SS[0][1] = 999
	q.ServerCaps[0] = 999
	q.ClientZones[0] = 1
	if p.CS[0][0] == 999 || p.SS[0][1] == 999 || p.ServerCaps[0] == 999 || p.ClientZones[0] == 1 {
		t.Fatal("Clone aliases parent storage")
	}
}

func TestWithDelaysOwnedTransfersOwnership(t *testing.T) {
	p := tinyProblem()
	cs := [][]float64{{1, 2}, {3, 4}, {5, 6}}
	ss := [][]float64{{0, 1}, {1, 0}}
	q := p.WithDelaysOwned(cs, ss)
	if &q.CS[0][0] != &cs[0][0] || &q.SS[0][0] != &ss[0][0] {
		t.Fatal("WithDelaysOwned did not take the provided matrices")
	}
	if q.D != p.D || q.NumZones != p.NumZones {
		t.Fatal("WithDelaysOwned changed unrelated fields")
	}
}

func TestWithDelaysDropsProvider(t *testing.T) {
	p := providerProblem(tinyProblem(), ProviderSharedRow)
	cs := [][]float64{{1, 2}, {3, 4}, {5, 6}}
	ss := [][]float64{{0, 1}, {1, 0}}
	q := p.WithDelaysOwned(cs, ss)
	if q.Delays != nil {
		t.Fatal("WithDelaysOwned kept the stale provider alongside new dense CS")
	}
	if q.CS[0][0] != 1 {
		t.Fatalf("WithDelaysOwned CS = %v", q.CS[0][0])
	}
}

// TestCopyCSRowFillsDst: a provider may answer Row with an internal slice
// and leave the buffer alone (the shared-row provider does); CopyCSRow must
// fill dst regardless — partial delay refreshes overlay onto that copy.
func TestCopyCSRowFillsDst(t *testing.T) {
	raw := tinyProblem()
	for _, p := range []*Problem{raw, providerProblem(raw, ProviderCoord), providerProblem(raw, ProviderSharedRow)} {
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
