package repair

import (
	"testing"

	"dvecap/internal/xrand"
	"dvecap/telemetry"
)

// TestResolveKeepsRowsWarm: a full re-solve adopts its assignment instead
// of rebinding, so the first event in a zone that kept its host folds the
// maintained row (a hit), while one in a rehosted zone rebuilds it (a
// refresh) — and the planner's handoff count and LastAdoption come from
// what the adoption walked.
func TestResolveKeepsRowsWarm(t *testing.T) {
	rng := xrand.New(47)
	p := randProblem(rng.Split(), 1500)
	for p.NumZones < 6 || p.NumServers() < 3 {
		p = randProblem(rng.Split(), 1500)
	}
	cfg := testConfig()
	cfg.StickyBonus = 3 // most zones keep their host across a re-solve
	pl, err := New(cfg, p, rng.Split())
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	pl.SetTelemetry(reg)
	counter := func(name string) uint64 { return reg.Counter(name, "").Value() }
	m, n := pl.NumServers(), p.NumZones

	sawKept, sawRehosted := false, false
	for round := 0; round < 8 && !(sawKept && sawRehosted); round++ {
		// Churn warms every zone's row and moves the population enough for
		// the re-solve to rehost something.
		for e := 0; e < 15*n; e++ {
			if _, err := pl.Join(rng.IntN(n), rng.Uniform(0.05, 0.3), randRow(rng, m)); err != nil {
				t.Fatal(err)
			}
		}
		for z := 0; z < n; z++ {
			pl.Evaluator().BestZoneHost(z)
		}
		hosts, handoffs := pl.ZoneServers(), pl.Stats().ZoneHandoffs
		keptBefore := counter("dvecap_cache_rows_kept_total")
		if err := pl.FullSolve(); err != nil {
			t.Fatal(err)
		}
		ad := pl.LastAdoption()
		rehosted := 0
		for z, s := range hosts {
			if pl.ZoneHost(z) != s {
				rehosted++
			}
		}
		if ad.Rehosted != rehosted || pl.Stats().ZoneHandoffs != handoffs+rehosted || ad.RowsKept != n-rehosted {
			t.Fatalf("round %d: %d zones rehosted; adoption %+v, handoffs %d -> %d", round, rehosted, ad, handoffs, pl.Stats().ZoneHandoffs)
		}
		if got := counter("dvecap_cache_rows_kept_total") - keptBefore; got != uint64(ad.RowsKept) {
			t.Fatalf("round %d: rows_kept counter moved by %d, adoption kept %d", round, got, ad.RowsKept)
		}
		checkPlanner(t, pl)
		for z, s := range hosts {
			kept := pl.ZoneHost(z) == s
			hits, refreshes := counter("dvecap_cache_row_hits_total"), counter("dvecap_cache_row_refreshes_total")
			if _, err := pl.Join(z, 0.1, randRow(rng, m)); err != nil {
				t.Fatal(err)
			}
			dh, dr := counter("dvecap_cache_row_hits_total")-hits, counter("dvecap_cache_row_refreshes_total")-refreshes
			if kept && (dh != 1 || dr != 0) || !kept && (dh != 0 || dr != 1) {
				t.Fatalf("round %d zone %d (kept its host: %v): first event after the re-solve counted %d hits, %d refreshes", round, z, kept, dh, dr)
			}
			sawKept, sawRehosted = sawKept || kept, sawRehosted || !kept
		}
	}
	if !sawKept || !sawRehosted {
		t.Fatalf("kept zone seen: %v, rehosted zone seen: %v — a leg is untested", sawKept, sawRehosted)
	}
}
