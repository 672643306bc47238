package repair

import (
	"testing"

	"dvecap/internal/core"
	"dvecap/internal/xrand"
	"dvecap/telemetry"
)

// keepMostHosts is GreZ-GreC re-solving pl's problem with most zones left on
// their host, the case adoption is for: only the first moved zones a fresh
// GreZ would rehost move.
func keepMostHosts(pl *Planner, moved int) core.TwoPhase {
	algo := core.GreZGreC
	algo.Init = func(rng *xrand.RNG, p *core.Problem, opt core.Options) ([]int, error) {
		fresh, err := core.GreZ(rng, p, opt)
		if err != nil {
			return nil, err
		}
		hosts, left := pl.ZoneServers(), moved
		for z, s := range fresh {
			if s != hosts[z] && left > 0 {
				hosts[z], left = s, left-1
			}
		}
		return hosts, nil
	}
	return algo
}

// TestResolveKeepsRowsWarm: a full re-solve adopts its assignment instead
// of rebinding, so the first event in a zone that kept its host folds the
// maintained row (a hit), as does one in a rehosted zone whose row was
// rebased, while a rehosted zone that failed the cost rule rebuilds it (a
// refresh) — and the planner's handoff count and LastAdoption come from
// what the adoption walked. Two legs: random delays and a re-solve that
// moves two zones (keepMostHosts), where a rehosting changes the role of
// many clients and fails the rule; and a bound nobody misses, where every
// client stays direct and every rehosting — provoked by draining a server
// and re-solving once it is back — is rebased.
func TestResolveKeepsRowsWarm(t *testing.T) {
	for _, calm := range []bool{false, true} {
		rng := xrand.New(47)
		p := randProblem(rng.Split(), 1500)
		for p.NumZones < 6 || p.NumServers() < 3 {
			p = randProblem(rng.Split(), 1500)
		}
		if calm {
			p.D = 600
		}
		pl, err := New(testConfig(), p, rng.Split())
		if err != nil {
			t.Fatal(err)
		}
		if !calm {
			pl.cfg.Algo = keepMostHosts(pl, 2)
		}
		reg := telemetry.NewRegistry()
		pl.SetTelemetry(reg)
		counter := func(name string) uint64 { return reg.Counter(name, "").Value() }
		m, n := pl.NumServers(), p.NumZones

		sawKept, sawRebuilt, sawRebased := false, false, false
		done := func() bool { return calm && sawRebased || !calm && sawKept && sawRebuilt }
		for round := 0; round < 8 && !done(); round++ {
			// Churn warms every zone's row and moves the population enough for
			// the re-solve to rehost something.
			for e := 0; e < 15*n; e++ {
				if _, err := pl.Join(rng.IntN(n), rng.Uniform(0.05, 0.3), randRow(rng, m)); err != nil {
					t.Fatal(err)
				}
			}
			if calm {
				// Evacuate a hosting server and bring it back: the re-solve
				// returns its zones.
				i := pl.ZoneHost(rng.IntN(n))
				if err := pl.DrainServer(i); err != nil {
					t.Fatal(err)
				}
				if err := pl.UncordonServer(i); err != nil {
					t.Fatal(err)
				}
			}
			for z := 0; z < n; z++ {
				pl.Evaluator().BestZoneHost(z)
			}
			hosts, handoffs := pl.ZoneServers(), pl.Stats().ZoneHandoffs
			keptBefore, rebasedBefore := counter("dvecap_cache_rows_kept_total"), counter("dvecap_cache_rows_rebased_total")
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
			if ad.Rehosted != rehosted || pl.Stats().ZoneHandoffs != handoffs+rehosted || ad.RowsKept != n-rehosted+ad.Rebased {
				t.Fatalf("round %d: %d zones rehosted; adoption %+v, handoffs %d -> %d", round, rehosted, ad, handoffs, pl.Stats().ZoneHandoffs)
			}
			if got := counter("dvecap_cache_rows_kept_total") - keptBefore; got != uint64(ad.RowsKept) {
				t.Fatalf("round %d: rows_kept counter moved by %d, adoption kept %d", round, got, ad.RowsKept)
			}
			if got := counter("dvecap_cache_rows_rebased_total") - rebasedBefore; got != uint64(ad.Rebased) {
				t.Fatalf("round %d: rows_rebased counter moved by %d, adoption rebased %d", round, got, ad.Rebased)
			}
			audit(t, pl)
			rebuilt := 0 // rehosted zones whose first event rebuilt the row
			for z, s := range hosts {
				kept := pl.ZoneHost(z) == s
				hits, refreshes := counter("dvecap_cache_row_hits_total"), counter("dvecap_cache_row_refreshes_total")
				if _, err := pl.Join(z, 0.1, randRow(rng, m)); err != nil {
					t.Fatal(err)
				}
				dh, dr := counter("dvecap_cache_row_hits_total")-hits, counter("dvecap_cache_row_refreshes_total")-refreshes
				if dh+dr != 1 || kept && dr != 0 {
					t.Fatalf("round %d zone %d (kept its host: %v): first event after the re-solve counted %d hits, %d refreshes", round, z, kept, dh, dr)
				}
				if !kept {
					rebuilt += int(dr)
				}
				sawKept = sawKept || kept
			}
			if rebuilt != rehosted-ad.Rebased {
				t.Fatalf("round %d: %d rehosted zones rebuilt their row on the first event, want the %d of %d not rebased", round, rebuilt, rehosted-ad.Rebased, rehosted)
			}
			sawRebuilt, sawRebased = sawRebuilt || rebuilt > 0, sawRebased || ad.Rebased > 0
		}
		if !done() {
			t.Fatalf("calm=%v: kept zone seen: %v, rehosted zone rebuilt: %v, rebased: %v — a leg is untested", calm, sawKept, sawRebuilt, sawRebased)
		}
	}
}
