package dvecap

import (
	"fmt"
	"testing"

	"dvecap/internal/xrand"
	"dvecap/telemetry"
)

// TestEventsAfterResolveRebuildFewRows gates a count, not a timing: on a
// 5 000-client coordinate-native session whose rows are all warm, the rows
// the 400 events after a Resolve() rebuild are at most the rehosted zones
// that failed the cost rule (rehosted − rebased) plus the rows invalidated
// since — every other rehosted zone's row was rebased (DESIGN.md §8) and
// folds warm — and the re-solve did rebase most of what it rehosted.
func TestEventsAfterResolveRebuildFewRows(t *testing.T) {
	const m, zones, k, events = 10, 50, 5000, 400
	rng := xrand.New(977)
	reg := telemetry.NewRegistry()
	s, err := buildCoordCluster(t, rng, m, zones, k).Open("GreZ-GreC",
		WithSeed(3), WithDelayProvider(CoordDelays), WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	counter := func(name string) uint64 { return reg.Counter("dvecap_cache_"+name+"_total", "").Value() }
	ids := s.ClientIDs()
	hot := 0 // most moves enter the ten zones from here: the crowd wanders
	move := func() {
		z := rng.IntN(zones)
		if rng.IntN(4) > 0 {
			z = (hot + rng.IntN(10)) % zones
		}
		if err := s.Move(ids[rng.IntN(len(ids))], fmt.Sprintf("z%d", z)); err != nil {
			t.Fatal(err)
		}
	}
	rehosted, rebased := 0, uint64(0)
	for round := 0; round < 4; round++ {
		// Churn moves the population, and folds every zone's row warm.
		hot = 13 * round
		for e := 0; e < 40*zones; e++ {
			move()
		}
		rebasedBefore := counter("rows_rebased")
		if err := s.Resolve(); err != nil {
			t.Fatal(err)
		}
		ad := s.planner().LastAdoption()
		if got := counter("rows_rebased") - rebasedBefore; got != uint64(ad.Rebased) {
			t.Fatalf("round %d: rows_rebased moved by %d, the adoption rebased %d", round, got, ad.Rebased)
		}
		rebuilt, invalidated := counter("row_refreshes"), counter("invalidations")
		for e := 0; e < events; e++ {
			move()
		}
		rebuilt, invalidated = counter("row_refreshes")-rebuilt, counter("invalidations")-invalidated
		t.Logf("round %d: %+v; %d events after it rebuilt %d rows, invalidated %d", round, ad, events, rebuilt, invalidated)
		if failed := uint64(ad.Rehosted - ad.Rebased); rebuilt > failed+invalidated {
			t.Fatalf("round %d: %d rows rebuilt after a re-solve that left %d rehosted rows dirty (%+v; %d invalidated since)",
				round, rebuilt, failed, ad, invalidated)
		}
		rehosted, rebased = rehosted+ad.Rehosted, rebased+uint64(ad.Rebased)
	}
	if rehosted == 0 || 2*rebased < uint64(rehosted) {
		t.Fatalf("%d zones rehosted over the rounds, %d rebased: want most", rehosted, rebased)
	}
}
