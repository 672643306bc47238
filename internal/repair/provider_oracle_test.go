package repair

import (
	"fmt"
	"math"
	"testing"

	"dvecap/internal/core"
	"dvecap/internal/xrand"
	"dvecap/telemetry"
)

// providerBacked rebuilds p behind a delay provider of the given kind with
// full measured coverage (see core's provider_oracle_test.go): the
// precondition under which every provider is bit-identical to the dense
// oracle.
func providerBacked(p *core.Problem, kind string) *core.Problem {
	q := p.Clone()
	var dp core.DelayProvider
	switch kind {
	case core.ProviderCoord:
		cp := core.NewCoordProviderFromSS(q.SS, 0)
		for _, row := range q.CS {
			cp.AppendClient(row)
		}
		dp = cp
	case core.ProviderSharedRow:
		sp := core.NewSharedRowProvider(q.NumServers())
		for _, row := range q.CS {
			sp.AppendClient(row)
		}
		dp = sp
	default:
		panic("unknown provider kind " + kind)
	}
	q.CS = nil
	q.Delays = dp
	return q
}

// plannerStep applies one random churn/topology/solve event to pl. Errors
// are returned, not fatal: some ops legitimately reject (draining the last
// server), and the oracle test asserts BOTH lanes reject identically.
func plannerStep(pl *Planner, rng *xrand.RNG, live *[]int) error {
	p := pl.Problem()
	m := p.NumServers()
	switch rng.IntN(9) {
	case 0:
		h, err := pl.Join(rng.IntN(p.NumZones), rng.Uniform(0.05, 0.5), randRow(rng, m))
		if err != nil {
			return err
		}
		*live = append(*live, h)
	case 1:
		if len(*live) > 1 {
			i := rng.IntN(len(*live))
			if err := pl.Leave((*live)[i]); err != nil {
				return err
			}
			(*live)[i] = (*live)[len(*live)-1]
			*live = (*live)[:len(*live)-1]
		}
	case 2:
		if len(*live) > 0 {
			return pl.Move((*live)[rng.IntN(len(*live))], rng.IntN(p.NumZones))
		}
	case 3:
		if len(*live) > 0 {
			return pl.UpdateDelays((*live)[rng.IntN(len(*live))], randRow(rng, m))
		}
	case 4: // grow capacity: fresh server, fully measured column
		ss := make([]float64, m)
		for i := range ss {
			ss[i] = rng.Uniform(5, 200)
		}
		col := make([]float64, pl.NumClients())
		for j := range col {
			col[j] = rng.Uniform(0, 500)
		}
		_, err := pl.AddServer(rng.Uniform(100, 300), ss, col)
		return err
	case 5:
		if m > 1 {
			return pl.DrainServer(rng.IntN(m))
		}
	case 6:
		return pl.UncordonServer(rng.IntN(m))
	case 7:
		_, err := pl.AddZone(-1)
		return err
	default:
		return pl.FullSolve()
	}
	return nil
}

// samePlannerState asserts the provider-backed planner's full observable
// state — problem dimensions, every delay, the maintained assignment,
// quality figures AND the repair counters — is bit-identical to the dense
// oracle planner's.
func samePlannerState(t *testing.T, label string, plD, plP *Planner) {
	t.Helper()
	pd, pp := plD.Problem(), plP.Problem()
	if pd.NumServers() != pp.NumServers() || pd.NumClients() != pp.NumClients() || pd.NumZones != pp.NumZones {
		t.Fatalf("%s: dims diverged: oracle %dx%d/%d, provider %dx%d/%d", label,
			pd.NumClients(), pd.NumServers(), pd.NumZones, pp.NumClients(), pp.NumServers(), pp.NumZones)
	}
	for j := 0; j < pd.NumClients(); j++ {
		for i := 0; i < pd.NumServers(); i++ {
			if d, p := pd.CSAt(j, i), pp.CSAt(j, i); d != p {
				t.Fatalf("%s: CS[%d][%d] = %v via provider, oracle %v", label, j, i, p, d)
			}
		}
	}
	ad, ap := plD.Assignment(), plP.Assignment()
	for z := range ad.ZoneServer {
		if ad.ZoneServer[z] != ap.ZoneServer[z] {
			t.Fatalf("%s: zone %d hosted on %d via provider, oracle %d", label, z, ap.ZoneServer[z], ad.ZoneServer[z])
		}
	}
	for j := range ad.ClientContact {
		if ad.ClientContact[j] != ap.ClientContact[j] {
			t.Fatalf("%s: client %d contact %d via provider, oracle %d", label, j, ap.ClientContact[j], ad.ClientContact[j])
		}
	}
	for i := 0; i < pd.NumServers(); i++ {
		if plD.Draining(i) != plP.Draining(i) {
			t.Fatalf("%s: server %d draining=%v via provider, oracle %v", label, i, plP.Draining(i), plD.Draining(i))
		}
	}
	if plD.PQoS() != plP.PQoS() || plD.WithQoS() != plP.WithQoS() || plD.Utilization() != plP.Utilization() {
		t.Fatalf("%s: quality diverged: provider pQoS=%v/with=%d/util=%v, oracle %v/%d/%v", label,
			plP.PQoS(), plP.WithQoS(), plP.Utilization(), plD.PQoS(), plD.WithQoS(), plD.Utilization())
	}
	if plD.Stats() != plP.Stats() {
		t.Fatalf("%s: repair counters diverged:\nprovider %+v\noracle   %+v", label, plP.Stats(), plD.Stats())
	}
}

// zonePrototypes draws one delay row per zone of pl for settledStep: each
// zone gets exactly one available server inside the delay bound (spread
// round-robin over the non-draining fleet) — by so little that no
// forwarding hop fits under the bound as well — and every other server far
// outside it, so a zone has one right host and no second-best to flip-flop
// with.
func zonePrototypes(pl *Planner, rng *xrand.RNG) [][]float64 {
	var avail []int
	for i := 0; i < pl.NumServers(); i++ {
		if !pl.Draining(i) {
			avail = append(avail, i)
		}
	}
	d := pl.Problem().D
	protos := make([][]float64, pl.NumZones())
	for z := range protos {
		protos[z] = make([]float64, pl.NumServers())
		for i := range protos[z] {
			protos[z][i] = d + rng.Uniform(100, 300)
		}
		protos[z][avail[z%len(avail)]] = d - rng.Uniform(10, 30)
	}
	return protos
}

// settledStep applies one client-churn event (join, leave, move, delay
// refresh) whose delay rows are drawn within 5 ms of the client's zone
// prototype — every client of a zone agrees on which server is close, so
// zones settle on a host and rarely change it. That is the regime in which a
// candidate-delta row lives long enough to be adjusted in place thousands
// of times between rebuilds; under plannerStep's uniformly random rows a
// zone is handed off (and its row rebuilt) every few hundred events.
func settledStep(pl *Planner, rng *xrand.RNG, live *[]int, protos [][]float64) error {
	near := func(z int) []float64 {
		row := make([]float64, len(protos[z]))
		for i, d := range protos[z] {
			row[i] = d + rng.Uniform(0, 5)
		}
		return row
	}
	pick := func() int { return (*live)[rng.IntN(len(*live))] }
	// The population is held between 40 and 160, so zones stay populated:
	// a one-client zone follows whichever outlier walks into it.
	switch op, k := rng.IntN(4), len(*live); {
	case k < 40 || (op == 0 && k < 160):
		z := rng.IntN(len(protos))
		h, err := pl.Join(z, rng.Uniform(0.05, 0.5), near(z))
		if err != nil {
			return err
		}
		*live = append(*live, h)
	case op == 1:
		i := rng.IntN(len(*live))
		if err := pl.Leave((*live)[i]); err != nil {
			return err
		}
		(*live)[i] = (*live)[len(*live)-1]
		*live = (*live)[:len(*live)-1]
	case op == 2: // the avatar crosses a border and is re-measured
		h, z := pick(), rng.IntN(len(protos))
		if err := pl.Move(h, z); err != nil {
			return err
		}
		return pl.UpdateDelays(h, near(z))
	default:
		h := pick()
		j, err := pl.Index(h)
		if err != nil {
			return err
		}
		return pl.UpdateDelays(h, near(pl.Problem().ClientZones[j]))
	}
	return nil
}

// driftRebuilds returns how many candidate-delta rows the evaluator's
// rebuild-after-N rule dirtied on a planner instrumented with reg, given
// the zone handoffs counted since the registry was attached: with no
// topology event, column overlay or traffic term in between, a row is
// dirtied by that rule or by a handoff that fails the cost rule — every
// other handoff rebases its row — nothing else.
func driftRebuilds(reg *telemetry.Registry, handoffs int) int {
	rebased := int(reg.Counter("dvecap_cache_rows_rebased_total", "").Value())
	return int(reg.Counter("dvecap_cache_invalidations_total", "").Value()) - (handoffs - rebased)
}

// TestPlannerProviderMatchesDenseOracle drives identical churn + topology +
// full-solve op-streams through a dense-matrix planner (the oracle) and a
// provider-backed planner, at workers 1 and 4, asserting bit-identical
// assignments, delays, quality figures and repair counters after every
// event — the repair-subsystem lane of the dense-oracle equivalence suite.
// One guard-free trial appends a long churn-only leg (no event that rebuilds a
// row wholesale), so both lanes keep adjusting the same rows in place
// until the rebuild-after-N drift rule fires — and must still agree.
func TestPlannerProviderMatchesDenseOracle(t *testing.T) {
	kinds := []string{core.ProviderCoord, core.ProviderSharedRow}
	for _, kind := range kinds {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", kind, workers), func(t *testing.T) {
				for trial := 0; trial < 5; trial++ {
					seed := uint64(8800 + trial)
					const events = 45
					cfg := testConfig()
					cfg.Opt.Workers = workers
					if trial%2 == 0 {
						cfg.DriftPQoS = 0.05 // drift-triggered solves must fire identically
					}

					rngD := xrand.New(seed)
					pd := randProblem(rngD.Split(), events)
					plD, err := New(cfg, pd, rngD.Split())
					if err != nil {
						t.Fatalf("trial %d: oracle: %v", trial, err)
					}
					rngP := xrand.New(seed)
					pp := providerBacked(randProblem(rngP.Split(), events), kind)
					plP, err := New(cfg, pp, rngP.Split())
					if err != nil {
						t.Fatalf("trial %d: provider: %v", trial, err)
					}
					samePlannerState(t, fmt.Sprintf("trial %d seed state", trial), plD, plP)

					liveD := make([]int, pd.NumClients())
					liveP := make([]int, pd.NumClients())
					for h := range liveD {
						liveD[h], liveP[h] = h, h
					}
					for step := 0; step < events; step++ {
						errD := plannerStep(plD, rngD, &liveD)
						errP := plannerStep(plP, rngP, &liveP)
						if (errD == nil) != (errP == nil) {
							t.Fatalf("trial %d step %d: oracle err %v, provider err %v", trial, step, errD, errP)
						}
						if errD != nil && errD.Error() != errP.Error() {
							t.Fatalf("trial %d step %d: rejections differ: oracle %q, provider %q", trial, step, errD, errP)
						}
						samePlannerState(t, fmt.Sprintf("trial %d step %d", trial, step), plD, plP)
					}
					if cfg.DriftPQoS != 0 || trial < 3 {
						continue // guard solves rebuild every row; one long leg is enough
					}
					reg := telemetry.NewRegistry()
					plP.SetTelemetry(reg)
					handoffs := plP.Stats().ZoneHandoffs
					protos := zonePrototypes(plD, xrand.New(seed+77))
					const churn = 40_000
					for step := 0; step < churn; step++ {
						errD := settledStep(plD, rngD, &liveD, protos)
						errP := settledStep(plP, rngP, &liveP, protos)
						if errD != nil || errP != nil {
							t.Fatalf("trial %d churn step %d: oracle err %v, provider err %v", trial, step, errD, errP)
						}
						if step%500 == 0 || step == churn-1 {
							samePlannerState(t, fmt.Sprintf("trial %d churn step %d", trial, step), plD, plP)
						}
					}
					if n := driftRebuilds(reg, plP.Stats().ZoneHandoffs-handoffs); n < 1 {
						t.Fatalf("trial %d: %d churn events never crossed the rebuild-after-N rule", trial, churn)
					}
				}
			})
		}
	}
}

// TestPlannerNaNRowNeverReachesClientDelay: a NaN in a joined or refreshed
// delay row means "unmeasured" on every delay storage — the raw matrix
// resolves it to the sentinel exactly as the providers do — so no client's
// effective delay, and none of the sums built from it, is ever NaN.
func TestPlannerNaNRowNeverReachesClientDelay(t *testing.T) {
	for _, kind := range []string{"raw", core.ProviderCoord, core.ProviderSharedRow} {
		t.Run(kind, func(t *testing.T) {
			rng := xrand.New(4242)
			p := randProblem(rng.Split(), 4)
			if kind != "raw" {
				p = providerBacked(p, kind)
			}
			pl, err := New(testConfig(), p, rng.Split())
			if err != nil {
				t.Fatal(err)
			}
			m := pl.NumServers()
			holes := func() []float64 {
				row := randRow(rng, m)
				row[rng.IntN(m)] = math.NaN()
				return row
			}
			h, err := pl.Join(0, 0.3, holes())
			if err != nil {
				t.Fatal(err)
			}
			unmeasured := make([]float64, m)
			for i := range unmeasured {
				unmeasured[i] = math.NaN()
			}
			for _, row := range [][]float64{holes(), unmeasured} {
				if err := pl.UpdateDelays(h, row); err != nil {
					t.Fatal(err)
				}
				d, err := pl.ClientDelay(h)
				if err != nil {
					t.Fatal(err)
				}
				if math.IsNaN(d) || math.IsNaN(pl.PQoS()) {
					t.Fatalf("NaN reached the planner: client delay %v, pQoS %v", d, pl.PQoS())
				}
			}
			j, _ := pl.Index(h)
			for i := 0; i < m; i++ {
				if got := pl.Problem().CSAt(j, i); math.IsNaN(got) || (kind != core.ProviderCoord && got != core.UnmeasuredDelayMs) {
					t.Fatalf("unmeasured CS[%d][%d] stored as %v", j, i, got)
				}
			}
			checkPlanner(t, pl)
		})
	}
}
