package dvecap

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"dvecap/internal/core"
	"dvecap/internal/director"
	"dvecap/internal/xrand"
	"dvecap/telemetry"
)

// TestResultEqualsEvaluate: Result() reads its metrics from the planner's
// evaluator; after every event of the durability suites' churn script, under
// every delay model, it must equal — reflect.DeepEqual, floats bit for bit —
// the from-scratch core.Evaluate it used to call.
func TestResultEqualsEvaluate(t *testing.T) {
	for _, model := range []DelayModel{DenseDelays, CoordDelays} {
		t.Run(fmt.Sprint(model), func(t *testing.T) {
			s, err := durTestCluster(t, 11).Open("GreZ-GreC", WithSeed(7), WithDelayProvider(model),
				WithDriftGuard(0.03), WithImbalanceGuard(0.2))
			if err != nil {
				t.Fatal(err)
			}
			churn := newSessChurn(xrand.New(401))
			for e := 0; e <= 150; e++ {
				got, err := s.Result()
				if err != nil {
					t.Fatal(err)
				}
				pl := s.planner()
				p, a := pl.Problem(), pl.Assignment()
				want := newResult(s.m.Algo(), p, a, core.Evaluate(p, a), s.binding.DenseIDs())
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("after %d events: Result() = %+v\nfrom-scratch evaluation gives %+v", e, got, want)
				}
				churn.run(t, s, 1)
			}
		})
	}
}

// costMatrixSources reads dvecap_solve_cost_matrix_total off a registry.
func costMatrixSources(reg *telemetry.Registry) (index, rows uint64) {
	const name = "dvecap_solve_cost_matrix_total"
	return reg.Counter(name, "", "source", core.CostMatrixFromIndex).Value(),
		reg.Counter(name, "", "source", core.CostMatrixFromRows).Value()
}

// TestSessionSolvesFromTheLateIndex pins what an operator reads on /metrics:
// every Resolve of an open session — with churn in between — builds its cost
// matrix from the late index the opening solve filled, and a session
// recovered after a kill counts from the rows again, once: the index is
// rebuilt, never restored. (The opening solve itself runs before the
// registry attaches, like dvecap_full_solves_total it is not counted.)
func TestSessionSolvesFromTheLateIndex(t *testing.T) {
	for _, model := range []DelayModel{DenseDelays, CoordDelays} {
		t.Run(fmt.Sprint(model), func(t *testing.T) {
			dir := t.TempDir()
			reg := telemetry.NewRegistry()
			s, err := durTestCluster(t, 11).Open("GreZ-GreC", WithSeed(7), WithDelayProvider(model),
				WithDurability(dir), WithSnapshotEvery(17), WithTelemetry(reg))
			if err != nil {
				t.Fatal(err)
			}
			churn := newSessChurn(xrand.New(401))
			for n := 1; n <= 4; n++ {
				churn.run(t, s, 15) // the script resolves now and then itself
				if err := s.Resolve(); err != nil {
					t.Fatal(err)
				}
				// Every full solve but the opening one, which filled the index.
				want := uint64(s.Stats().FullSolves - 1)
				if index, rows := costMatrixSources(reg); index != want || rows != 0 || want < uint64(n) {
					t.Fatalf("after %d Resolve()s: index=%d rows=%d, want %d and 0", n, index, rows, want)
				}
			}
			if err := s.Checkpoint(); err != nil { // nothing left to replay
				t.Fatal(err)
			}

			// Kill: no Close.
			reg2 := telemetry.NewRegistry()
			back, err := NewCluster(1).Open("GreZ-GreC", WithDurability(dir), WithTelemetry(reg2))
			if err != nil {
				t.Fatal(err)
			}
			auditSession(t, back)
			for n := uint64(1); n <= 3; n++ {
				if err := back.Resolve(); err != nil {
					t.Fatal(err)
				}
				if index, rows := costMatrixSources(reg2); rows != 1 || index != n-1 {
					t.Fatalf("recovered session after %d Resolve()s: index=%d rows=%d, want %d and 1", n, index, rows, n-1)
				}
			}
			if err := back.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// rowCounter counts the delay rows read off the provider it wraps. Clone
// hands the count on, so the rows a session's planner reads from its clone
// of the problem are counted too.
type rowCounter struct {
	core.DelayProvider
	rows *int
}

func (r rowCounter) Row(j int, dst []float64) []float64 {
	*r.rows++
	return r.DelayProvider.Row(j, dst)
}

func (r rowCounter) Clone() core.DelayProvider { return rowCounter{r.DelayProvider.Clone(), r.rows} }

// countRowReads builds c under model and wraps the built problem's delay
// store in a rowCounter, returning its count.
func countRowReads(t *testing.T, c *Cluster, model DelayModel) *int {
	t.Helper()
	p, err := c.problemFor(model)
	if err != nil {
		t.Fatal(err)
	}
	n := new(int)
	p.Delays = rowCounter{p.Delays, n}
	return n
}

// clusterLateCopy returns a copy of c's late index, to compare it with later.
func clusterLateCopy(c *Cluster) core.LateIndex {
	var li core.LateIndex
	li.CopyFrom(&c.late, c.built)
	return li
}

// TestClusterSolveReusesLateIndex: a Cluster keeps the late index of its
// built problem across Solves. The first GreZ or DynZ solve of a build
// reads every client's delay row and fills the index; a repeat reads
// exactly k rows fewer — under GreC also none of the late clients' rows but
// a third choice's, since the index keeps their choices — and its Result
// equals a fresh cluster's. Solves
// under WithEstimationError or a traffic overlay run on another problem
// and leave the index alone. AddClient rebuilds the problem, and the next
// solve fills a new index. Every registered algorithm runs; the RanZ and
// LoadZ zone phases build no cost matrix, so their solves neither fill the
// index nor read it.
func TestClusterSolveReusesLateIndex(t *testing.T) {
	for _, model := range []DelayModel{DenseDelays, CoordDelays} {
		for _, algo := range Algorithms() {
			t.Run(fmt.Sprintf("%d/%s", model, algo), func(t *testing.T) {
				fills := strings.HasPrefix(algo, "GreZ-") || strings.HasPrefix(algo, "DynZ-")
				nearC := strings.HasSuffix(algo, "-NearC") // reads every row for the nearest contact
				base := []Option{WithSeed(3), WithDelayProvider(model)}
				// Every build carries one interaction edge, which a plain solve
				// ignores (traffic weight 0) and WithTrafficWeight switches on.
				build := func() *Cluster {
					c := durTestCluster(t, 11)
					if err := c.SetZoneAdjacency("z0", "z1", 3); err != nil {
						t.Fatal(err)
					}
					// Beyond the bound everywhere, so GreC has a late client.
					if err := c.AddClient("far", ClientSpec{Zone: "z1", BandwidthMbps: 0.3,
						RTTRow: []float64{300, 290, 280, 270}}); err != nil {
						t.Fatal(err)
					}
					return c
				}
				addClient := func(c *Cluster) {
					if err := c.AddClient("late-joiner", ClientSpec{Zone: "z2", BandwidthMbps: 0.4,
						RTTRow: []float64{270, 20, 265, 30}}); err != nil {
						t.Fatal(err)
					}
				}
				c := build()
				rows := countRowReads(t, c, model)
				solve := func(c *Cluster, opts ...Option) *Result {
					t.Helper()
					res, err := c.Solve(algo, append(append([]Option(nil), base...), opts...)...)
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				// check solves c twice without options, against a fresh
				// cluster grown by grow, and returns the second solve's reads.
				check := func(when string, grow func(*Cluster)) int {
					t.Helper()
					fresh := build()
					grow(fresh)
					want := solve(fresh)
					*rows = 0
					first := solve(c)
					filling := *rows
					*rows = 0
					second := solve(c)
					if !reflect.DeepEqual(first, want) || !reflect.DeepEqual(second, want) {
						t.Fatalf("%s: Solve results differ from a fresh cluster's:\n%+v\n%+v\nwant %+v", when, first, second, want)
					}
					k, rowsRepeat := c.NumClients(), *rows
					late := 0
					if fills && strings.HasSuffix(algo, "-GreC") {
						// GreC reuses every late client's kept choices from the
						// first solve, so the repeat reads a row only for a third
						// choice; GreC over a copy of the index counts them.
						li := clusterLateCopy(c)
						w := core.NewWorkspace()
						if _, err := core.GreC(nil, c.built, second.ZoneServer, core.Options{Scratch: w, Late: &li}); err != nil {
							t.Fatal(err)
						}
						var thirds int
						late, thirds = w.GreCCounts()
						if late == 0 || rowsRepeat != thirds || w.GreCLateRowsRead() != 0 {
							t.Fatalf("%s: a repeat solve read %d delay rows, want only its %d third choices' (%d late clients)", when, rowsRepeat, thirds, late)
						}
					}
					if fills && (filling-rowsRepeat != k+late || (!nearC && rowsRepeat >= k) || !c.late.ValidFor(c.built)) {
						t.Fatalf("%s: first solve read %d rows, the repeat %d; want the repeat to read %d fewer from a filled index",
							when, filling, rowsRepeat, k+late)
					}
					if !fills && (filling != rowsRepeat || c.late.ValidFor(c.built)) {
						t.Fatalf("%s: solves without a cost matrix read %d then %d rows (index valid %v)", when, filling, rowsRepeat, c.late.ValidFor(c.built))
					}
					return rowsRepeat
				}
				repeat := check("first build", func(*Cluster) {})

				saved := clusterLateCopy(c)
				for _, opts := range [][]Option{
					{WithEstimationError(1.5)},
					{WithTrafficWeight(0.5)},
				} {
					fresh := build()
					if got, want := solve(c, opts...), solve(fresh, opts...); !reflect.DeepEqual(got, want) {
						t.Fatalf("%d-option solve: %+v, fresh cluster gives %+v", len(opts), got, want)
					}
					if !reflect.DeepEqual(clusterLateCopy(c), saved) || c.late.ValidFor(c.built) != fills {
						t.Fatalf("a solve with %d run-scoped options changed the cluster's late index", len(opts))
					}
					*rows = 0
					solve(c)
					if *rows != repeat {
						t.Fatalf("plain solve after a %d-option solve read %d rows, want %d", len(opts), *rows, repeat)
					}
				}

				addClient(c)
				rows = countRowReads(t, c, model)
				check("after AddClient", addClient)
			})
		}
	}
}

// TestOpenCopiesClusterLateIndex: Open after a Solve hands the cluster's
// filled late index to the session's planner, which copies it onto its
// clone of the problem. The opening solve then reads exactly k delay rows
// fewer than an Open on a fresh cluster; the session's Result, Stats and
// data directory are byte-for-byte the fresh one's, and stay so through
// 1 000 joins and delay updates. The planner's evaluator rewrites its copy
// on every join and update; the cluster's words must not move, and a later
// Solve still reads them.
func TestOpenCopiesClusterLateIndex(t *testing.T) {
	for _, model := range []DelayModel{DenseDelays, CoordDelays} {
		t.Run(fmt.Sprint(model), func(t *testing.T) {
			const algo = "GreZ-GreC"
			opts := []Option{WithSeed(7), WithDelayProvider(model)}
			c, fresh := durTestCluster(t, 11), durTestCluster(t, 11)
			rows, freshRows := countRowReads(t, c, model), countRowReads(t, fresh, model)
			if _, err := c.Solve(algo, opts...); err != nil {
				t.Fatal(err)
			}
			repeat := *rows - c.NumClients()
			saved := clusterLateCopy(c)

			*rows = 0
			dir, freshDir := t.TempDir(), t.TempDir()
			s, err := c.Open(algo, append(opts, WithDurability(dir))...)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			f, err := fresh.Open(algo, append(opts, WithDurability(freshDir))...)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if *freshRows-*rows != c.NumClients() {
				t.Fatalf("opening solve read %d delay rows, a fresh cluster's %d: want %d fewer, from the copied index",
					*rows, *freshRows, c.NumClients())
			}
			same := func(when string) {
				t.Helper()
				got, err := s.Result()
				if err != nil {
					t.Fatal(err)
				}
				want, err := f.Result()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(s.Stats(), f.Stats()) {
					t.Fatalf("%s: session differs from one opened on a fresh cluster:\n%+v\n%+v", when, got, want)
				}
				if !reflect.DeepEqual(dirFiles(t, dir), dirFiles(t, freshDir)) {
					t.Fatalf("%s: data directories differ", when)
				}
			}
			same("opened")

			// Delay updates first, then joins: a join grows the planner's
			// words onto a new array, which would hide an alias from then on.
			rng := xrand.New(5)
			live := s.ClientIDs()
			for e := 0; e < 1000; e++ {
				row := durRow(rng, s.NumServers())
				if e < 500 {
					for i := range row {
						row[i] *= 1.75 // about half beyond D, so bits flip
					}
					id := live[rng.IntN(len(live))]
					if err := s.UpdateDelayRow(id, row); err != nil {
						t.Fatal(err)
					}
					if err := f.UpdateDelayRow(id, row); err != nil {
						t.Fatal(err)
					}
					continue
				}
				id := fmt.Sprintf("j%04d", e)
				spec := ClientSpec{Zone: fmt.Sprintf("z%d", rng.IntN(6)), BandwidthMbps: rng.Uniform(0.1, 0.6), RTTRow: row}
				if err := s.Join(id, spec); err != nil {
					t.Fatal(err)
				}
				if err := f.Join(id, spec); err != nil {
					t.Fatal(err)
				}
			}
			same("after 1000 joins and delay updates")
			requireSameSession(t, f, s)

			if !reflect.DeepEqual(clusterLateCopy(c), saved) {
				t.Fatal("the session's churn rewrote the cluster's late index")
			}
			if err := c.late.Audit(c.built); err != nil {
				t.Fatal(err)
			}
			want, err := fresh.Solve(algo, opts...)
			if err != nil {
				t.Fatal(err)
			}
			*rows = 0
			if again, err := c.Solve(algo, opts...); err != nil || !reflect.DeepEqual(again, want) || *rows != repeat {
				t.Fatalf("Solve after the session's churn: err %v, equal to a fresh cluster's %v, read %d rows, want %d",
					err, reflect.DeepEqual(again, want), *rows, repeat)
			}
		})
	}
}

// TestReassignMovedMatchesAssignmentDiff: Director.Reassign counts moved
// contacts against one saved contact vector; on a churned director that
// equals the diff of two full assignment copies it used to take.
func TestReassignMovedMatchesAssignmentDiff(t *testing.T) {
	dm := directorSurface(t).open(t, proofRun{churnSeed: 401}).(*directorMachine)
	d := dm.d
	total := 0
	for round := 0; round < 6; round++ {
		dm.run(t, 25)
		before := directorContacts(d)
		res, err := d.Reassign()
		if err != nil {
			t.Fatal(err)
		}
		moved := 0
		for j, c := range directorContacts(d) {
			if c != before[j] {
				moved++
			}
		}
		if res.Moved != moved {
			t.Fatalf("round %d: Reassign reports %d moved contacts, the assignment diff has %d", round, res.Moved, moved)
		}
		total += moved
	}
	if total == 0 {
		t.Fatal("no reassign moved a contact: the count is untested")
	}
}

// directorContacts lists every client's contact server ID in snapshot
// (dense) order.
func directorContacts(d *director.Director) []string {
	snap := d.Snapshot()
	out := make([]string, len(snap))
	for j, c := range snap {
		out[j] = c.ContactID
	}
	return out
}
