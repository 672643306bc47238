package core

import (
	"math"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"dvecap/internal/xrand"
)

// audit fails t with the first divergence ev.Audit finds, or when ev has a
// late index attached that no longer describes its problem: the tests that
// attach one expect every hook to keep it live.
func audit(t testing.TB, ev *Evaluator) {
	t.Helper()
	if err := ev.Audit(); err != nil {
		t.Fatal(err)
	}
	if ev.late != nil && !ev.late.ValidFor(ev.p) {
		t.Fatal("the attached late index was dropped")
	}
}

// auditScene is an evaluator whose every maintained structure holds
// something to corrupt — traffic term on, rows clean, a late index with
// GreC's kept choices — with a clean zone z of several clients, a neighbour
// y of z and a client j of z.
type auditScene struct {
	ev      *Evaluator
	z, y, j int
}

func newAuditScene(t *testing.T) auditScene {
	t.Helper()
	p, a := clientVerbProblem(t, 5)
	attachAdjacency(xrand.New(5), p, 1.5)
	ev := NewEvaluator(p, a)
	li := attachLateIndex(t, ev, 1)
	if _, err := GreC(nil, p, a.ZoneServer, Options{Scratch: NewWorkspace(), Late: li}); err != nil || len(li.memo.entries) == 0 {
		t.Fatalf("GreC kept %d choices: %v", len(li.memo.entries), err)
	}
	syncAllRows(ev)
	for z := range ev.zoneMembers {
		if nbr, _ := p.Adjacency.Row(z); len(nbr) > 0 && len(ev.zoneMembers[z]) > 1 {
			return auditScene{ev, z, int(nbr[0]), ev.zoneMembers[z][0]}
		}
	}
	t.Fatal("no zone with two clients and a neighbour")
	return auditScene{}
}

// TestAuditNamesEveryCorruptedField is Audit's completeness proof by
// mutation: every field of Evaluator, moveCache, LateIndex and choiceMemo,
// enumerated by reflection, has a corruption below — one entry, bit or
// count, on a scene that passes Audit — whose error names it, or an
// exemption. A field added without an audit arm or an exemption fails here.
func TestAuditNamesEveryCorruptedField(t *testing.T) {
	exempt := map[string]string{
		"cache": "its fields are", "late": "its fields are", "late.memo": "its fields are",
		"workers": "parallelism", "rowScratch": "scratch", "adjScratch": "scratch", "tele": "metric handles",
		"cache.bestSrv": "per-scan reduction buffer", "cache.bestCand": "per-scan reduction buffer",
		"late.p": "validity tag: the index is audited while it names the bound problem; clearing it drops the index, always safe",
	}
	cases := []struct {
		field   string
		corrupt func(s auditScene)
	}{
		{"p", func(s auditScene) { s.ev.p.ClientRT[s.j] = math.NaN() }},
		{"zoneServer", func(s auditScene) { s.ev.zoneServer[s.z] = s.ev.p.NumServers() }},
		{"contact", func(s auditScene) { s.ev.contact[s.j] = -1 }},
		{"zoneMembers", func(s auditScene) { b := s.ev.zoneMembers[s.z]; b[0], b[1] = b[1], b[0] }},
		{"posInZone", func(s auditScene) { s.ev.posInZone[s.j]++ }},
		{"zoneRT", func(s auditScene) { s.ev.zoneRT[s.z]++ }},
		{"delay", func(s auditScene) { s.ev.delay[s.j]++ }},
		{"loads", func(s auditScene) { s.ev.loads[0]++ }},
		{"cordoned", func(s auditScene) { s.ev.cordoned = append(s.ev.cordoned, false) }},
		{"withQoS", func(s auditScene) { s.ev.withQoS++ }},
		{"rapCost", func(s auditScene) { s.ev.rapCost++ }},
		{"totalLoad", func(s auditScene) { s.ev.totalLoad++ }},
		{"trafficOn", func(s auditScene) { s.ev.trafficOn = false }},
		{"trafficCut", func(s auditScene) { s.ev.trafficCut++ }},
		{"cache.servers", func(s auditScene) { s.ev.cache.servers++ }},
		{"cache.dQoS", func(s auditScene) { s.ev.cache.dQoS[s.z*s.ev.cache.servers]++ }},
		{"cache.dRap", func(s auditScene) { s.ev.cache.dRap[s.z*s.ev.cache.servers+1]++ }},
		{"cache.dLoad", func(s auditScene) { s.ev.cache.dLoad[s.z*s.ev.cache.servers+1]++ }},
		{"cache.dirty", func(s auditScene) { // a row left stale under its dirty bit, then the bit cleared
			s.ev.touchZone(s.z)
			s.ev.ApplyContactSwitch(s.j, (s.ev.contact[s.j]+1)%s.ev.p.NumServers())
			s.ev.cache.dirty[s.z] = false
		}},
		{"cache.adjusts", func(s auditScene) { s.ev.cache.adjusts[s.z] = maxRowAdjustments }},
		{"cache.traffic", func(s auditScene) { s.ev.cache.traffic = false }},
		{"cache.dTraffic", func(s auditScene) { s.ev.cache.dTraffic[s.z*s.ev.cache.servers+1]++ }},
		{"cache.tdirty", func(s auditScene) { // traffic entries left stale under their bit, then the bit cleared
			if err := s.ev.AddZoneAdjacency(s.z, s.y, 1); err != nil {
				panic(err)
			}
			s.ev.cache.tdirty[s.z] = false
		}},
		{"late.m", func(s auditScene) { s.ev.late.m++ }},
		{"late.wpc", func(s auditScene) { s.ev.late.wpc++ }},
		{"late.words", func(s auditScene) { s.ev.late.words[s.j*s.ev.late.wpc] ^= 1 }},
		{"late.words", func(s auditScene) { s.ev.late.words[(s.j+1)*s.ev.late.wpc-1] |= 1 << 63 }}, // a spare bit
		{"late.costs", func(s auditScene) { s.ev.late.costs[s.z*s.ev.late.m+1]++ }},
		{"late.memo.entries", func(s auditScene) { e := &s.ev.late.memo.entries[0]; e.regret = math.Nextafter(e.regret, math.Inf(1)) }},
		{"late.memo.live", func(s auditScene) { s.ev.late.memo.live[0] |= 1 << 63 }}, // the scene has 60 clients: no entry for 63
	}

	covered := map[string]bool{}
	for _, c := range cases {
		covered[c.field] = true
	}
	for prefix, v := range map[string]any{"": Evaluator{}, "cache.": moveCache{}, "late.": LateIndex{}, "late.memo.": choiceMemo{}} {
		for _, f := range reflect.VisibleFields(reflect.TypeOf(v)) {
			name := prefix + f.Name
			if _, ex := exempt[name]; covered[name] == ex {
				t.Errorf("field %s: want exactly one of a corruption case (%v) and an exemption (%v)", name, covered[name], ex)
			}
			delete(covered, name)
			delete(exempt, name)
		}
	}
	for name := range covered {
		t.Errorf("case for %s, which is no field", name)
	}
	for name := range exempt {
		t.Errorf("exemption for %s, which is no field", name)
	}

	for _, c := range cases {
		s := newAuditScene(t)
		audit(t, s.ev)
		c.corrupt(s)
		audits := map[string]error{"Evaluator.Audit": s.ev.Audit()}
		if strings.HasPrefix(c.field, "late.") { // and alone, as a Cluster's index is audited
			audits["LateIndex.Audit"] = s.ev.late.Audit(s.ev.p)
		}
		for name, err := range audits {
			if err == nil {
				t.Errorf("%s corrupted: %s found nothing", c.field, name)
			} else if !regexp.MustCompile(`(^|[^\w.])` + regexp.QuoteMeta(c.field) + `(\W|$)`).MatchString(err.Error()) {
				t.Errorf("%s corrupted: %s's error does not name it: %v", c.field, name, err)
			}
		}
	}
}

// TestAuditWritesNothing: an audited scene — problem, rows and late index
// included — stays deeply equal to a twin built alike and never audited.
func TestAuditWritesNothing(t *testing.T) {
	s, twin := newAuditScene(t), newAuditScene(t)
	audit(t, s.ev)
	if !reflect.DeepEqual(s.ev, twin.ev) {
		t.Fatal("Audit changed the evaluator it audited")
	}
}
