package repair

import (
	"bytes"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dvecap/internal/wal"
	"dvecap/internal/xrand"
)

// TestSchemaBitsFollowTheStruct: bit i of the schema is Event's field after
// Op at position i — present sets exactly that bit for that field alone, and
// fieldNames holds its JSON key.
func TestSchemaBitsFollowTheStruct(t *testing.T) {
	typ := reflect.TypeFor[Event]()
	if n := typ.NumField() - 1; len(fieldNames) != n {
		t.Fatalf("%d schema names for %d fields", len(fieldNames), n)
	}
	for i := 1; i < typ.NumField(); i++ {
		var e Event
		v := reflect.ValueOf(&e).Elem().Field(i)
		switch v.Kind() {
		case reflect.String:
			v.SetString("x")
		case reflect.Slice:
			v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		case reflect.Map:
			v.Set(reflect.MakeMap(v.Type()))
			v.SetMapIndex(reflect.Zero(v.Type().Key()), reflect.Zero(v.Type().Elem()))
		case reflect.Float64:
			v.SetFloat(1)
		case reflect.Int:
			v.SetInt(1)
		case reflect.Bool:
			v.SetBool(true)
		default:
			t.Fatalf("field %s: kind %s has no case here", typ.Field(i).Name, v.Kind())
		}
		if got, want := e.present(), uint32(1)<<(i-1); got != want {
			t.Errorf("field %s alone: present %b, want %b", typ.Field(i).Name, got, want)
		}
		if key, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ","); fieldNames[i-1] != key {
			t.Errorf("field %s: schema name %q, JSON key %q", typ.Field(i).Name, fieldNames[i-1], key)
		}
	}
}

// TestCheckAndReplayRefuseWhatNoOpReads: the admission rule and the journal
// decoder hold one schema. Both refuse an op it does not hold and a field
// its op does not read; the decoder also refuses a key Event does not have,
// and the admission rule an epoch marker, which only the journal writes.
// Recovery over such a record stops at it, naming its LSN.
func TestCheckAndReplayRefuseWhatNoOpReads(t *testing.T) {
	m := testMachine(t, false)
	for _, tc := range []struct {
		name string
		e    *Event
		raw  string
	}{
		{"move batch with rts", &Event{Op: OpMoveBatch, IDs: []string{"seed-0"}, Zones: []string{"z1"}, RTs: []float64{0.5}},
			`{"op":"move_batch","ids":["seed-0"],"zones":["z1"],"rts":[0.5]}`},
		{"join with ids", &Event{Op: OpJoin, ID: "n0", IDs: []string{"n1"}, Zone: "z0", RT: 0.5, Row: make([]float64, m.b.pl.NumServers())},
			`{"op":"join","id":"n0","ids":["n1"],"zone":"z0","rt":0.5}`},
		{"unknown op", &Event{Op: "nope"}, `{"op":"nope"}`},
		{"empty op", &Event{ID: "seed-0"}, `{"id":"seed-0"}`},
		{"unknown key", nil, `{"op":"move_batch","ids":["seed-0"],"zones":["z1"],"nodes":[3]}`},
		{"epoch from a front end", &Event{Op: OpEpoch, FullSolves: 1}, ""},
	} {
		if tc.e != nil {
			if err := m.check(tc.e); err == nil {
				t.Errorf("%s: check admitted %+v", tc.name, tc.e)
			}
		}
		if tc.raw == "" {
			continue
		}
		if e, err := DecodeEvent([]byte(tc.raw)); err == nil {
			t.Errorf("%s: decoded %s as %+v", tc.name, tc.raw, e)
		}
		dir := replayFixture(t, 5, map[int][]byte{2: []byte(tc.raw)})
		snap, err := LoadSnapshot(dir)
		if err != nil {
			t.Fatal(err)
		}
		r, err := RestoreMachine(snap, testConfig())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Recover(JournalConfig{Dir: dir}, snap.LSN); err == nil || !strings.HasPrefix(err.Error(), "journal: LSN 3: repair: decode event: ") {
			t.Errorf("%s: Recover = %v, want a refusal of LSN 3", tc.name, err)
		}
	}
}

// TestCommitJournalsNothingTheSchemaRefuses: an unknown op and an epoch
// marker handed to Commit come back refused, leave the log as it was, and
// the next recovery replays the events around them.
func TestCommitJournalsNothingTheSchemaRefuses(t *testing.T) {
	dir := t.TempDir()
	m := testMachine(t, false)
	if err := m.MakeDurable(JournalConfig{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	head := m.NextLSN()
	for _, e := range []*Event{{Op: "nope"}, {Op: OpEpoch, FullSolves: 3}} {
		if err := m.Commit(e, nil, nil); err == nil {
			t.Fatalf("Commit admitted %+v", e)
		}
	}
	if got := m.NextLSN(); got != head {
		t.Fatalf("refused events took LSNs %d..%d", head, got-1)
	}
	if err := m.Commit(&Event{Op: OpLeave, ID: "seed-0"}, nil, nil); err != nil {
		t.Fatal(err)
	}
	snap, err := LoadSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	r, err := RestoreMachine(snap, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if n, err := r.Recover(JournalConfig{Dir: dir}, snap.LSN); err != nil || n != 1 {
		t.Fatalf("Recover replayed %d events (%v), want the one leave", n, err)
	}
}

// DecodeEvent decodes one payload through a fresh EventDecoder.
func DecodeEvent(payload []byte) (*Event, error) { return new(EventDecoder).Decode(payload) }

// FuzzDecodeEvent: whatever DecodeEvent accepts carries only its op's
// fields, and re-encodes to a payload that decodes to the same event. One
// EventDecoder, as a replay keeps it, decodes every input in turn and must
// agree with the fresh one. The seeds are every record of the shipped
// journals.
func FuzzDecodeEvent(f *testing.F) {
	dirs, err := filepath.Glob("../../testdata/shared-model/*/data")
	if err != nil || len(dirs) == 0 {
		f.Fatalf("no shipped journals (%v)", err)
	}
	for _, dir := range append(dirs, "../director/testdata/legacy/data") {
		if _, err := wal.Replay(dir, 0, func(_ uint64, p []byte) error {
			f.Add(append([]byte(nil), p...))
			return nil
		}); err != nil {
			f.Fatal(err)
		}
	}
	var stream EventDecoder
	f.Fuzz(func(t *testing.T, payload []byte) {
		e, err := DecodeEvent(payload)
		se, serr := stream.Decode(payload)
		if fmt.Sprint(err) != fmt.Sprint(serr) || !reflect.DeepEqual(e, se) {
			t.Fatalf("%q: a fresh decoder gives %+v, %v; the replay's gives %+v, %v", payload, e, err, se, serr)
		}
		if err != nil {
			return
		}
		if extra := e.present() &^ opFields[e.Op]; extra != 0 {
			t.Fatalf("%s decoded with fields %b outside its op's", payload, extra)
		}
		raw, err := e.Encode()
		if err != nil {
			t.Fatalf("%s decoded but does not encode: %v", payload, err)
		}
		back, err := DecodeEvent(raw)
		if err != nil {
			t.Fatalf("%s re-encoded as %s, which does not decode: %v", payload, raw, err)
		}
		if want := canonical(e); !reflect.DeepEqual(back, want) {
			t.Fatalf("%s re-encoded as %s, which decodes to\n%+v\nnot\n%+v", payload, raw, back, want)
		}
	})
}

// journalSeeds returns every record of the shipped journals (the data
// directories under testdata/ and the director's legacy one) and of a
// tail shaped like replayFixture's: joins with dense rows, leaves, moves,
// delay rows, a resolve and an epoch marker.
func journalSeeds(tb testing.TB) (payloads [][]byte) {
	dirs, err := filepath.Glob("../../testdata/*/*/data")
	if err != nil || len(dirs) == 0 {
		tb.Fatalf("no shipped journals (%v)", err)
	}
	for _, dir := range append(dirs, "../director/testdata/legacy/data") {
		if _, err := wal.Replay(dir, 0, func(_ uint64, p []byte) error {
			payloads = append(payloads, append([]byte(nil), p...))
			return nil
		}); err != nil {
			tb.Fatal(err)
		}
	}
	rng := xrand.New(41)
	for x := 0; x < 40; x++ {
		id, zone := fmt.Sprintf("n%04d", x), fmt.Sprintf("z%d", rng.IntN(6))
		for _, e := range []*Event{
			{Op: OpJoin, ID: id, Zone: zone, RT: rng.Uniform(0.1, 0.5), Row: randRow(rng, 5)},
			{Op: OpMove, ID: id, Zone: zone, Refresh: []ZoneRT{{Zone: zone, RT: rng.Uniform(0.1, 0.5)}}},
			{Op: OpDelayRow, ID: id, Row: randRow(rng, 5)},
			{Op: OpLeave, ID: id},
		} {
			payload, err := e.Encode()
			if err != nil {
				tb.Fatal(err)
			}
			payloads = append(payloads, payload)
		}
	}
	return append(payloads, []byte(`{"op":"resolve"}`), []byte(`{"op":"epoch","full_solves":3}`))
}

// TestReadEventTakesCanonicalRecords: every seed record without a delay
// map that is canonical (Encode writes it back byte for byte) is taken, as
// EventDecoder decodes it — the replay's one-pass path is the one used.
func TestReadEventTakesCanonicalRecords(t *testing.T) {
	taken := 0
	for _, payload := range journalSeeds(t) {
		want, err := DecodeEvent(payload)
		if err != nil {
			continue
		}
		raw, _ := want.Encode()
		if !bytes.Equal(raw, payload) || len(want.RTTs)+len(want.ClientRTTs) > 0 {
			continue
		}
		got, ok := readEvent(payload)
		if !ok || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: the one-pass reader gives %+v, %t; the decoder %+v", payload, got, ok, want)
		}
		taken++
	}
	if taken < 200 {
		t.Fatalf("the one-pass reader took %d seed records", taken)
	}
}

// FuzzReadEvent: on arbitrary bytes the one-pass reader declines, or yields
// exactly the Event EventDecoder yields; it takes nothing the decoder
// refuses. Seeded from journalSeeds.
func FuzzReadEvent(f *testing.F) {
	for _, payload := range journalSeeds(f) {
		f.Add(payload)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		got, ok := readEvent(payload)
		if !ok {
			return
		}
		if want, err := DecodeEvent(payload); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: the one-pass reader gives %+v; the decoder %+v, %v", payload, got, want, err)
		}
	})
}

// canonical is e as its encoding carries it: an empty slice or map is
// omitted, so it decodes back as nil.
func canonical(e *Event) *Event {
	c := *e
	v := reflect.ValueOf(&c).Elem()
	for i := range v.NumField() {
		if f := v.Field(i); (f.Kind() == reflect.Slice || f.Kind() == reflect.Map) && f.Len() == 0 {
			f.Set(reflect.Zero(f.Type()))
		}
	}
	return &c
}

// BenchmarkEventDecoder decodes the shipped journals' records in turn
// through one EventDecoder, as a replay does; allocs/op is per record.
func BenchmarkEventDecoder(b *testing.B) {
	dirs, err := filepath.Glob("../../testdata/shared-model/*/data")
	if err != nil || len(dirs) == 0 {
		b.Fatalf("no shipped journals (%v)", err)
	}
	var payloads [][]byte
	for _, dir := range dirs {
		if _, err := wal.Replay(dir, 0, func(_ uint64, p []byte) error {
			payloads = append(payloads, append([]byte(nil), p...))
			return nil
		}); err != nil {
			b.Fatal(err)
		}
	}
	var dec EventDecoder
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dec.Decode(payloads[i%len(payloads)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadEvent reads the records BenchmarkEventDecoder decodes as a
// replay does: in one pass, or through an EventDecoder when readEvent
// declines; allocs/op is per record, declined/op the share declined.
func BenchmarkReadEvent(b *testing.B) {
	dirs, err := filepath.Glob("../../testdata/shared-model/*/data")
	if err != nil || len(dirs) == 0 {
		b.Fatalf("no shipped journals (%v)", err)
	}
	var payloads [][]byte
	for _, dir := range dirs {
		if _, err := wal.Replay(dir, 0, func(_ uint64, p []byte) error {
			payloads = append(payloads, append([]byte(nil), p...))
			return nil
		}); err != nil {
			b.Fatal(err)
		}
	}
	var dec EventDecoder
	declined := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := payloads[i%len(payloads)]
		if _, ok := readEvent(p); !ok {
			declined++
			if _, err := dec.Decode(p); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(declined)/float64(b.N), "declined/op")
}
