package core

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// sameRow reports whether two decoded rows are the same value: both nil or
// both non-nil, equal length, bit-equal entries (so -0 and 0 differ).
func sameRow(a, b []float64) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// checkFloatRowDecode fails t unless the FloatRow and FloatRows decoders
// agree with encoding/json's []float64 and [][]float64 on data: bit-equal
// values or an error on both sides — through json.Unmarshal and through a
// direct UnmarshalJSON call, which has no validation pass in front of it.
func checkFloatRowDecode(t *testing.T, data []byte) {
	t.Helper()
	var want []float64
	wantErr := json.Unmarshal(data, &want)
	var got, direct FloatRow
	gotErr := json.Unmarshal(data, &got)
	directErr := direct.UnmarshalJSON(data)
	for _, c := range []struct {
		how string
		row []float64
		err error
	}{{"json.Unmarshal", got, gotErr}, {"UnmarshalJSON", direct, directErr}} {
		if (c.err != nil) != (wantErr != nil) || (wantErr == nil && !sameRow(c.row, want)) {
			t.Fatalf("row %q via %s: got %v, %v; encoding/json %v, %v", data, c.how, c.row, c.err, want, wantErr)
		}
	}

	var wantRows [][]float64
	wantErr = json.Unmarshal(data, &wantRows)
	var gotRows, directRows FloatRows
	gotErr = json.Unmarshal(data, &gotRows)
	directErr = directRows.UnmarshalJSON(data)
	for _, c := range []struct {
		how  string
		rows [][]float64
		err  error
	}{{"json.Unmarshal", gotRows, gotErr}, {"UnmarshalJSON", directRows, directErr}} {
		same := (c.rows == nil) == (wantRows == nil) && len(c.rows) == len(wantRows)
		for i := 0; same && i < len(c.rows); i++ {
			same = sameRow(c.rows[i], wantRows[i])
		}
		if (c.err != nil) != (wantErr != nil) || (wantErr == nil && !same) {
			t.Fatalf("rows %q via %s: got %v, %v; encoding/json %v, %v", data, c.how, c.rows, c.err, wantRows, wantErr)
		}
	}
}

// floatRowCases are the edge cases the decoder must settle exactly as
// encoding/json does; they also seed FuzzFloatRows.
var floatRowCases = []string{
	`null`, ` null `, `[]`, ` [ ] `, `[null]`, `[null,null]`, `[-0]`, `[0,-0.0,-0e5]`,
	`[1.5, 2e3, -4.25E-2 ,1e-400]`, `[1e400]`, `[-1e400]`, `[1,"x"]`, `["1"]`, `[true]`,
	`[{}]`, `[[1]]`, `[[1],[2,3]]`, `[null,[],[null,4]]`, `[[1],2]`, `"row"`, `7`, `false`,
	`{"a":1}`, `[1,]`, `[,1]`, `[1 2]`, `[01]`, `[1.]`, `[.5]`, `[+1]`, `[1e]`, `[1e+]`,
	`[-]`, `[1]]`, `[1] x`, `[1`, `[`, ``, `nul`, `nulll`, `[nul]`, `[NaN]`, `[Infinity]`,
	`[0x10]`, "[1,\v2]", "[\t1,\n2\r]",
}

func TestFloatRowMatchesEncodingJSON(t *testing.T) {
	for _, c := range floatRowCases {
		checkFloatRowDecode(t, []byte(c))
	}
}

// TestFloatRowErrorTexts: inside a struct, a refused row reads exactly as
// encoding/json words the refusal of a []float64 field.
func TestFloatRowErrorTexts(t *testing.T) {
	for _, c := range []string{`{"r":[1,"x"]}`, `{"r":[1e400]}`, `{"r":"row"}`, `{"r":[true]}`, `{"r":[{}]}`, `{"r":[[2]]}`} {
		var want struct {
			R []float64 `json:"r"`
		}
		var got struct {
			R FloatRow `json:"r"`
		}
		wantErr, gotErr := json.Unmarshal([]byte(c), &want), json.Unmarshal([]byte(c), &got)
		if wantErr == nil || gotErr == nil || gotErr.Error() != wantErr.Error() {
			t.Errorf("%s: got error %v, encoding/json %v", c, gotErr, wantErr)
		}
	}
}

// snapshotRowSeeds returns every number array and every array of number
// arrays found in the repository's stored snapshots.
func snapshotRowSeeds(f *testing.F) [][]byte {
	paths, err := filepath.Glob("../../testdata/shared-model/*/data/snap-*.json")
	if err != nil || len(paths) == 0 {
		f.Fatalf("no stored snapshots to seed from: %v", err)
	}
	var seeds [][]byte
	var walk func(v any)
	walk = func(v any) {
		switch v := v.(type) {
		case map[string]any:
			for _, x := range v {
				walk(x)
			}
		case []any:
			rows, nums := len(v) > 0, true
			for _, x := range v {
				_, isNum := x.(float64)
				_, isArr := x.([]any)
				nums = nums && isNum
				rows = rows && isArr
				walk(x)
			}
			if nums || rows {
				b, err := json.Marshal(v)
				if err != nil {
					f.Fatal(err)
				}
				seeds = append(seeds, b)
			}
		}
	}
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		var doc any
		if err := json.Unmarshal(raw, &doc); err != nil {
			f.Fatalf("%s: %v", p, err)
		}
		walk(doc)
	}
	return seeds
}

// FuzzFloatRows drives the row decoders against encoding/json on arbitrary
// bytes: bit-equal values, or an error from both.
func FuzzFloatRows(f *testing.F) {
	for _, s := range snapshotRowSeeds(f) {
		f.Add(s)
	}
	for _, c := range floatRowCases {
		f.Add([]byte(c))
	}
	f.Fuzz(checkFloatRowDecode)
}
