package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"strconv"
	"strings"
)

// FloatRow is a dense row of float64 values as the JSON formats carry it —
// a client's delay row in a cluster spec, a journal record or a version-1–2
// snapshot, and the coordinate store's arrays there — with a JSON decoder
// that parses the array itself instead of going through encoding/json's
// reflection, which dominated the cost of loading a snapshot of dense rows.
// Version-3 and later snapshots keep these arrays as binary float64 instead
// (repair.FloatBlock), so FloatRow reads them only from older snapshots.
//
// It decodes exactly what encoding/json decodes into a fresh []float64,
// value for value or error for error: null is a nil row, a null element is
// 0, a string, bool, object, nested array or out-of-range number is an
// error (the same *json.UnmarshalTypeError, so the message reads the same),
// and -0 stays -0. There is deliberately no MarshalJSON: encoding/json's
// own rendering of a []float64 is the byte format the on-disk pins hold.
type FloatRow []float64

// FloatRows is a list of FloatRow-decoded rows (a batch join's rows, the
// coordinate store's override values, the exact store's group rows). It
// stays a [][]float64 so every caller keeps handing and taking plain rows.
type FloatRows [][]float64

var (
	float64Type = reflect.TypeFor[float64]()
	rowType     = reflect.TypeFor[[]float64]()
	rowsType    = reflect.TypeFor[[][]float64]()
)

// UnmarshalJSON implements json.Unmarshaler.
func (r *FloatRow) UnmarshalJSON(data []byte) error {
	s := rowScanner{b: data}
	row, err := s.row(rowType)
	if err == nil {
		err = s.end()
	}
	if err != nil {
		return err
	}
	*r = row
	return nil
}

// UnmarshalJSON implements json.Unmarshaler.
func (r *FloatRows) UnmarshalJSON(data []byte) error {
	s := rowScanner{b: data}
	rows, err := s.rows()
	if err == nil {
		err = s.end()
	}
	if err != nil {
		return err
	}
	*r = rows
	return nil
}

// errRowSyntax reports bytes that are not JSON at all. encoding/json
// validates a document before it hands an Unmarshaler its value, so only a
// direct UnmarshalJSON call on malformed bytes sees it.
var errRowSyntax = errors.New("core: malformed JSON float row")

// rowScanner walks one JSON value of the shape null | [(number|null),...]
// (rows) or null | [row,...] (rows of rows), checking the grammar as it
// goes so a malformed input is an error even outside encoding/json.
type rowScanner struct {
	b []byte
	i int
}

func (s *rowScanner) skipSpace() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// end accepts only trailing whitespace after the value.
func (s *rowScanner) end() error {
	s.skipSpace()
	if s.i != len(s.b) {
		return errRowSyntax
	}
	return nil
}

// null consumes the literal null if it comes next.
func (s *rowScanner) null() bool {
	if len(s.b)-s.i >= 4 && string(s.b[s.i:s.i+4]) == "null" {
		s.i += 4
		return true
	}
	return false
}

// mismatch is the error for a well-formed value of the wrong kind at the
// cursor, as encoding/json words it; bytes that start no JSON value are a
// syntax error.
func (s *rowScanner) mismatch(t reflect.Type) error {
	var kind string
	if s.i < len(s.b) {
		switch s.b[s.i] {
		case '"':
			kind = "string"
		case 't', 'f':
			kind = "bool"
		case '{':
			kind = "object"
		case '[':
			kind = "array"
		case '-', '0', '1', '2', '3', '4', '5', '6', '7', '8', '9':
			kind = "number"
		}
	}
	if kind == "" {
		return errRowSyntax
	}
	return &json.UnmarshalTypeError{Value: kind, Type: t, Offset: int64(s.i)}
}

// open consumes '[' and reports whether the array is empty (its ']'
// consumed too).
func (s *rowScanner) open() (empty bool) {
	s.i++
	s.skipSpace()
	if s.i < len(s.b) && s.b[s.i] == ']' {
		s.i++
		return true
	}
	return false
}

// next consumes the ',' or ']' after an element and reports whether the
// array goes on.
func (s *rowScanner) next() (more bool, err error) {
	s.skipSpace()
	if s.i < len(s.b) {
		switch s.b[s.i] {
		case ',':
			s.i++
			return true, nil
		case ']':
			s.i++
			return false, nil
		}
	}
	return false, errRowSyntax
}

// row parses null (a nil row) or an array of numbers and nulls; t is the
// Go type a mismatch error names.
func (s *rowScanner) row(t reflect.Type) ([]float64, error) {
	s.skipSpace()
	if s.null() {
		return nil, nil
	}
	if s.i >= len(s.b) || s.b[s.i] != '[' {
		return nil, s.mismatch(t)
	}
	// One allocation of the exact length: a row of numbers has one comma
	// fewer than elements before its ']'.
	rest := s.b[s.i:]
	if end := bytes.IndexByte(rest, ']'); end >= 0 {
		rest = rest[:end]
	}
	out := make([]float64, 0, 1+bytes.Count(rest, []byte{','}))
	if s.open() {
		return out, nil
	}
	for {
		s.skipSpace()
		v, err := s.number()
		if err != nil {
			return nil, err
		}
		out = append(out, v)
		more, err := s.next()
		if err != nil {
			return nil, err
		}
		if !more {
			return out, nil
		}
	}
}

// rows parses null or an array of rows, a null element a nil row.
func (s *rowScanner) rows() ([][]float64, error) {
	s.skipSpace()
	if s.null() {
		return nil, nil
	}
	if s.i >= len(s.b) || s.b[s.i] != '[' {
		return nil, s.mismatch(rowsType)
	}
	out := [][]float64{}
	if s.open() {
		return out, nil
	}
	for {
		row, err := s.row(rowType)
		if err != nil {
			return nil, err
		}
		out = append(out, row)
		more, err := s.next()
		if err != nil {
			return nil, err
		}
		if !more {
			return out, nil
		}
	}
}

// number parses one element: a JSON number through strconv.ParseFloat, as
// encoding/json does, or null, which leaves a fresh element 0.
func (s *rowScanner) number() (float64, error) {
	if s.null() {
		return 0, nil
	}
	b, start := s.b, s.i
	i := start
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		return 0, s.mismatch(float64Type)
	}
	if i < len(b) && b[i] == '.' {
		if i = digits(b, i+1); b[i-1] == '.' {
			return 0, errRowSyntax
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return 0, errRowSyntax
		}
		i = j
	}
	s.i = i
	v, err := strconv.ParseFloat(string(b[start:i]), 64)
	if err != nil {
		return 0, &json.UnmarshalTypeError{Value: "number " + string(b[start:i]), Type: float64Type, Offset: int64(start)}
	}
	return v, nil
}

// digits returns the index just past the run of decimal digits at i.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// Plain reports whether encoding/json writes s unescaped: no byte below
// 0x20 or from 0x80 up (invalid UTF-8, U+2028), none of " \ < > &.
func Plain[S string | []byte](s S) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || strings.IndexByte(`"\<>&`, c) >= 0 {
			return false
		}
	}
	return true
}

// AppendString appends s as a JSON string: as is when plain, else as
// encoding/json quotes it.
func AppendString(b []byte, s string) []byte {
	if Plain(s) {
		return append(append(append(b, '"'), s...), '"')
	}
	q, _ := json.Marshal(s) // a string always marshals
	return append(b, q...)
}

// WireReader reads canonical JSON — members in a fixed order, no space
// inside, nothing to escape — in one pass for the director's wire codec and
// the journal's record reader: each step consumes what it expects from Rest
// or clears OK, after which no step consumes anything.
type WireReader struct {
	Rest []byte
	OK   bool
}

// Key consumes the literal s that comes before a value.
func (r *WireReader) Key(s string) *WireReader {
	if r.OK = r.OK && bytes.HasPrefix(r.Rest, []byte(s)); r.OK {
		r.Rest = r.Rest[len(s):]
	}
	return r
}

// Str consumes a plain string.
func (r *WireReader) Str() string {
	end := bytes.IndexByte(r.Rest[min(1, len(r.Rest)):], '"') + 1
	if r.OK = r.OK && end > 0 && r.Rest[0] == '"' && Plain(r.Rest[1:end]); !r.OK {
		return ""
	}
	s := string(r.Rest[1:end])
	r.Rest = r.Rest[end+1:]
	return s
}

// number consumes a number that encoding/json's scanner accepts.
func (r *WireReader) number() []byte {
	i := 0
	for i < len(r.Rest) && strings.IndexByte("+-.0123456789Ee", r.Rest[i]) >= 0 {
		i++
	}
	text := r.Rest[:i]
	if r.OK = r.OK && json.Valid(text); r.OK {
		r.Rest = r.Rest[i:]
	}
	return text
}

// Float consumes a number as encoding/json decodes it into a float64; one
// out of range, which encoding/json refuses, clears OK.
func (r *WireReader) Float() float64 {
	v, err := strconv.ParseFloat(string(r.number()), 64)
	r.OK = r.OK && err == nil
	return v
}

// Int consumes an integer short enough that no int overflows.
func (r *WireReader) Int() (n int) {
	text := r.number()
	digits := bytes.TrimPrefix(text, []byte("-"))
	r.OK = r.OK && len(digits) < strconv.IntSize*3/10 && !bytes.ContainsAny(digits, ".Ee")
	for _, c := range digits {
		n = 10*n + int(c-'0')
	}
	if len(digits) < len(text) {
		return -n
	}
	return n
}

// Row consumes a row as FloatRow decodes it.
func (r *WireReader) Row() []float64 {
	if !r.OK {
		return nil
	}
	s := rowScanner{b: r.Rest}
	row, err := s.row(rowType)
	if r.OK = err == nil; r.OK {
		r.Rest = r.Rest[s.i:]
	}
	return row
}

// Rows consumes rows of rows as FloatRows decodes them.
func (r *WireReader) Rows() [][]float64 {
	if !r.OK {
		return nil
	}
	s := rowScanner{b: r.Rest}
	rows, err := s.rows()
	if r.OK = err == nil; r.OK {
		r.Rest = r.Rest[s.i:]
	}
	return rows
}

// End consumes the closing s and reports whether only space follows.
func (r *WireReader) End(s string) bool {
	return r.Key(s).OK && len(bytes.TrimLeft(r.Rest, " \t\r\n")) == 0
}
