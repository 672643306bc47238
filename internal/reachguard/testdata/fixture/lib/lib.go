// Package lib declares what the fixture's use rules watch.
package lib

type Req struct {
	Path string
	Rows []int
}

func (r *Req) Reset() { r.Rows = r.Rows[:0] }

func Bump(r *Req) { r.Rows = append(r.Rows, 1) }
