// Package uses breaks the use rule: a call, and a function value.
package uses

import "fixture/lib"

func F(r *lib.Req) {
	r.Reset()
	bump := lib.Bump
	bump(r)
}
