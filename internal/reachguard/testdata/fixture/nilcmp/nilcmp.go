// Package nilcmp breaks the nil-comparison rule both ways.
package nilcmp

import "fixture/lib"

func F(r *lib.Req) bool {
	if rows := r.Rows; rows == nil {
		return true
	}
	return nil != (r.Rows)
}
