// Package clean comes near every fixture rule and breaks none.
package clean

import (
	"strings"

	"fixture/lib"
)

func F(r *lib.Req) string {
	rows := r.Rows // never compared with nil
	var other *lib.Req
	if other == nil && len(rows) == 0 && !empty(r) {
		owner(r)
	}
	return strings.Clone(r.Path) + strings.TrimPrefix("/x", "/")
}

func owner(r *lib.Req) { r.Reset() } // the use rule's except names this declaration
