// Package callarg breaks the call-argument rule.
package callarg

import (
	"strings"

	"fixture/lib"
)

func F(r *lib.Req) string { return strings.TrimPrefix(strings.ToLower(r.Path), "/") }
