// Package deps breaks the transitive import rule.
package deps

import "fixture/hop"

func F() int { return hop.F() }
