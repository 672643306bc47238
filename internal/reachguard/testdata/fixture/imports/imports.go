// Package imports breaks the direct import rule.
package imports

import "fixture/banned"

func F() int { return banned.F() }
