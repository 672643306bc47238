// Package hop imports banned: whatever imports hop depends on it.
package hop

import "fixture/banned"

func F() int { return banned.F() }
