// Package banned is the package the fixture's import rules forbid.
package banned

func F() int { return 1 }
