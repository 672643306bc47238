// Command fixture is the reachability guard's and the rule table's
// self-test input.
package main

import (
	"fmt"

	"fixture/callarg"
	"fixture/clean"
	"fixture/deps"
	"fixture/imports"
	"fixture/lib"
	"fixture/nilcmp"
	"fixture/uses"
)

type point struct{ x int }

func (p point) String() string { return fmt.Sprint(p.x) } // reached via fmt.Stringer

func main() {
	fmt.Println(live(), point{1})
	r := &lib.Req{Path: "/a"}
	uses.F(r)
	fmt.Println(deps.F(), imports.F(), nilcmp.F(r), callarg.F(r), clean.F(r))
}

func live() int { return 1 }

func testOnly() int         { return onlyFromTestOnly() } // main_test.go calls it
func onlyFromTestOnly() int { return 2 }
func allowed() int          { return 3 }
