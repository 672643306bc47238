// Command fixture is the reachability guard's self-test input.
package main

import "fmt"

type point struct{ x int }

func (p point) String() string { return fmt.Sprint(p.x) } // reached via fmt.Stringer

func main()     { fmt.Println(live(), point{1}) }
func live() int { return 1 }

func testOnly() int         { return onlyFromTestOnly() } // main_test.go calls it
func onlyFromTestOnly() int { return 2 }
func allowed() int          { return 3 }
