//go:build !race

package director

const raceEnabled = false
