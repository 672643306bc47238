// Package vworld makes the paper's virtual world concrete. The paper
// treats zones as opaque IDs ("the virtual world is spatially partitioned
// into several distinct zones, with each zone managed by only one server")
// and models movement as an abstract zone change; vworld supplies the
// spatial layer underneath: a rectangular world map partitioned into a
// grid of zones, avatars with continuous positions, and a random-waypoint
// mobility model whose boundary crossings *produce* the zone-change events
// the assignment layer consumes.
//
// This is the substrate a real DVE would sit on, and it grounds the
// simulation's "clients move to another zone" in actual avatar movement.
package vworld

import (
	"fmt"
	"math"

	"dvecap/internal/xrand"
)

// Map is a rectangular virtual world partitioned into a Cols × Rows zone
// grid. Zone IDs are row-major: zone = row*Cols + col.
type Map struct {
	Width, Height float64 // world extent in virtual-distance units
	Cols, Rows    int     // zone grid shape
}

// NewMap validates and returns a map.
func NewMap(width, height float64, cols, rows int) (*Map, error) {
	switch {
	case width <= 0 || height <= 0:
		return nil, fmt.Errorf("vworld: map size %vx%v, want > 0", width, height)
	case cols <= 0 || rows <= 0:
		return nil, fmt.Errorf("vworld: grid %dx%d, want > 0", cols, rows)
	}
	return &Map{Width: width, Height: height, Cols: cols, Rows: rows}, nil
}

// Zones returns the zone count.
func (m *Map) Zones() int { return m.Cols * m.Rows }

// ZoneAt maps a position to its zone ID. Positions are clamped to the
// world bounds, so edge coordinates belong to the last row/column.
func (m *Map) ZoneAt(x, y float64) int {
	col := int(x / m.Width * float64(m.Cols))
	row := int(y / m.Height * float64(m.Rows))
	if col < 0 {
		col = 0
	}
	if col >= m.Cols {
		col = m.Cols - 1
	}
	if row < 0 {
		row = 0
	}
	if row >= m.Rows {
		row = m.Rows - 1
	}
	return row*m.Cols + col
}

// ZoneCenter returns the centre position of a zone.
func (m *Map) ZoneCenter(zone int) (x, y float64) {
	col := zone % m.Cols
	row := zone / m.Cols
	return (float64(col) + 0.5) * m.Width / float64(m.Cols),
		(float64(row) + 0.5) * m.Height / float64(m.Rows)
}

// Avatar is one client's presence in the virtual world, moving under the
// random-waypoint model: pick a destination uniformly in the world, walk
// there at the avatar's speed, pause, repeat.
type Avatar struct {
	X, Y     float64 // current position
	destX    float64
	destY    float64
	Speed    float64 // distance units per second
	pauseSec float64 // remaining pause before the next leg
}

// World animates a population of avatars over a Map.
type World struct {
	Map     *Map
	Avatars []Avatar

	// PauseMeanSec is the mean pause between movement legs.
	PauseMeanSec float64

	hotZones []int
	hotBias  float64

	// Correlated group movement: group[i] is avatar i's group (-1 when
	// ungrouped); anchorX/anchorY track each group's rally point — the
	// destination its leader (the group's lowest avatar index) last chose.
	group     []int
	anchorX   []float64
	anchorY   []float64
	groupBias float64

	rng *xrand.RNG
}

// Config parameterises NewWorld.
type Config struct {
	Avatars      int
	MinSpeed     float64 // slowest avatar speed (> 0)
	MaxSpeed     float64 // fastest avatar speed (>= MinSpeed)
	PauseMeanSec float64 // mean pause at each waypoint (>= 0)
	// HotZones optionally biases initial placement and waypoint choice:
	// with probability HotBias a destination is drawn inside a hot zone.
	HotZones []int
	HotBias  float64 // in [0,1)
	// Groups partitions avatars round-robin into this many movement groups
	// (guilds, raid parties): each group's leader walks plain (hot-biased)
	// random waypoint, and with probability GroupBias a member draws its
	// next waypoint within one zone-size box of the leader's current
	// destination instead of uniformly. Correlated movement concentrates
	// zone crossings onto repeatable zone pairs — exactly the interaction
	// locality a traffic-aware assignment can exploit. 0 disables grouping.
	Groups    int
	GroupBias float64 // in [0,1)
}

// NewWorld places avatars uniformly (or hot-biased) and assigns speeds
// uniformly in [MinSpeed, MaxSpeed].
func NewWorld(rng *xrand.RNG, m *Map, cfg Config) (*World, error) {
	switch {
	case cfg.Avatars < 0:
		return nil, fmt.Errorf("vworld: %d avatars, want >= 0", cfg.Avatars)
	case cfg.MinSpeed <= 0 || cfg.MaxSpeed < cfg.MinSpeed:
		return nil, fmt.Errorf("vworld: speed range [%v,%v] invalid", cfg.MinSpeed, cfg.MaxSpeed)
	case cfg.PauseMeanSec < 0:
		return nil, fmt.Errorf("vworld: PauseMeanSec = %v, want >= 0", cfg.PauseMeanSec)
	case cfg.HotBias < 0 || cfg.HotBias >= 1:
		return nil, fmt.Errorf("vworld: HotBias = %v, want [0,1)", cfg.HotBias)
	case cfg.HotBias > 0 && len(cfg.HotZones) == 0:
		return nil, fmt.Errorf("vworld: HotBias set with no hot zones")
	case cfg.Groups < 0:
		return nil, fmt.Errorf("vworld: %d groups, want >= 0", cfg.Groups)
	case cfg.GroupBias < 0 || cfg.GroupBias >= 1:
		return nil, fmt.Errorf("vworld: GroupBias = %v, want [0,1)", cfg.GroupBias)
	case cfg.GroupBias > 0 && cfg.Groups == 0:
		return nil, fmt.Errorf("vworld: GroupBias set with no groups")
	}
	w := &World{Map: m, PauseMeanSec: cfg.PauseMeanSec, rng: rng}
	w.hotZones = cfg.HotZones
	w.hotBias = cfg.HotBias
	w.groupBias = cfg.GroupBias
	if cfg.Groups > 0 {
		w.anchorX = make([]float64, cfg.Groups)
		w.anchorY = make([]float64, cfg.Groups)
	}
	for i := 0; i < cfg.Avatars; i++ {
		// Round-robin grouping makes avatar g the leader of group g: it is
		// created (and draws its first destination, seeding the anchor)
		// before any member of its group.
		if cfg.Groups > 0 {
			w.group = append(w.group, i%cfg.Groups)
		} else {
			w.group = append(w.group, -1)
		}
		x, y := w.drawDest(i)
		a := Avatar{
			X: x, Y: y,
			Speed: rng.Uniform(cfg.MinSpeed, cfg.MaxSpeed),
		}
		a.destX, a.destY = w.drawDest(i)
		w.Avatars = append(w.Avatars, a)
	}
	return w, nil
}

// drawPoint samples a position, hot-biased when configured.
func (w *World) drawPoint() (float64, float64) {
	if w.hotBias > 0 && w.rng.Bool(w.hotBias) {
		zone := w.hotZones[w.rng.IntN(len(w.hotZones))]
		cx, cy := w.Map.ZoneCenter(zone)
		zw := w.Map.Width / float64(w.Map.Cols)
		zh := w.Map.Height / float64(w.Map.Rows)
		return cx + w.rng.Uniform(-zw/2, zw/2), cy + w.rng.Uniform(-zh/2, zh/2)
	}
	return w.rng.Uniform(0, w.Map.Width), w.rng.Uniform(0, w.Map.Height)
}

// drawDest samples avatar i's next destination. Group members follow
// their leader's rally point with probability GroupBias; a leader's own
// draw (plain hot-biased random waypoint) becomes the group's new anchor.
func (w *World) drawDest(i int) (float64, float64) {
	g := w.group[i]
	if g >= 0 && g != i && w.groupBias > 0 && w.rng.Bool(w.groupBias) {
		// Follower: uniform within one zone-size box around the anchor,
		// clamped to the world — close enough to interact, loose enough
		// that members still cross zone borders around the rally point.
		zw := w.Map.Width / float64(w.Map.Cols)
		zh := w.Map.Height / float64(w.Map.Rows)
		return clamp(w.anchorX[g]+w.rng.Uniform(-zw, zw), 0, w.Map.Width),
			clamp(w.anchorY[g]+w.rng.Uniform(-zh, zh), 0, w.Map.Height)
	}
	x, y := w.drawPoint()
	if g >= 0 && g == i {
		w.anchorX[g], w.anchorY[g] = x, y
	}
	return x, y
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Crossing is one avatar's zone-border crossing during a step: the
// zone-change event the assignment layer consumes, and — aggregated over
// time — the observed interaction weight between the two zones.
type Crossing struct {
	Avatar   int // index into Avatars
	From, To int // zone IDs (From != To)
}

// StepCrossings advances the world by dt seconds and returns each zone
// crossing with its endpoints, so callers can both relocate the client
// (To) and accumulate the observed (From,To) interaction edge.
func (w *World) StepCrossings(dt float64) []Crossing {
	var out []Crossing
	for i := range w.Avatars {
		a := &w.Avatars[i]
		before := w.Map.ZoneAt(a.X, a.Y)
		w.stepAvatar(i, dt)
		if after := w.Map.ZoneAt(a.X, a.Y); after != before {
			out = append(out, Crossing{Avatar: i, From: before, To: after})
		}
	}
	return out
}

func (w *World) stepAvatar(i int, dt float64) {
	a := &w.Avatars[i]
	remaining := dt
	for remaining > 0 {
		if a.pauseSec > 0 {
			if a.pauseSec >= remaining {
				a.pauseSec -= remaining
				return
			}
			remaining -= a.pauseSec
			a.pauseSec = 0
		}
		dx, dy := a.destX-a.X, a.destY-a.Y
		dist := math.Sqrt(dx*dx + dy*dy)
		reach := a.Speed * remaining
		if reach < dist {
			a.X += dx / dist * reach
			a.Y += dy / dist * reach
			return
		}
		// Arrive, pause, pick the next waypoint.
		a.X, a.Y = a.destX, a.destY
		if dist > 0 {
			remaining -= dist / a.Speed
		}
		if w.PauseMeanSec > 0 {
			a.pauseSec = w.rng.Exp(1 / w.PauseMeanSec)
		}
		a.destX, a.destY = w.drawDest(i)
	}
}

// ZoneOf returns avatar i's current zone.
func (w *World) ZoneOf(i int) int {
	return w.Map.ZoneAt(w.Avatars[i].X, w.Avatars[i].Y)
}

// ZoneVector returns every avatar's current zone, index-aligned with
// Avatars — the client-zone input to problem construction.
func (w *World) ZoneVector() []int {
	out := make([]int, len(w.Avatars))
	for i := range w.Avatars {
		out[i] = w.ZoneOf(i)
	}
	return out
}

// Populations returns the avatar count per zone.
func (w *World) Populations() []int {
	pop := make([]int, w.Map.Zones())
	for i := range w.Avatars {
		pop[w.ZoneOf(i)]++
	}
	return pop
}
