// Package mobility provides the geographic side of the measurement campaign:
// scenario geometry (urban / suburban / beltway / indoor), cell-site
// deployments, and the three mobility patterns used in the paper's data
// collection (stationary, walking, driving — Table 1).
package mobility

import (
	"fmt"
	"math"

	"prism5g/internal/rng"
)

// Point is a 2D position in meters.
type Point struct{ X, Y float64 }

// Dist returns the Euclidean distance between two points.
func (p Point) Dist(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Scenario is the measurement environment class (paper Table 1).
type Scenario uint8

const (
	// Urban is dense downtown with the densest site grid.
	Urban Scenario = iota
	// Suburban has mid-density deployment.
	Suburban
	// Beltway is highway driving along a sparse roadside deployment.
	Beltway
	// Indoor is in-building with outdoor macro sites only.
	Indoor
)

// String implements fmt.Stringer.
func (s Scenario) String() string {
	switch s {
	case Urban:
		return "urban"
	case Suburban:
		return "suburban"
	case Beltway:
		return "beltway"
	default:
		return "indoor"
	}
}

// AllScenarios lists the four scenario classes.
func AllScenarios() []Scenario { return []Scenario{Urban, Suburban, Beltway, Indoor} }

// SiteSpacingM returns the typical inter-site distance of the scenario.
func (s Scenario) SiteSpacingM() float64 {
	switch s {
	case Urban:
		return 350
	case Suburban:
		return 900
	case Beltway:
		return 1400
	default: // Indoor served by outdoor macros
		return 400
	}
}

// IsIndoor reports whether UEs in the scenario incur building-entry loss.
func (s Scenario) IsIndoor() bool { return s == Indoor }

// ExtentM returns the side length of the simulated square area in meters.
func (s Scenario) ExtentM() float64 {
	switch s {
	case Urban:
		return 1500
	case Suburban:
		return 3000
	case Beltway:
		return 8000
	default:
		return 1000
	}
}

// Mobility is the UE movement pattern (paper Table 1).
type Mobility uint8

const (
	// Stationary keeps the UE at one point.
	Stationary Mobility = iota
	// Walking moves at pedestrian speed with random waypoints.
	Walking
	// Driving follows street/highway routes at vehicular speed.
	Driving
)

// String implements fmt.Stringer.
func (m Mobility) String() string {
	switch m {
	case Stationary:
		return "stationary"
	case Walking:
		return "walking"
	default:
		return "driving"
	}
}

// ParseMobility maps a pattern's exact String form to the pattern.
func ParseMobility(s string) (Mobility, error) {
	for _, m := range []Mobility{Stationary, Walking, Driving} {
		if m.String() == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("unknown mobility %q (want stationary, walking or driving)", s)
}

// SpeedMps returns the nominal speed in meters/second for the pattern in a
// scenario (beltway driving is faster than urban driving — the paper notes
// CC changes every 16.1 s on highways vs 34.0 s in urban).
func (m Mobility) SpeedMps(s Scenario) float64 {
	switch m {
	case Stationary:
		return 0
	case Walking:
		return 1.4
	default:
		if s == Beltway {
			return 28 // ~100 km/h
		}
		if s == Suburban {
			return 14
		}
		return 9 // urban stop-and-go average
	}
}

// Deployment is a set of cell-site positions covering a scenario area.
type Deployment struct {
	Scenario Scenario
	Sites    []Point
}

// NewDeployment lays out sites on a jittered hexagonal-ish grid across the
// scenario extent (or along the road for Beltway), deterministically from
// src.
func NewDeployment(sc Scenario, src *rng.Source) *Deployment {
	s := src.Split()
	d := &Deployment{Scenario: sc}
	ext := sc.ExtentM()
	sp := sc.SiteSpacingM()
	if sc == Beltway {
		// Sites alternate sides of a straight east-west highway at y=0.
		side := 1.0
		for x := sp / 2; x < ext; x += sp {
			d.Sites = append(d.Sites, Point{
				X: x + s.NormMS(0, sp*0.08),
				Y: side * (80 + s.Range(0, 120)),
			})
			side = -side
		}
		return d
	}
	row := 0
	for y := sp / 2; y < ext; y += sp * 0.87 {
		offset := 0.0
		if row%2 == 1 {
			offset = sp / 2
		}
		for x := sp/2 + offset; x < ext; x += sp {
			d.Sites = append(d.Sites, Point{
				X: x + s.NormMS(0, sp*0.1),
				Y: y + s.NormMS(0, sp*0.1),
			})
		}
		row++
	}
	return d
}

// Nearest returns the index and distance of the site closest to p.
func (d *Deployment) Nearest(p Point) (int, float64) {
	best, bd := -1, math.Inf(1)
	for i, s := range d.Sites {
		if dist := s.Dist(p); dist < bd {
			best, bd = i, dist
		}
	}
	return best, bd
}

// SitesWithin returns indices of sites within radius r of p.
func (d *Deployment) SitesWithin(p Point, r float64) []int {
	var out []int
	for i, s := range d.Sites {
		if s.Dist(p) <= r {
			out = append(out, i)
		}
	}
	return out
}

// Mover produces a UE trajectory through a scenario. Advance it with Step
// and read Pos. All movers are deterministic given their source.
type Mover struct {
	Scenario Scenario
	Pattern  Mobility
	pos      Point
	target   Point
	speed    float64
	src      *rng.Source
	traveled float64
}

// NewMover creates a mover starting at start. For Stationary the UE never
// leaves start; Walking picks random waypoints within ~120 m; Driving picks
// waypoints across the whole extent (Manhattan-ish legs in urban, straight
// line on the beltway).
func NewMover(sc Scenario, pat Mobility, start Point, src *rng.Source) *Mover {
	m := &Mover{
		Scenario: sc,
		Pattern:  pat,
		pos:      start,
		speed:    pat.SpeedMps(sc),
		src:      src.Split(),
	}
	m.target = m.nextTarget()
	return m
}

func (m *Mover) nextTarget() Point {
	switch m.Pattern {
	case Stationary:
		return m.pos
	case Walking:
		return Point{
			X: m.pos.X + m.src.NormMS(0, 60),
			Y: m.pos.Y + m.src.NormMS(0, 60),
		}
	default:
		ext := m.Scenario.ExtentM()
		if m.Scenario == Beltway {
			// Keep driving along the highway (y near 0).
			return Point{X: m.src.Range(0, ext), Y: m.src.NormMS(0, 5)}
		}
		// Manhattan-style leg: change one coordinate at a time.
		if m.src.Bool(0.5) {
			return Point{X: m.src.Range(0.1*ext, 0.9*ext), Y: m.pos.Y}
		}
		return Point{X: m.pos.X, Y: m.src.Range(0.1*ext, 0.9*ext)}
	}
}

// Pos returns the current position.
func (m *Mover) Pos() Point { return m.pos }

// Traveled returns the cumulative distance traveled in meters.
func (m *Mover) Traveled() float64 { return m.traveled }

// Step advances the mover by dt seconds and returns the distance moved.
// Speed is jittered ±20% to avoid artificial periodicity.
func (m *Mover) Step(dt float64) float64 {
	if m.Pattern == Stationary || m.speed == 0 {
		return 0
	}
	step := m.speed * dt * m.src.Range(0.8, 1.2)
	remaining := step
	for remaining > 0 {
		d := m.pos.Dist(m.target)
		if d < 1e-9 {
			m.target = m.nextTarget()
			if m.pos.Dist(m.target) < 1e-9 {
				break
			}
			continue
		}
		if d <= remaining {
			m.pos = m.target
			remaining -= d
			m.target = m.nextTarget()
			continue
		}
		frac := remaining / d
		m.pos.X += (m.target.X - m.pos.X) * frac
		m.pos.Y += (m.target.Y - m.pos.Y) * frac
		remaining = 0
	}
	moved := step - remaining
	m.traveled += moved
	return moved
}

// GridCell returns the integer grid coordinates of p at the given cell size,
// used for the spatial CA maps (paper Fig 4).
func GridCell(p Point, cellM float64) (int, int) {
	return int(math.Floor(p.X / cellM)), int(math.Floor(p.Y / cellM))
}

// FormatGrid renders a small integer grid id as "x,y".
func FormatGrid(x, y int) string { return fmt.Sprintf("%d,%d", x, y) }
