package mobility

import (
	"math"
	"strings"
	"testing"

	"prism5g/internal/rng"
)

func TestPointDist(t *testing.T) {
	a, b := Point{0, 0}, Point{3, 4}
	if d := a.Dist(b); d != 5 {
		t.Fatalf("dist = %f", d)
	}
	if d := a.Dist(a); d != 0 {
		t.Fatalf("self dist = %f", d)
	}
}

func TestScenarioProperties(t *testing.T) {
	for _, s := range AllScenarios() {
		if s.SiteSpacingM() <= 0 || s.ExtentM() <= 0 {
			t.Fatalf("%s: bad geometry", s)
		}
		if s.String() == "" {
			t.Fatalf("empty scenario string")
		}
	}
	if !Indoor.IsIndoor() || Urban.IsIndoor() {
		t.Fatal("IsIndoor wrong")
	}
	if Urban.SiteSpacingM() >= Suburban.SiteSpacingM() {
		t.Fatal("urban must be denser than suburban")
	}
	if Suburban.SiteSpacingM() >= Beltway.SiteSpacingM() {
		t.Fatal("suburban must be denser than beltway")
	}
}

func TestMobilitySpeeds(t *testing.T) {
	if Stationary.SpeedMps(Urban) != 0 {
		t.Fatal("stationary moves")
	}
	if w := Walking.SpeedMps(Urban); w <= 0 || w > 3 {
		t.Fatalf("walking speed = %f", w)
	}
	if Driving.SpeedMps(Beltway) <= Driving.SpeedMps(Urban) {
		t.Fatal("beltway driving should be faster than urban")
	}
	for _, m := range []Mobility{Stationary, Walking, Driving} {
		if m.String() == "" {
			t.Fatal("empty mobility string")
		}
	}
}

func TestDeploymentCoversArea(t *testing.T) {
	src := rng.New(1)
	for _, sc := range []Scenario{Urban, Suburban, Indoor} {
		d := NewDeployment(sc, src)
		if len(d.Sites) < 4 {
			t.Fatalf("%s: only %d sites", sc, len(d.Sites))
		}
		// Any point well inside the area should have a site within ~1.5
		// grid spacings.
		ext, sp := sc.ExtentM(), sc.SiteSpacingM()
		for _, p := range []Point{{ext / 2, ext / 2}, {ext / 4, ext / 3}, {ext * 0.7, ext * 0.6}} {
			_, dist := d.Nearest(p)
			if dist > 1.6*sp {
				t.Errorf("%s: nearest site %.0fm away at %v (spacing %.0f)", sc, dist, p, sp)
			}
		}
	}
}

func TestBeltwayDeploymentFollowsRoad(t *testing.T) {
	d := NewDeployment(Beltway, rng.New(2))
	if len(d.Sites) < 4 {
		t.Fatalf("beltway sites = %d", len(d.Sites))
	}
	for _, s := range d.Sites {
		if math.Abs(s.Y) > 400 {
			t.Fatalf("beltway site too far from road: %+v", s)
		}
	}
}

func TestDeploymentDeterminism(t *testing.T) {
	d1 := NewDeployment(Urban, rng.New(42))
	d2 := NewDeployment(Urban, rng.New(42))
	if len(d1.Sites) != len(d2.Sites) {
		t.Fatal("site counts differ")
	}
	for i := range d1.Sites {
		if d1.Sites[i] != d2.Sites[i] {
			t.Fatal("deployments differ for same seed")
		}
	}
}

func TestNearestAndWithin(t *testing.T) {
	d := &Deployment{Sites: []Point{{0, 0}, {100, 0}, {500, 500}}}
	i, dist := d.Nearest(Point{90, 10})
	if i != 1 {
		t.Fatalf("nearest = %d", i)
	}
	if math.Abs(dist-math.Sqrt(200)) > 1e-9 {
		t.Fatalf("dist = %f", dist)
	}
}

func TestStationaryMoverNeverMoves(t *testing.T) {
	m := NewMover(Urban, Stationary, Point{10, 20}, rng.New(3))
	for i := 0; i < 100; i++ {
		if moved := m.Step(1); moved != 0 {
			t.Fatal("stationary mover moved")
		}
	}
	if m.Pos() != (Point{10, 20}) {
		t.Fatalf("pos = %+v", m.Pos())
	}
	if m.Traveled() != 0 {
		t.Fatal("traveled != 0")
	}
}

func TestWalkingMoverStaysLocal(t *testing.T) {
	start := Point{500, 500}
	m := NewMover(Urban, Walking, start, rng.New(4))
	var total float64
	for i := 0; i < 600; i++ { // 10 minutes
		total += m.Step(1)
	}
	if total < 300 {
		t.Fatalf("walker traveled only %.0fm in 10min", total)
	}
	if m.Pos().Dist(start) > 1200 {
		t.Fatalf("walker wandered %.0fm from start", m.Pos().Dist(start))
	}
	if math.Abs(m.Traveled()-total) > 1e-6 {
		t.Fatal("Traveled() inconsistent")
	}
}

func TestDrivingMoverCoversDistance(t *testing.T) {
	m := NewMover(Urban, Driving, Point{750, 750}, rng.New(5))
	var total float64
	for i := 0; i < 300; i++ {
		total += m.Step(1)
	}
	// ~9 m/s * 300s = 2700m, jittered.
	if total < 1800 || total > 3600 {
		t.Fatalf("urban drive covered %.0fm", total)
	}
}

func TestBeltwayMoverStaysOnRoad(t *testing.T) {
	m := NewMover(Beltway, Driving, Point{100, 0}, rng.New(6))
	for i := 0; i < 600; i++ {
		m.Step(1)
		if math.Abs(m.Pos().Y) > 50 {
			t.Fatalf("beltway driver left the road: %+v", m.Pos())
		}
	}
	if m.Traveled() < 10000 {
		t.Fatalf("beltway driver covered only %.0fm", m.Traveled())
	}
}

func TestMoverDeterminism(t *testing.T) {
	m1 := NewMover(Suburban, Driving, Point{100, 100}, rng.New(7))
	m2 := NewMover(Suburban, Driving, Point{100, 100}, rng.New(7))
	for i := 0; i < 200; i++ {
		m1.Step(0.5)
		m2.Step(0.5)
	}
	if m1.Pos() != m2.Pos() {
		t.Fatal("same-seed movers diverged")
	}
}

func TestGridCell(t *testing.T) {
	x, y := GridCell(Point{250, 99}, 100)
	if x != 2 || y != 0 {
		t.Fatalf("grid = %d,%d", x, y)
	}
	x, y = GridCell(Point{-1, -1}, 100)
	if x != -1 || y != -1 {
		t.Fatalf("negative grid = %d,%d", x, y)
	}
}

// TestParseMobility accepts every pattern by its exact String form and
// rejects anything else with an error naming the accepted values.
func TestParseMobility(t *testing.T) {
	for _, m := range []Mobility{Stationary, Walking, Driving} {
		if got, err := ParseMobility(m.String()); got != m || err != nil {
			t.Fatalf("ParseMobility(%q) = %v, %v", m, got, err)
		}
	}
	if _, err := ParseMobility("walk"); err == nil || !strings.Contains(err.Error(), "stationary, walking or driving") {
		t.Fatalf("ParseMobility(\"walk\") error = %v", err)
	}
}
