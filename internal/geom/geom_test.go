package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approx(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Fatalf("%s: got %v, want %v", msg, got, want)
	}
}

func TestPointArithmetic(t *testing.T) {
	p := Point{1, 2}
	q := Point{4, 6}
	approx(t, p.Dist(q), 5, 1e-12, "Dist")
	v := q.Sub(p)
	if v != (Vector{3, 4}) {
		t.Fatalf("Sub = %v", v)
	}
	if p.Add(v) != q {
		t.Fatalf("Add = %v", p.Add(v))
	}
}

func TestVectorOps(t *testing.T) {
	v := Vector{3, 4}
	approx(t, v.Norm(), 5, 1e-12, "Norm")
	approx(t, v.Dot(Vector{1, 0}), 3, 1e-12, "Dot")
	approx(t, v.Cross(Vector{1, 0}), -4, 1e-12, "Cross")
	u := v.Unit()
	approx(t, u.Norm(), 1, 1e-12, "Unit norm")
	z := Vector{0, 0}.Unit()
	if z != (Vector{0, 0}) {
		t.Fatal("Unit of zero vector changed it")
	}
	approx(t, Vector{0, 1}.Angle(), math.Pi/2, 1e-12, "Angle")
}

func TestSegmentIntersectionCrossing(t *testing.T) {
	s := Segment{Point{0, 0}, Point{2, 2}}
	u := Segment{Point{0, 2}, Point{2, 0}}
	p, ok := s.Intersection(u)
	if !ok {
		t.Fatal("crossing segments reported disjoint")
	}
	approx(t, p.X, 1, 1e-12, "X")
	approx(t, p.Y, 1, 1e-12, "Y")
}

func TestSegmentIntersectionDisjoint(t *testing.T) {
	s := Segment{Point{0, 0}, Point{1, 0}}
	u := Segment{Point{0, 1}, Point{1, 1}}
	if s.Intersects(u) {
		t.Fatal("parallel disjoint segments reported intersecting")
	}
	w := Segment{Point{5, 5}, Point{6, 6}}
	if s.Intersects(w) {
		t.Fatal("far-away segments reported intersecting")
	}
}

func TestSegmentIntersectionSharedEndpoint(t *testing.T) {
	s := Segment{Point{0, 0}, Point{1, 1}}
	u := Segment{Point{1, 1}, Point{2, 0}}
	if !s.Intersects(u) {
		t.Fatal("shared endpoint should count as intersection")
	}
}

func TestSegmentIntersectionCollinearOverlap(t *testing.T) {
	s := Segment{Point{0, 0}, Point{2, 0}}
	u := Segment{Point{1, 0}, Point{3, 0}}
	p, ok := s.Intersection(u)
	if !ok {
		t.Fatal("overlapping collinear segments reported disjoint")
	}
	if !s.Contains(p) || !u.Contains(p) {
		t.Fatalf("reported intersection %v not on both segments", p)
	}
	v := Segment{Point{3, 0}, Point{4, 0}}
	if s.Intersects(v) {
		t.Fatal("disjoint collinear segments reported intersecting")
	}
}

func TestSegmentIntersectionNearMiss(t *testing.T) {
	// Segment that would cross the line but stops just short.
	s := Segment{Point{0, 0}, Point{2, 0}}
	u := Segment{Point{1, 1}, Point{1, 0.01}}
	if s.Intersects(u) {
		t.Fatal("near-miss reported as intersection")
	}
}

func TestSegmentContains(t *testing.T) {
	s := Segment{Point{0, 0}, Point{2, 2}}
	if !s.Contains(Point{1, 1}) {
		t.Fatal("midpoint not contained")
	}
	if s.Contains(Point{3, 3}) {
		t.Fatal("point beyond endpoint contained")
	}
	if s.Contains(Point{1, 1.5}) {
		t.Fatal("off-line point contained")
	}
}

func TestSegmentReflectAcrossAxis(t *testing.T) {
	wall := Segment{Point{0, 0}, Point{10, 0}} // the X axis
	img := wall.Reflect(Point{3, 4})
	approx(t, img.X, 3, 1e-12, "X")
	approx(t, img.Y, -4, 1e-12, "Y")
}

func TestSegmentReflectAcrossDiagonal(t *testing.T) {
	wall := Segment{Point{0, 0}, Point{1, 1}} // the line y=x
	img := wall.Reflect(Point{2, 0})
	approx(t, img.X, 0, 1e-12, "X")
	approx(t, img.Y, 2, 1e-12, "Y")
}

func TestReflectIsInvolution(t *testing.T) {
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(1))}
	f := func(ax, ay, bx, by, px, py float64) bool {
		a := Point{math.Mod(ax, 50), math.Mod(ay, 50)}
		b := Point{math.Mod(bx, 50), math.Mod(by, 50)}
		if a.Dist(b) < 1e-6 {
			return true // degenerate wall, skip
		}
		wall := Segment{a, b}
		p := Point{math.Mod(px, 50), math.Mod(py, 50)}
		back := wall.Reflect(wall.Reflect(p))
		return back.Dist(p) < 1e-6
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestReflectPreservesDistanceToWallLine(t *testing.T) {
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(2))}
	f := func(px, py float64) bool {
		wall := Segment{Point{0, 0}, Point{4, 3}}
		p := Point{math.Mod(px, 20), math.Mod(py, 20)}
		img := wall.Reflect(p)
		// Both p and its image are equidistant from any point on the line.
		d1 := p.Dist(wall.A)
		d2 := img.Dist(wall.A)
		return math.Abs(d1-d2) < 1e-6
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestNormalizeAngle(t *testing.T) {
	approx(t, NormalizeAngle(3*math.Pi), math.Pi, 1e-12, "3π")
	approx(t, NormalizeAngle(-3*math.Pi), math.Pi, 1e-12, "−3π")
	approx(t, NormalizeAngle(0.5), 0.5, 1e-12, "0.5")
}

func TestDegRadRoundTrip(t *testing.T) {
	approx(t, Deg(Rad(42)), 42, 1e-12, "deg→rad→deg")
	approx(t, Rad(180), math.Pi, 1e-12, "180°")
}
