// Package geom provides the 2-D geometry SpotFi's simulated testbed is
// built on: points, segments, walls, line-of-sight tests, and image-method
// reflections for synthesizing multipath.
package geom

import (
	"fmt"
	"math"
)

// Point is a location in the 2-D floor plan, in meters.
type Point struct {
	X, Y float64
}

// Add returns p translated by the vector v.
func (p Point) Add(v Vector) Point { return Point{p.X + v.X, p.Y + v.Y} }

// Sub returns the vector from q to p.
func (p Point) Sub(q Point) Vector { return Vector{p.X - q.X, p.Y - q.Y} }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

func (p Point) String() string { return fmt.Sprintf("(%.2f, %.2f)", p.X, p.Y) }

// Vector is a displacement in the plane.
type Vector struct {
	X, Y float64
}

// Dot returns the dot product v·w.
func (v Vector) Dot(w Vector) float64 { return v.X*w.X + v.Y*w.Y }

// Cross returns the z component of the cross product v×w.
func (v Vector) Cross(w Vector) float64 { return v.X*w.Y - v.Y*w.X }

// Norm returns the Euclidean length of v.
func (v Vector) Norm() float64 { return math.Hypot(v.X, v.Y) }

// Scale returns s·v.
func (v Vector) Scale(s float64) Vector { return Vector{s * v.X, s * v.Y} }

// Unit returns v normalized to unit length; the zero vector is returned
// unchanged.
func (v Vector) Unit() Vector {
	n := v.Norm()
	if n == 0 {
		return v
	}
	return v.Scale(1 / n)
}

// Angle returns the angle of v in radians, in (−π, π], measured from +X.
func (v Vector) Angle() float64 { return math.Atan2(v.Y, v.X) }

// Segment is a line segment between two points. Walls and corridor edges
// are segments.
type Segment struct {
	A, B Point
}

const intersectEps = 1e-12

// Intersects reports whether segments s and t share at least one point,
// excluding the degenerate "barely touching at endpoints within eps" cases
// only to the extent floating point allows: a shared endpoint counts as an
// intersection.
func (s Segment) Intersects(t Segment) bool {
	_, ok := s.Intersection(t)
	return ok
}

// Intersection returns the intersection point of two segments and whether
// they properly intersect. Collinear overlapping segments report the first
// overlap endpoint encountered.
func (s Segment) Intersection(t Segment) (Point, bool) {
	r := s.B.Sub(s.A)
	d := t.B.Sub(t.A)
	denom := r.Cross(d)
	qp := t.A.Sub(s.A)
	if math.Abs(denom) < intersectEps {
		// Parallel. Check collinearity and overlap.
		if math.Abs(qp.Cross(r)) > intersectEps {
			return Point{}, false
		}
		rr := r.Dot(r)
		if rr < intersectEps {
			// s is a degenerate point.
			if t.Contains(s.A) {
				return s.A, true
			}
			return Point{}, false
		}
		t0 := qp.Dot(r) / rr
		t1 := t0 + d.Dot(r)/rr
		lo, hi := math.Min(t0, t1), math.Max(t0, t1)
		if hi < -intersectEps || lo > 1+intersectEps {
			return Point{}, false
		}
		u := math.Max(0, lo)
		return s.A.Add(r.Scale(u)), true
	}
	u := qp.Cross(d) / denom
	v := qp.Cross(r) / denom
	if u < -intersectEps || u > 1+intersectEps || v < -intersectEps || v > 1+intersectEps {
		return Point{}, false
	}
	return s.A.Add(r.Scale(u)), true
}

// Contains reports whether point p lies on the segment (within a small
// tolerance).
func (s Segment) Contains(p Point) bool {
	d := s.B.Sub(s.A)
	q := p.Sub(s.A)
	if math.Abs(d.Cross(q)) > 1e-9*(1+d.Norm()) {
		return false
	}
	t := q.Dot(d)
	return t >= -1e-9 && t <= d.Dot(d)+1e-9
}

// Reflect returns the mirror image of point p across the infinite line
// through the segment.
func (s Segment) Reflect(p Point) Point {
	d := s.B.Sub(s.A).Unit()
	v := p.Sub(s.A)
	// Component along the line and perpendicular to it.
	along := d.Scale(v.Dot(d))
	perp := Vector{v.X - along.X, v.Y - along.Y}
	mirrored := Vector{along.X - perp.X, along.Y - perp.Y}
	return s.A.Add(mirrored)
}

// NormalizeAngle wraps an angle into (−π, π]. The wrap is closed-form
// (one Mod plus at most one correction) rather than repeated ±2π
// subtraction, which compounds rounding error and loops O(|a|) times on
// far-out-of-range inputs.
func NormalizeAngle(a float64) float64 {
	a = math.Mod(a, 2*math.Pi) // exact: Mod introduces no rounding error
	if a > math.Pi {
		a -= 2 * math.Pi
	} else if a <= -math.Pi {
		a += 2 * math.Pi
	}
	return a
}

// Deg converts radians to degrees.
func Deg(rad float64) float64 { return rad * 180 / math.Pi }

// Rad converts degrees to radians.
func Rad(deg float64) float64 { return deg * math.Pi / 180 }
