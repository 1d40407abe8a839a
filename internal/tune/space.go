// Package tune is the autotuning subsystem: it picks remedy parameters —
// cache block sizes, message aggregation sizes, replication factors, chunk
// granularities, checkpoint intervals, collective algorithms — from the
// machine model instead of hard-coding them. The whole point of the
// parameterised machines is that these optima are *derivable* from machine
// balance; tune makes that derivation mechanical.
//
// The pieces: a Space of search Axes (integer ranges, log-scaled ranges,
// enumerated choices), pluggable search Strategies (exhaustive Grid,
// GoldenSection for unimodal single-axis objectives, random-restart
// HillClimb for multi-dimensional spaces), a memoizing evaluation Cache
// keyed on (machine, workload, point), deterministic parallel candidate
// evaluation on a sched.Pool, and a budget/early-stop policy.
// Minimize runs a strategy and returns a Result with the chosen point, the
// full evaluation trace, and the modeled time/energy at the optimum.
// registry.go registers tunables for the existing remedies.
package tune

import (
	"fmt"
	"strings"
)

// Axis is one dimension of a search space: an ordered list of numeric
// candidates or an enumerated set of named choices. Axes are finite by
// construction so every strategy can fall back to enumerating them.
type Axis struct {
	name string
	ints []int    // ordered numeric candidates (numeric axes)
	strs []string // named options (choice axes)
}

// IntRange returns a numeric axis covering lo..hi inclusive in steps of
// step (minimum 1).
func IntRange(name string, lo, hi, step int) Axis {
	if step < 1 {
		step = 1
	}
	a := Axis{name: name}
	for v := lo; v <= hi; v += step {
		a.ints = append(a.ints, v)
	}
	return a
}

// LogRange returns a geometrically spaced numeric axis: lo, lo·factor,
// lo·factor², … up to and including hi (appended if the progression skips
// it). factor must be ≥ 2. Log scaling is the natural shape for block and
// message sizes, whose objectives vary over decades.
func LogRange(name string, lo, hi, factor int) Axis {
	if factor < 2 {
		factor = 2
	}
	a := Axis{name: name}
	for v := lo; v <= hi; v *= factor {
		a.ints = append(a.ints, v)
	}
	if n := len(a.ints); n == 0 || a.ints[n-1] != hi {
		a.ints = append(a.ints, hi)
	}
	return a
}

// Explicit returns a numeric axis over the given values (kept in the given
// order, which should be ascending for unimodal search to make sense).
func Explicit(name string, vals ...int) Axis {
	return Axis{name: name, ints: append([]int(nil), vals...)}
}

// Choice returns an enumerated axis over named options (e.g. allreduce
// algorithms).
func Choice(name string, opts ...string) Axis {
	return Axis{name: name, strs: append([]string(nil), opts...)}
}

// Name returns the axis name.
func (a Axis) Name() string { return a.name }

// Numeric reports whether the axis holds ordered numbers (as opposed to
// enumerated choices).
func (a Axis) Numeric() bool { return a.strs == nil }

// Len returns the number of candidate values on the axis.
func (a Axis) Len() int {
	if a.Numeric() {
		return len(a.ints)
	}
	return len(a.strs)
}

// IntAt returns the i-th numeric candidate.
func (a Axis) IntAt(i int) int { return a.ints[i] }

// StrAt returns the i-th choice.
func (a Axis) StrAt(i int) string { return a.strs[i] }

// label renders the i-th candidate for humans.
func (a Axis) label(i int) string {
	if a.Numeric() {
		return fmt.Sprintf("%s=%d", a.name, a.ints[i])
	}
	return fmt.Sprintf("%s=%s", a.name, a.strs[i])
}

// Point is one candidate in a Space: an index into each axis, in axis
// order. Index form keeps points canonical (hashable for the cache) and
// gives ordered-neighbourhood structure to numeric axes, which is what
// golden-section and hill-climbing search over.
type Point []int

// Key returns the canonical cache key fragment for the point.
func (p Point) Key() string {
	parts := make([]string, len(p))
	for i, v := range p {
		parts[i] = fmt.Sprintf("%d", v)
	}
	return strings.Join(parts, "/")
}

// Clone returns an independent copy of the point.
func (p Point) Clone() Point { return append(Point(nil), p...) }

// Space is a finite multi-dimensional search space.
type Space struct {
	axes []Axis
}

// NewSpace builds a space from the given axes. Every axis must be
// non-empty and names must be unique.
func NewSpace(axes ...Axis) *Space {
	seen := map[string]bool{}
	for _, a := range axes {
		if a.Len() == 0 {
			panic(fmt.Sprintf("tune: axis %q is empty", a.name))
		}
		if seen[a.name] {
			panic(fmt.Sprintf("tune: duplicate axis %q", a.name))
		}
		seen[a.name] = true
	}
	return &Space{axes: append([]Axis(nil), axes...)}
}

// Axes returns the space's axes in order.
func (s *Space) Axes() []Axis { return s.axes }

// Dims returns the number of axes.
func (s *Space) Dims() int { return len(s.axes) }

// Size returns the number of points in the full grid.
func (s *Space) Size() int {
	n := 1
	for _, a := range s.axes {
		n *= a.Len()
	}
	return n
}

// axis returns the named axis and its position.
func (s *Space) axis(name string) (Axis, int) {
	for i, a := range s.axes {
		if a.name == name {
			return a, i
		}
	}
	panic(fmt.Sprintf("tune: unknown axis %q", name))
}

// Int returns the numeric value of the named axis at point p.
func (s *Space) Int(p Point, name string) int {
	a, i := s.axis(name)
	return a.IntAt(p[i])
}

// Str returns the choice of the named axis at point p.
func (s *Space) Str(p Point, name string) string {
	a, i := s.axis(name)
	return a.StrAt(p[i])
}

// Describe renders a point as "name=value, name=value" for tables and
// advice text.
func (s *Space) Describe(p Point) string {
	parts := make([]string, len(s.axes))
	for i, a := range s.axes {
		parts[i] = a.label(p[i])
	}
	return strings.Join(parts, ", ")
}

// Check validates that p indexes the space.
func (s *Space) Check(p Point) error {
	if len(p) != len(s.axes) {
		return fmt.Errorf("tune: point has %d coordinates, space has %d axes", len(p), len(s.axes))
	}
	for i, v := range p {
		if v < 0 || v >= s.axes[i].Len() {
			return fmt.Errorf("tune: coordinate %d = %d outside axis %q (len %d)",
				i, v, s.axes[i].name, s.axes[i].Len())
		}
	}
	return nil
}

// Points enumerates the full grid in lexicographic order (first axis
// slowest). The order is deterministic, which keeps parallel grid
// evaluation reproducible.
func (s *Space) Points() []Point {
	out := make([]Point, 0, s.Size())
	p := make(Point, len(s.axes))
	var rec func(d int)
	rec = func(d int) {
		if d == len(s.axes) {
			out = append(out, p.Clone())
			return
		}
		for i := 0; i < s.axes[d].Len(); i++ {
			p[d] = i
			rec(d + 1)
		}
	}
	rec(0)
	return out
}

// Neighbors returns the points one index step away from p along each axis
// (the hill-climbing neighbourhood), in deterministic order.
func (s *Space) Neighbors(p Point) []Point {
	out := make([]Point, 0, 2*len(s.axes))
	for d := range s.axes {
		if p[d] > 0 {
			q := p.Clone()
			q[d]--
			out = append(out, q)
		}
		if p[d] < s.axes[d].Len()-1 {
			q := p.Clone()
			q[d]++
			out = append(out, q)
		}
	}
	return out
}
