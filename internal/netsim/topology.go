// Package netsim models the interconnect: LogGP-style per-message costs on
// top of explicit topologies (fully connected, ring, 2-D torus, two-level
// fat tree) with per-link contention accounting. The pgas runtime uses it
// as its message cost model; the collective and topology experiments use
// its Makespan bound to compare algorithms under congestion.
package netsim

import "fmt"

// Topology maps ranks to routes. Links are identified by small dense
// integers so per-link load can be accumulated in a slice.
type Topology interface {
	// Name identifies the topology for tables.
	Name() string
	// Nodes returns the number of endpoints.
	Nodes() int
	// Path returns the directed link IDs traversed from src to dst.
	// An empty path means src == dst (a local transfer).
	Path(src, dst int) []int
	// NumLinks returns the number of directed links.
	NumLinks() int
}

// FullyConnected gives every ordered pair its own dedicated link — the
// no-contention ideal (also a reasonable stand-in for a full-bisection
// fat tree at low load).
type FullyConnected struct{ N int }

// NewFullyConnected returns a fully connected topology over n nodes.
func NewFullyConnected(n int) *FullyConnected { return &FullyConnected{N: n} }

func (t *FullyConnected) Name() string { return "fully-connected" }
func (t *FullyConnected) Nodes() int   { return t.N }
func (t *FullyConnected) NumLinks() int {
	return t.N * t.N
}
func (t *FullyConnected) Path(src, dst int) []int {
	if src == dst {
		return nil
	}
	return []int{src*t.N + dst}
}

// Ring is a bidirectional ring; minimal routing picks the shorter way.
type Ring struct{ N int }

// NewRing returns a bidirectional ring over n nodes.
func NewRing(n int) *Ring { return &Ring{N: n} }

func (t *Ring) Name() string { return "ring" }
func (t *Ring) Nodes() int   { return t.N }

// NumLinks: each node has a clockwise (2i) and counter-clockwise (2i+1) link.
func (t *Ring) NumLinks() int { return 2 * t.N }

func (t *Ring) Path(src, dst int) []int {
	if src == dst {
		return nil
	}
	cw := (dst - src + t.N) % t.N
	var path []int
	if cw <= t.N-cw {
		for i := 0; i < cw; i++ {
			path = append(path, 2*((src+i)%t.N))
		}
	} else {
		ccw := t.N - cw
		for i := 0; i < ccw; i++ {
			path = append(path, 2*((src-i+t.N)%t.N)+1)
		}
	}
	return path
}

// Torus2D is a 2-D torus with dimension-order (X then Y) minimal routing.
type Torus2D struct{ Rows, Cols int }

// NewTorus2D returns a rows×cols torus.
func NewTorus2D(rows, cols int) *Torus2D { return &Torus2D{Rows: rows, Cols: cols} }

func (t *Torus2D) Name() string { return fmt.Sprintf("torus-%dx%d", t.Rows, t.Cols) }
func (t *Torus2D) Nodes() int   { return t.Rows * t.Cols }

// Each node has 4 directed links: +x, -x, +y, -y.
func (t *Torus2D) NumLinks() int { return 4 * t.Nodes() }

func (t *Torus2D) linkID(node, dir int) int { return node*4 + dir }

func (t *Torus2D) Path(src, dst int) []int {
	if src == dst {
		return nil
	}
	sr, sc := src/t.Cols, src%t.Cols
	dr, dc := dst/t.Cols, dst%t.Cols
	path := make([]int, 0, t.Cols/2+t.Rows/2)
	// X dimension (columns) first.
	for sc != dc {
		right := (dc - sc + t.Cols) % t.Cols
		if right <= t.Cols-right {
			path = append(path, t.linkID(sr*t.Cols+sc, 0))
			sc = (sc + 1) % t.Cols
		} else {
			path = append(path, t.linkID(sr*t.Cols+sc, 1))
			sc = (sc - 1 + t.Cols) % t.Cols
		}
	}
	for sr != dr {
		down := (dr - sr + t.Rows) % t.Rows
		if down <= t.Rows-down {
			path = append(path, t.linkID(sr*t.Cols+sc, 2))
			sr = (sr + 1) % t.Rows
		} else {
			path = append(path, t.linkID(sr*t.Cols+sc, 3))
			sr = (sr - 1 + t.Rows) % t.Rows
		}
	}
	return path
}

// FatTree2 is a two-level fat tree: nodes attach to leaf switches of the
// given radix; leaf switches attach to one root. Up/down links at each
// level are distinct; the root is the bisection bottleneck unless the
// transfer stays within a leaf.
type FatTree2 struct {
	N     int // nodes
	Radix int // nodes per leaf switch
}

// NewFatTree2 returns a two-level fat tree over n nodes with the given
// leaf radix (clamped to at least 2).
func NewFatTree2(n, radix int) *FatTree2 {
	if radix < 2 {
		radix = 2
	}
	return &FatTree2{N: n, Radix: radix}
}

func (t *FatTree2) Name() string { return fmt.Sprintf("fattree-r%d", t.Radix) }
func (t *FatTree2) Nodes() int   { return t.N }

func (t *FatTree2) leaves() int { return (t.N + t.Radix - 1) / t.Radix }

// Links: node-up (i), node-down (N+i), leaf-up (2N+l), leaf-down (2N+L+l).
func (t *FatTree2) NumLinks() int { return 2*t.N + 2*t.leaves() }

func (t *FatTree2) Path(src, dst int) []int {
	if src == dst {
		return nil
	}
	ls, ld := src/t.Radix, dst/t.Radix
	if ls == ld {
		// Up to the leaf switch and back down.
		return []int{src, t.N + dst}
	}
	// Up to leaf, up to root, down to leaf, down to node.
	return []int{src, 2*t.N + ls, 2*t.N + t.leaves() + ld, t.N + dst}
}

// Dragonfly is a one-level dragonfly: nodes attach to group routers of the
// given size; every pair of groups shares exactly one global link, the
// bottleneck that adversarial (group-to-group) traffic saturates.
type Dragonfly struct {
	N         int
	GroupSize int
}

// NewDragonfly returns a dragonfly over n nodes with groups of the given
// size (clamped to at least 2).
func NewDragonfly(n, groupSize int) *Dragonfly {
	if groupSize < 2 {
		groupSize = 2
	}
	return &Dragonfly{N: n, GroupSize: groupSize}
}

func (t *Dragonfly) Name() string { return fmt.Sprintf("dragonfly-g%d", t.GroupSize) }
func (t *Dragonfly) Nodes() int   { return t.N }

func (t *Dragonfly) groups() int { return (t.N + t.GroupSize - 1) / t.GroupSize }

// Links: node-up (i), node-down (N+i), global (2N + gs·G + gd).
func (t *Dragonfly) NumLinks() int { return 2*t.N + t.groups()*t.groups() }

func (t *Dragonfly) Path(src, dst int) []int {
	if src == dst {
		return nil
	}
	gs, gd := src/t.GroupSize, dst/t.GroupSize
	if gs == gd {
		return []int{src, t.N + dst}
	}
	return []int{src, 2*t.N + gs*t.groups() + gd, t.N + dst}
}

// Hops returns the number of directed links on the route from src to dst —
// len(t.Path(src, dst)) without materialising the path. The built-in
// topologies get closed forms (the million-rank pdes workloads call this
// per message, so it must not allocate); unknown implementations fall back
// to Path.
func Hops(t Topology, src, dst int) int {
	if src == dst {
		return 0
	}
	switch tt := t.(type) {
	case *FullyConnected:
		return 1
	case *Ring:
		cw := (dst - src + tt.N) % tt.N
		if ccw := tt.N - cw; ccw < cw {
			return ccw
		}
		return cw
	case *Torus2D:
		sr, sc := src/tt.Cols, src%tt.Cols
		dr, dc := dst/tt.Cols, dst%tt.Cols
		dx := (dc - sc + tt.Cols) % tt.Cols
		if back := tt.Cols - dx; back < dx {
			dx = back
		}
		dy := (dr - sr + tt.Rows) % tt.Rows
		if back := tt.Rows - dy; back < dy {
			dy = back
		}
		return dx + dy
	case *FatTree2:
		if src/tt.Radix == dst/tt.Radix {
			return 2
		}
		return 4
	case *Dragonfly:
		if src/tt.GroupSize == dst/tt.GroupSize {
			return 2
		}
		return 3
	}
	return len(t.Path(src, dst))
}
