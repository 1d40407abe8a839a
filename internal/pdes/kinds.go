package pdes

import "fmt"

// This file is the one shared home of the engine's enum knobs. Every kind
// has a canonical String form and a Parse function, so the benchmarks'
// sub-test names and the package test flags agree on one spelling.

// QueueKind selects the per-partition pending-event structure. Both kinds
// pop in the identical (Time, Src, Seq) total order, so results are
// byte-identical either way — only speed changes.
type QueueKind int

const (
	// QueueLadder (the default) is the ladder/calendar queue: near-future
	// bucket ring + far-future overflow, O(1) amortized push and pops
	// paying only the per-bucket population.
	QueueLadder QueueKind = iota
	// QueueHeap is the classic binary heap: O(log n) push and pop at the
	// full partition depth — the wasteful baseline F29 tables.
	QueueHeap
)

// String returns the canonical spelling ("ladder", "heap") accepted by
// ParseQueueKind.
func (k QueueKind) String() string {
	if k == QueueHeap {
		return "heap"
	}
	return "ladder"
}

// ParseQueueKind parses the canonical String form of a QueueKind.
func ParseQueueKind(s string) (QueueKind, error) {
	switch s {
	case "ladder":
		return QueueLadder, nil
	case "heap":
		return QueueHeap, nil
	}
	return 0, fmt.Errorf("%w: queue %q (want ladder or heap)", ErrConfig, s)
}

// BarrierKind selects the per-window worker synchronisation for
// multi-worker runs. Irrelevant to results (and skipped entirely when the
// resolved worker count is 1 — the window loop runs inline).
type BarrierKind int

const (
	// BarrierSense (the default) is a padded sense-reversing barrier with
	// the GVT min-reduce inlined into the coordinator: one atomic publish
	// and one bounded spin per worker per window.
	BarrierSense BarrierKind = iota
	// BarrierChan is the chan-broadcast + report-channel hand-off: two
	// channel operations per worker per window — the wasteful baseline
	// F29 tables.
	BarrierChan
)

// String returns the canonical spelling ("sense", "chan") accepted by
// ParseBarrierKind.
func (k BarrierKind) String() string {
	if k == BarrierChan {
		return "chan"
	}
	return "sense"
}

// ParseBarrierKind parses the canonical String form of a BarrierKind.
func ParseBarrierKind(s string) (BarrierKind, error) {
	switch s {
	case "sense":
		return BarrierSense, nil
	case "chan":
		return BarrierChan, nil
	}
	return 0, fmt.Errorf("%w: barrier %q (want sense or chan)", ErrConfig, s)
}
