package pdes

// Per-partition pending-event queues come in two disciplines, selectable
// via Config.Queue:
//
//   - QueueHeap: a hand-rolled binary heap over Event values — O(log n)
//     push and pop at the full partition depth, with 40-byte element swaps
//     down every level. The wasteful baseline F29 tables.
//   - QueueLadder: a ladder (calendar) queue — a ring of near-future
//     buckets one Config.BucketWidth of virtual time wide, a far-future
//     overflow list, and a sorted run of already-merged events popped by
//     index increment. Pushes are O(1) appends; each event is sorted once,
//     inside its own small bucket, when the rung frontier reaches it; pops
//     are a copy and a bounds check.
//
// The ladder's correctness hinges on one property: the bucket index
// idx(t) = floor((t-base)/width) is monotone in t, so every event in
// bucket i precedes every event in bucket j > i, and a sorted bucket can
// simply be appended to the sorted run — merging is concatenation. The
// same idx expression that places a push also guards the pop: the run's
// head is safe to pop iff its bucket has been merged (idx <= cur) or
// nothing else is pending. Both disciplines therefore pop in the exact
// total order (Time, Src, Seq) and produce byte-identical engine results
// (property-tested in queue_test.go). Neither boxes events or allocates
// per event.
//
// The ladder's memory circulates rather than staying pinned to a bucket
// index: a merged bucket hands its slab to a per-ladder spare list, the
// next bucket first touched takes one back, and a bucket that fills trades
// its slab for a larger spare before it allocates. A respread moves the
// rung's base, so which indices run hot keeps changing; slabs kept per
// index would each grow to the high-water mark of every hot spell and copy
// their events at each doubling. When the run is spent, a merged bucket's
// slab simply becomes the run, and an already-ordered bucket skips its
// sort, so most events are written once on push and read once on pop.

import "math/bits"

// evLess orders events by the total key (Time, Src, Seq). Seq is unique
// per source, so no two events compare equal and pop order is a total
// order — the root of the engine's determinism guarantee.
func evLess(a, b *Event) bool {
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	if a.Src != b.Src {
		return a.Src < b.Src
	}
	return a.Seq < b.Seq
}

// evQueue is the discipline interface the window loop drives. peek may
// restructure the queue (the ladder merges buckets lazily) but never
// changes the pop order.
type evQueue interface {
	push(ev Event)
	// peek returns the minimum pending timestamp; ok is false when empty.
	peek() (t float64, ok bool)
	// pop removes and returns the minimum event. The caller guarantees the
	// queue is non-empty (peek returned ok).
	pop() Event
	len() int
}

// heapPush inserts ev, sifting up.
func heapPush(h *[]Event, ev Event) {
	hh := append(*h, ev)
	*h = hh
	i := len(hh) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !evLess(&hh[i], &hh[p]) {
			break
		}
		hh[i], hh[p] = hh[p], hh[i]
		i = p
	}
}

// heapPop removes and returns the minimum event, sifting down. The caller
// guarantees the heap is non-empty.
func heapPop(h *[]Event) Event {
	hh := *h
	top := hh[0]
	n := len(hh) - 1
	hh[0] = hh[n]
	hh = hh[:n]
	*h = hh
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && evLess(&hh[r], &hh[l]) {
			m = r
		}
		if !evLess(&hh[m], &hh[i]) {
			break
		}
		hh[i], hh[m] = hh[m], hh[i]
		i = m
	}
	return top
}

// binHeap is the classic single binary heap discipline.
type binHeap struct {
	h []Event
}

func (q *binHeap) push(ev Event) { heapPush(&q.h, ev) }
func (q *binHeap) pop() Event    { return heapPop(&q.h) }
func (q *binHeap) len() int      { return len(q.h) }

func (q *binHeap) peek() (float64, bool) {
	if len(q.h) == 0 {
		return 0, false
	}
	return q.h[0].Time, true
}

// ladderBuckets is the rung size: the near-future array spans
// ladderBuckets * width of virtual time ahead of base.
const ladderBuckets = 256

// minSlab is the capacity of a freshly allocated slab, so a first touch
// skips the 1-2-4-... growth chain of memmoves. slabClasses sizes the
// spare list: class k holds slabs of capacity [minSlab<<k, minSlab<<(k+1)),
// the last class everything larger.
const (
	minSlab     = 64
	slabClasses = 32
)

// ladder is the calendar-queue discipline. Invariants:
//
//   - every bucket with index <= cur is empty (already merged into run);
//   - pending counts the events in buckets and over;
//   - run[head:] is sorted by (Time, Src, Seq), and its head is safe to
//     pop iff idx(run[head].Time) <= cur or nothing else is pending —
//     otherwise an unmerged bucket could still hold an earlier event;
//   - a slab is held by at most one of run, over, a bucket, or spares.
type ladder struct {
	base    float64 // virtual time of bucket 0's left edge
	width   float64 // bucket width in virtual seconds
	cur     int     // highest bucket index merged into run; -1 = none
	pending int     // events in buckets + over

	run     []Event // merged events; run[head:] is the sorted pop sequence
	head    int     // next pop index into run
	over    []Event // far-future events beyond the rung, unordered
	buckets [ladderBuckets][]Event
	spares  [slabClasses][][]Event // empty slabs by capacity class

	merges    uint64 // buckets merged into the run
	respreads uint64 // rung rebuilds from the overflow list
}

func newLadder(width float64) *ladder {
	return &ladder{width: width, cur: -1}
}

// idx maps a timestamp to its bucket index: -1 for times at or below the
// merged frontier's origin, ladderBuckets for times beyond the rung. This
// exact computation decides both placement (push) and pop safety (ensure);
// since floor((t-base)/width) is monotone in t, two events never invert.
func (q *ladder) idx(t float64) int {
	r := (t - q.base) / q.width
	if !(r >= 0) { // also catches NaN from inf-inf; treat as already merged
		return -1
	}
	if r >= ladderBuckets {
		return ladderBuckets
	}
	return int(r)
}

func (q *ladder) push(ev Event) {
	switch i := q.idx(ev.Time); {
	case i <= q.cur:
		q.pushRun(ev)
	case i >= ladderBuckets:
		q.toOver(ev)
	default:
		q.toBucket(i, ev)
		q.pending++
	}
}

// toOver appends ev to the overflow list, which grows through the spare
// list like any bucket: it fills as the rung drains, so it can take the
// slabs the drained buckets just gave up.
func (q *ladder) toOver(ev Event) {
	if len(q.over) == cap(q.over) {
		q.over = q.grow(q.over, 1)
	}
	q.over = append(q.over, ev)
	q.pending++
}

// toBucket appends ev to bucket i, drawing a slab from the spare list when
// the bucket is untouched or full.
func (q *ladder) toBucket(i int, ev Event) {
	b := q.buckets[i]
	if len(b) == cap(b) {
		b = q.grow(b, 1)
	}
	q.buckets[i] = append(b, ev)
}

// grow returns s, or a slab holding s's events, with room for n more. An
// untouched slice takes the smallest spare, leaving big ones for buckets
// that fill; a full slab trades itself for the largest spare, so a hot
// bucket trades once instead of climbing class by class. Only when no
// spare is big enough does it allocate, at double the size, and the slab
// it leaves joins the spare list.
func (q *ladder) grow(s []Event, n int) []Event {
	need := len(s) + n
	if need <= cap(s) {
		return s
	}
	t := q.take(need, cap(s) == 0)
	if t == nil {
		t = make([]Event, 0, max(2*cap(s), need, minSlab))
	}
	t = append(t, s...)
	q.give(s)
	return t
}

// take pops a spare slab with room for need events, searching the classes
// from the smallest or from the largest; nil when none is found. From the
// largest end only the top non-empty class is tried: a slab below it that
// fits would fit there too, bar the spread inside one class.
func (q *ladder) take(need int, smallest bool) []Event {
	for j := range q.spares {
		k := slabClasses - 1 - j
		if smallest {
			k = j
		}
		sp := q.spares[k]
		n := len(sp)
		if n == 0 {
			continue
		}
		if t := sp[n-1]; cap(t) >= need {
			q.spares[k] = sp[:n-1]
			return t
		}
		if !smallest {
			return nil
		}
	}
	return nil
}

// give returns s's slab to the spare list; a nil slice has none.
func (q *ladder) give(s []Event) {
	if cap(s) < minSlab {
		return
	}
	k := min(bits.Len(uint(cap(s)/minSlab))-1, slabClasses-1)
	q.spares[k] = append(q.spares[k], s[:0])
}

// pushRun inserts an event whose bucket has already been merged into the
// sorted run: binary search for its slot, shift the tail. This is the slow
// push path — it only triggers for events scheduled at (or clamped to) the
// emitting handler's own timestamp, e.g. RunProcs resume events; banded
// workloads never take it.
func (q *ladder) pushRun(ev Event) {
	lo, hi := q.head, len(q.run)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if evLess(&q.run[mid], &ev) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	q.run = append(q.grow(q.run, 1), Event{})
	copy(q.run[lo+1:], q.run[lo:])
	q.run[lo] = ev
}

func (q *ladder) len() int { return len(q.run) - q.head + q.pending }

func (q *ladder) peek() (float64, bool) {
	if !q.ensure() {
		return 0, false
	}
	return q.run[q.head].Time, true
}

func (q *ladder) pop() Event {
	q.ensure()
	ev := q.run[q.head]
	q.head++
	if q.head == len(q.run) {
		q.run = q.run[:0]
		q.head = 0
	}
	return ev
}

// ensure advances the rung until the run's head is provably the global
// minimum (or the queue is empty). Each iteration merges one non-empty
// bucket or respreads the overflow, so it terminates: pending strictly
// decreases on merge, and a respread always lands at least one event (the
// overflow minimum) in a bucket for the next iteration.
func (q *ladder) ensure() bool {
	for {
		if q.head < len(q.run) && (q.pending == 0 || q.idx(q.run[q.head].Time) <= q.cur) {
			return true
		}
		if q.pending == 0 {
			return false
		}
		q.advance()
	}
}

// advance merges the next non-empty bucket into the run, or — when the
// rung is exhausted — rebases it on the overflow list's minimum and
// respreads. Merging is concatenation: every event in an unmerged bucket
// follows every event already in the run (bucket monotonicity), so the
// bucket is sorted in isolation and appended — or, when the run is spent,
// the bucket's slab becomes the run and its spent slab goes spare.
func (q *ladder) advance() {
	for i := q.cur + 1; i < ladderBuckets; i++ {
		b := q.buckets[i]
		if len(b) == 0 {
			continue
		}
		q.cur = i
		q.buckets[i] = nil
		q.pending -= len(b)
		if !eventsSorted(b) {
			sortEvents(b)
		}
		if q.head == len(q.run) {
			q.give(q.run)
			q.run, q.head = b, 0
		} else {
			if q.head > 32 && q.head > len(q.run)-q.head {
				// Compact the consumed prefix so the run slab stops growing.
				n := copy(q.run, q.run[q.head:])
				q.run = q.run[:n]
				q.head = 0
			}
			q.run = append(q.grow(q.run, len(b)), b...)
			q.give(b)
		}
		q.merges++
		return
	}
	// Rung exhausted; everything pending is in the overflow. The engine
	// only reaches here with pending > 0, so over is non-empty.
	q.respread()
}

// respread rebases the rung at the overflow minimum and redistributes the
// overflow into buckets, compacting what still lands beyond the rung back
// into the overflow slab in place.
func (q *ladder) respread() {
	q.respreads++
	min := q.over[0].Time
	for i := 1; i < len(q.over); i++ {
		if q.over[i].Time < min {
			min = q.over[i].Time
		}
	}
	q.base = min
	q.cur = -1
	kept := q.over[:0]
	for _, ev := range q.over {
		if i := q.idx(ev.Time); i < ladderBuckets {
			// Clamp to bucket 0: ev.Time == min lands exactly on the new base.
			q.toBucket(max(i, 0), ev)
		} else {
			kept = append(kept, ev)
		}
	}
	q.over = kept
}

// eventsSorted reports whether a is already in (Time, Src, Seq) order: one
// linear pass that lets an in-order bucket — common when pushes arrive in
// time order, as in the idle wave — skip the sort.
func eventsSorted(a []Event) bool {
	for i := 1; i < len(a); i++ {
		if evLess(&a[i], &a[i-1]) {
			return false
		}
	}
	return true
}

// sortEvents sorts in place by (Time, Src, Seq): median-of-three quicksort
// recursing into the smaller side, insertion sort below 13 — no interface
// boxing, no closure allocation, deterministic on any input.
func sortEvents(a []Event) {
	for len(a) > 12 {
		p := partitionEvents(a)
		if p < len(a)-p-1 {
			sortEvents(a[:p])
			a = a[p+1:]
		} else {
			sortEvents(a[p+1:])
			a = a[:p]
		}
	}
	for i := 1; i < len(a); i++ {
		ev := a[i]
		j := i
		for j > 0 && evLess(&ev, &a[j-1]) {
			a[j] = a[j-1]
			j--
		}
		a[j] = ev
	}
}

// partitionEvents sorts a[0], a[mid], a[len-1] into place, parks the
// median pivot at len-2, Lomuto-partitions the interior, and returns the
// pivot's final index. Keys are unique, so no equal-pivot pathology.
func partitionEvents(a []Event) int {
	n := len(a)
	m := n / 2
	if evLess(&a[m], &a[0]) {
		a[m], a[0] = a[0], a[m]
	}
	if evLess(&a[n-1], &a[m]) {
		a[n-1], a[m] = a[m], a[n-1]
		if evLess(&a[m], &a[0]) {
			a[m], a[0] = a[0], a[m]
		}
	}
	a[m], a[n-2] = a[n-2], a[m]
	pivot := a[n-2]
	i := 1
	for j := 1; j < n-2; j++ {
		if evLess(&a[j], &pivot) {
			a[i], a[j] = a[j], a[i]
			i++
		}
	}
	a[i], a[n-2] = a[n-2], a[i]
	return i
}
