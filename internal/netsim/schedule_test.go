package netsim

import (
	"testing"
)

func countMsgs(rounds [][]Transfer) int {
	n := 0
	for _, r := range rounds {
		n += len(r)
	}
	return n
}

func TestAlltoallMessageCounts(t *testing.T) {
	for _, p := range []int{2, 4, 8, 7} {
		one := AlltoallOneShot(p, 64)
		pw := AlltoallPairwise(p, 64)
		if countMsgs(one) != p*(p-1) {
			t.Fatalf("one-shot p=%d: %d msgs", p, countMsgs(one))
		}
		if countMsgs(pw) != p*(p-1) {
			t.Fatalf("pairwise p=%d: %d msgs", p, countMsgs(pw))
		}
		if len(pw) != p-1 {
			t.Fatalf("pairwise p=%d: %d rounds", p, len(pw))
		}
	}
}

func TestAlltoallCoversAllPairs(t *testing.T) {
	for _, p := range []int{4, 8, 6} {
		seen := map[[2]int]int{}
		for _, r := range AlltoallPairwise(p, 1) {
			for _, tr := range r {
				seen[[2]int{tr.Src, tr.Dst}]++
			}
		}
		for s := 0; s < p; s++ {
			for d := 0; d < p; d++ {
				if s == d {
					continue
				}
				if seen[[2]int{s, d}] != 1 {
					t.Fatalf("p=%d: pair (%d,%d) sent %d times", p, s, d, seen[[2]int{s, d}])
				}
			}
		}
	}
}

func TestPairwiseRoundsAreMatchingsOnPow2(t *testing.T) {
	for _, r := range AlltoallPairwise(8, 1) {
		srcs := map[int]bool{}
		dsts := map[int]bool{}
		for _, tr := range r {
			if srcs[tr.Src] || dsts[tr.Dst] {
				t.Fatalf("round is not a matching: %+v", r)
			}
			srcs[tr.Src] = true
			dsts[tr.Dst] = true
		}
	}
}

func TestAllgatherRingUsesOnlyNeighbours(t *testing.T) {
	ring := NewRing(8)
	for _, r := range AllgatherRing(8, 1) {
		for _, tr := range r {
			if len(ring.Path(tr.Src, tr.Dst)) != 1 {
				t.Fatalf("non-neighbour transfer %d->%d", tr.Src, tr.Dst)
			}
		}
	}
	if countMsgs(AllgatherRing(8, 1)) != 8*7 {
		t.Fatal("ring allgather message count")
	}
}

func TestBroadcastBinomialReachesAll(t *testing.T) {
	for _, p := range []int{2, 5, 8, 16} {
		has := map[int]bool{0: true}
		for _, r := range BroadcastBinomialRounds(p, 1) {
			for _, tr := range r {
				if !has[tr.Src] {
					t.Fatalf("p=%d: rank %d sends before receiving", p, tr.Src)
				}
			}
			for _, tr := range r {
				has[tr.Dst] = true
			}
		}
		if len(has) != p {
			t.Fatalf("p=%d: broadcast reached %d ranks", p, len(has))
		}
	}
}

func TestScheduleCostContentionOrdering(t *testing.T) {
	spec := testSpec()
	// On a ring, the one-shot alltoall saturates long paths; pairwise
	// rounds spread them; ring allgather is friendliest per byte moved.
	ringModel := NewModel(spec, NewRing(16))
	one := ringModel.ScheduleCost(AlltoallOneShot(16, 1<<16))
	pw := ringModel.ScheduleCost(AlltoallPairwise(16, 1<<16))
	if one <= 0 || pw <= 0 {
		t.Fatal("non-positive costs")
	}
	// On a fully connected network the one-shot version wins (no
	// contention, no round syncs); on the ring it must lose its lead.
	fcModel := NewModel(spec, NewFullyConnected(16))
	oneFC := fcModel.ScheduleCost(AlltoallOneShot(16, 1<<16))
	pwFC := fcModel.ScheduleCost(AlltoallPairwise(16, 1<<16))
	if oneFC >= pwFC {
		t.Fatalf("fully connected: one-shot %g should beat pairwise %g", oneFC, pwFC)
	}
	ratioRing := one / pw
	ratioFC := oneFC / pwFC
	if ratioRing <= ratioFC {
		t.Fatalf("contention should penalise one-shot more on the ring: %g vs %g",
			ratioRing, ratioFC)
	}
}

func TestScheduleCostEmptyRounds(t *testing.T) {
	m := NewModel(testSpec(), NewRing(4))
	if m.ScheduleCost(nil) != 0 {
		t.Fatal("empty schedule should cost 0")
	}
}
