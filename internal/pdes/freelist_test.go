package pdes

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// drainLadders empties the free list, so the next run builds cold ladders.
func drainLadders() {
	freeList.mu.Lock()
	clear(freeList.qs)
	freeList.qs = freeList.qs[:0]
	freeList.mu.Unlock()
}

// spareEvents is the event capacity of q's spare slabs.
func spareEvents(q *ladder) int {
	n := 0
	for _, sp := range q.spares {
		for _, s := range sp {
			n += cap(s)
		}
	}
	return n
}

// replay drives q through 20000 steps of the interleaved push/pop stream
// next (two pushes per pop, never pushing behind the last pop), drains it,
// and returns every popped event in order.
func replay(q *ladder, next func(i int, g uint64, now float64) Event) []Event {
	var pops []Event
	g := uint64(0xfeed)
	now := 0.0
	for i := 0; i < 20000; i++ {
		g = mix64(g)
		if q.len() > 0 && g%3 == 0 {
			ev := q.pop()
			pops = append(pops, ev)
			now = ev.Time
		} else {
			g = mix64(g)
			q.push(next(i, g, now))
		}
	}
	for q.len() > 0 {
		pops = append(pops, q.pop())
	}
	return pops
}

// abandon panics out of the one-partition run it handles as soon as its
// ladder holds unpopped events in the run, in a bucket and in the overflow
// at once: the state a failed run leaves for the free list to reset.
type abandon struct {
	*randWorkload
	q *ladder // the ladder it abandoned
}

func (w *abandon) Handle(s Sched, ev Event) {
	q := s.(*partSched).ps.q
	if q.head < len(q.run) && q.pending > len(q.over) && len(q.over) > 0 {
		w.q = q
		panic("abandoned mid-window")
	}
	w.randWorkload.Handle(s, ev)
}

// TestRecycledLadderPopsLikeFresh is the free list's exactness gate: a
// ladder parked after any earlier use and handed out at a new width must
// pop every stream exactly as a fresh ladder of that width does, and count
// the same merges and respreads. The earlier uses cover a drained stream at
// another width, odd-sized spare slabs (beyond the cap, so the trim runs),
// a stream abandoned with events left in the run, the buckets and the
// overflow, and a run that failed mid-window in the same state.
func TestRecycledLadderPopsLikeFresh(t *testing.T) {
	const look = 2e-6
	parked := []struct {
		name string
		park func(t *testing.T) *ladder // leaves one ladder on the free list
	}{
		{"drained", func(*testing.T) *ladder {
			q := newLadder(1e-8)
			replay(q, ladderStreams[2].next)
			putLadder(q)
			return q
		}},
		{"odd spares", func(*testing.T) *ladder {
			q := newLadder(1e-6)
			for _, c := range []int{65, 97, 333, 1000, 4097} {
				q.give(make([]Event, 0, c))
			}
			putLadder(q)
			return q
		}},
		{"abandoned stream", func(t *testing.T) *ladder {
			q := newLadder(1e-7)
			g := uint64(7)
			for i := 0; i < 5000; i++ {
				g = mix64(g)
				q.push(randomPush(i, g, 0))
				if i%2 == 1 {
					q.pop()
				}
			}
			// Land events beyond the rung, then merge a bucket and leave
			// part of it in the run.
			q.push(Event{Time: q.base + 2*ladderBuckets*q.width, Seq: 1 << 40})
			q.pop()
			if q.head == len(q.run) || q.pending == len(q.over) || len(q.over) == 0 {
				t.Fatalf("stream left run %d/%d, pending %d, over %d: want all three non-empty",
					q.head, len(q.run), q.pending, len(q.over))
			}
			putLadder(q)
			return q
		}},
		{"failed run", func(t *testing.T) *ladder {
			w := &abandon{randWorkload: newRandWorkload(96, 3, look)}
			_, err := run(w, Config{Partitions: 1, Workers: 1, Lookahead: look}, look/256)
			if err == nil || !strings.Contains(err.Error(), "abandoned mid-window") {
				t.Fatalf("got %v, want the abandoned run's panic", err)
			}
			return w.q
		}},
	}
	widths := []float64{1e-8, 1e-6, 1e-3}
	for c, pk := range parked {
		for si, s := range ladderStreams {
			// Each parked case replays every stream, at a width that
			// rotates with the case, so every stream meets every width.
			width := widths[(si+c)%len(widths)]
			name := fmt.Sprintf("%s/%s width=%g", pk.name, s.name, width)
			drainLadders()
			old := pk.park(t)
			q := getLadder(width)
			if q != old {
				t.Fatalf("%s: free list handed out another ladder", name)
			}
			if got := spareEvents(q); got > freeSpareEvents {
				t.Fatalf("%s: parked ladder keeps %d spare events, cap %d", name, got, freeSpareEvents)
			}
			for k, sp := range q.spares {
				for _, s := range sp[len(sp):cap(sp)] {
					if s != nil {
						t.Fatalf("%s: spare class %d pins a %d-event slab past its length", name, k, cap(s))
					}
				}
			}
			bare := *q
			bare.spares = [slabClasses][][]Event{}
			if !reflect.DeepEqual(bare, *newLadder(width)) {
				t.Fatalf("%s: reset ladder differs from a fresh one beyond its spares", name)
			}
			fresh := newLadder(width)
			want, got := replay(fresh, s.next), replay(q, s.next)
			if len(got) != len(want) {
				t.Fatalf("%s: recycled ladder popped %d events, fresh %d", name, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: pop %d is %+v, fresh ladder's %+v", name, i, got[i], want[i])
				}
			}
			if q.merges != fresh.merges || q.respreads != fresh.respreads {
				t.Fatalf("%s: merges/respreads %d/%d, fresh %d/%d", name, q.merges, q.respreads, fresh.merges, fresh.respreads)
			}
		}
	}
}

// keeper keeps the Sched its last Init or Handle call saw.
type keeper struct{ s Sched }

func (w *keeper) Ranks() int { return 1 }
func (w *keeper) Init(s Sched, _ int) {
	w.s = s
	s.At(0, 1e-6, 0, 0, 0)
}
func (w *keeper) Handle(s Sched, _ Event) { w.s = s }

// TestAtAfterRunPanics: a handler's Sched kept past its Run must not push
// into the ladder the run parked on the free list, which another run may
// own by then. Run detaches the ladder first, so the late At panics.
func TestAtAfterRunPanics(t *testing.T) {
	w := &keeper{}
	if _, err := Run(w, Config{Partitions: 1, Workers: 1, Lookahead: 1e-6}); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("At on a Sched kept past its Run did not panic")
		}
	}()
	w.s.At(0, 2e-6, 0, 0, 0)
}

// TestConcurrentRunsMatchSerial runs one- and four-partition Runs from
// several goroutines at once, all sharing the free list: each Result and
// each rank's trace chain must equal the serial run's.
func TestConcurrentRunsMatchSerial(t *testing.T) {
	const n, look, goroutines, rounds = 96, 2e-6, 4, 3
	cfgs := []Config{
		{Partitions: 1, Workers: 1, Lookahead: look},
		{Partitions: 4, Workers: 2, Lookahead: look},
	}
	seeds := []uint64{1, 0xabcdef, 77777}
	type outcome struct {
		res   Result
		trace []uint64
	}
	runOne := func(cfg Config, seed uint64) (outcome, error) {
		w := newRandWorkload(n, seed, look)
		res, err := Run(w, cfg)
		return outcome{res, w.trace}, err
	}
	serial := make([][]outcome, len(cfgs))
	for c, cfg := range cfgs {
		for _, seed := range seeds {
			o, err := runOne(cfg, seed)
			if err != nil {
				t.Fatal(err)
			}
			serial[c] = append(serial[c], o)
		}
	}
	var wg sync.WaitGroup
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				for j := range len(cfgs) * len(seeds) {
					// Each goroutine walks the runs from its own offset, so
					// different configurations overlap.
					k := (j + gi) % (len(cfgs) * len(seeds))
					c, si := k/len(seeds), k%len(seeds)
					o, err := runOne(cfgs[c], seeds[si])
					if err != nil {
						t.Errorf("goroutine %d: %v", gi, err)
						return
					}
					if want := serial[c][si]; o.res != want.res || !slices.Equal(o.trace, want.trace) {
						t.Errorf("goroutine %d round %d: partitions=%d seed=%d: %+v, serial %+v",
							gi, round, cfgs[c].Partitions, seeds[si], o.res, want.res)
					}
				}
			}
		}(gi)
	}
	wg.Wait()
}

// warmRunAllocs is what a warm one-partition Run of TestWarmRunReusesLadder's
// ticker allocates, measured with Go 1.24 on linux/amd64: the engine with
// its sequence counters, partition state and two batch matrices, the
// barrier and its slots, the window loop's WaitGroup and the seeding Sched.
// A cold run allocates 16: the ladder, its slabs and its spare lists too.
const warmRunAllocs = 9

// TestWarmRunReusesLadder is the free list's allocation gate: once a run
// has parked its ladder, the next one-partition Run of a tiny workload
// allocates neither a ladder nor a slab.
func TestWarmRunReusesLadder(t *testing.T) {
	w := &ticker{n: 1, steps: 200, failAt: -1, look: 1e-6}
	cfg := Config{Partitions: 1, Workers: 1, Lookahead: w.look}
	once := func() {
		if _, err := Run(w, cfg); err != nil {
			t.Fatal(err)
		}
	}
	if got := testing.AllocsPerRun(20, once); got > warmRunAllocs {
		t.Errorf("warm run allocates %g times, want at most %d", got, warmRunAllocs)
	}
	cold := testing.AllocsPerRun(20, func() {
		drainLadders()
		once()
	})
	if cold <= warmRunAllocs {
		t.Errorf("cold run allocates %g times, no more than a warm run's %d: the gate measures nothing", cold, warmRunAllocs)
	}
}

// TestFreeListRetentionBounded runs F28's idle wave at 2^17 ranks, whose
// ladders grow slabs of thousands of events, and checks what the free list
// keeps afterwards: at most freeLadders ladders, each with at most
// freeSpareEvents events of spare slabs.
func TestFreeListRetentionBounded(t *testing.T) {
	w := mustWave(t, 1<<17, 4, 50e-6, 400e-6, []int{1, 4}, []float64{2e-6, 2.5e-6})
	if _, err := Run(w, Config{Partitions: 8, Lookahead: w.MinDelay()}); err != nil {
		t.Fatal(err)
	}
	freeList.mu.Lock()
	defer freeList.mu.Unlock()
	if len(freeList.qs) > freeLadders {
		t.Errorf("free list holds %d ladders, cap %d", len(freeList.qs), freeLadders)
	}
	total := 0
	for _, q := range freeList.qs {
		total += spareEvents(q)
	}
	limit := freeLadders * freeSpareEvents
	t.Logf("free list keeps %d ladders, %d spare events (%d bytes)", len(freeList.qs), total, total*int(unsafe.Sizeof(Event{})))
	if total > limit {
		t.Errorf("free list keeps %d spare events, cap %d", total, limit)
	}
}
