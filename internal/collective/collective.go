// Package collective implements classic collective-communication
// algorithms — barriers, broadcasts, and allreduces — on top of the pgas
// runtime, in several variants each, so the experiments can compare their
// scaling (T3, F14) and demonstrate the over-synchronisation waste (W3).
//
// Every rank of a world must call the same collective the same number of
// times, passing the Comm it created at startup. Barriers are built on
// pgas signal counters; the data-carrying collectives on pgas mailboxes,
// which copy at issue time and so need no buffer management. Each allreduce
// schedule exists once and runs either on values or, through AllreduceSize,
// on sizes alone (pgas SendSize), for experiments that only time it. One
// constraint inherited from the network model's per-sender FIFO-by-size
// ordering: repeated calls to the same vector collective on one world must
// use the same vector length (all the experiments do).
package collective

import (
	"fmt"
	"math/bits"
	"strconv"

	"tenways/internal/obs"
	"tenways/internal/pgas"
)

// Op is a binary reduction operator; it must be associative and commutative
// for the tree algorithms to equal the flat reference.
type Op func(a, b float64) float64

// Sum is the addition operator.
func Sum(a, b float64) float64 { return a + b }

// Max is the maximum operator.
func Max(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// Comm is one rank's collective context. Create exactly one per rank at the
// start of the rank body.
type Comm struct {
	r      *pgas.Rank
	counts map[string]int64 // consumed-signal thresholds per flag

	// Hot-path instruments, fetched once from the world's registry: ops
	// counts collective invocations, bytes the payload this rank injected
	// into collectives (signals count as 8 bytes like the pgas runtime's).
	ops   *obs.Counter
	bytes *obs.Counter
}

// New creates the rank's collective context.
func New(r *pgas.Rank) *Comm {
	reg := r.World().Obs()
	return &Comm{
		r:      r,
		counts: make(map[string]int64),
		ops:    reg.Counter("collective.ops"),
		bytes:  reg.Counter("collective.bytes"),
	}
}

// send is pgas.Rank.Send with byte accounting.
func (c *Comm) send(dst int, box string, vals []float64) {
	c.bytes.Add(int64(8 * len(vals)))
	c.r.Send(dst, box, vals)
}

// signal is pgas.Rank.Signal with byte accounting (signals are 8-byte
// messages in the runtime's cost model).
func (c *Comm) signal(dst int, flag string) {
	c.bytes.Add(8)
	c.r.Signal(dst, flag)
}

// Rank returns the underlying pgas rank.
func (c *Comm) Rank() *pgas.Rank { return c.r }

// waitMore blocks until k further signals beyond all previously consumed
// ones have arrived on flag.
func (c *Comm) waitMore(flag string, k int64) {
	c.counts[flag] += k
	c.r.WaitSignal(flag, c.counts[flag])
}

// waitSync is waitMore inside a Sync section: the blocked time is
// attributed to sync-wait rather than comm-wait. Barriers use it.
func (c *Comm) waitSync(flag string, k int64) {
	c.r.Sync(func() { c.waitMore(flag, k) })
}

// BarrierCentral is the naive barrier: everyone signals rank 0; rank 0
// signals everyone back. O(P) serialised messages at the root.
func (c *Comm) BarrierCentral() {
	c.ops.Inc()
	r := c.r
	n := r.N()
	if n == 1 {
		return
	}
	if r.ID() == 0 {
		c.waitSync("bar.c.up", int64(n-1))
		for d := 1; d < n; d++ {
			c.signal(d, "bar.c.down")
		}
	} else {
		c.signal(0, "bar.c.up")
		c.waitSync("bar.c.down", 1)
	}
}

// BarrierDissemination is the O(log P) dissemination barrier: in round k,
// rank i signals rank (i+2^k) mod P and waits for the symmetric signal.
func (c *Comm) BarrierDissemination() {
	c.ops.Inc()
	r := c.r
	n := r.N()
	for k, dist := 0, 1; dist < n; k, dist = k+1, dist*2 {
		flag := "bar.d." + strconv.Itoa(k)
		c.signal((r.ID()+dist)%n, flag)
		c.waitSync(flag, 1)
	}
}

// BarrierTree is a binomial combine-then-broadcast barrier: O(log P) depth
// with half the messages of dissemination.
func (c *Comm) BarrierTree() {
	c.ops.Inc()
	r := c.r
	n := r.N()
	if n == 1 {
		return
	}
	id := r.ID()
	if nch := len(children(id, n)); nch > 0 {
		c.waitSync("bar.t.up", int64(nch))
	}
	if id != 0 {
		c.signal(parent(id), "bar.t.up")
		c.waitSync("bar.t.down", 1)
	}
	for _, ch := range children(id, n) {
		c.signal(ch, "bar.t.down")
	}
}

// BarrierBegin posts this rank's arrival at a split-phase tree barrier and
// returns immediately (after send overhead at most): the MPI_Ibarrier
// pattern. Leaves propagate their arrival up the binomial tree at once;
// internal ranks combine children in BarrierEnd. Work done between
// BarrierBegin and BarrierEnd overlaps the barrier, which is what lets a
// non-blocking barrier absorb injected noise instead of relaying it — the
// chaos idle-wave experiments' remedied stack. Begin/End pairs must not
// overlap on one rank; successive epochs are fine.
func (c *Comm) BarrierBegin() {
	c.ops.Inc()
	r := c.r
	n := r.N()
	if n == 1 {
		return
	}
	id := r.ID()
	if id != 0 && len(children(id, n)) == 0 {
		c.signal(parent(id), "bar.nb.up")
	}
}

// BarrierEnd completes the split-phase barrier begun by the matching
// BarrierBegin, blocking (as sync-wait) until every rank's arrival has been
// combined and the release has propagated back down the tree.
func (c *Comm) BarrierEnd() {
	c.ops.Inc()
	r := c.r
	n := r.N()
	if n == 1 {
		return
	}
	id := r.ID()
	ch := children(id, n)
	if len(ch) > 0 {
		c.waitSync("bar.nb.up", int64(len(ch)))
		if id != 0 {
			c.signal(parent(id), "bar.nb.up")
		}
	}
	if id != 0 {
		c.waitSync("bar.nb.down", 1)
	}
	for _, d := range ch {
		c.signal(d, "bar.nb.down")
	}
}

// parent returns the binomial-tree parent of a non-zero vrank: the vrank
// with its highest set bit cleared.
func parent(vr int) int {
	return vr &^ (1 << (bits.Len(uint(vr)) - 1))
}

// children returns the binomial-tree children of vr on an n-rank tree:
// vr | 1<<k for every k above vr's highest set bit, while < n.
func children(vr, n int) []int {
	var out []int
	start := 0
	if vr != 0 {
		start = bits.Len(uint(vr))
	}
	for k := start; ; k++ {
		ch := vr | 1<<k
		if ch >= n {
			break
		}
		out = append(out, ch)
	}
	return out
}

// BroadcastFlat sends x from rank 0 to everyone with P−1 direct sends.
// All ranks return the broadcast vector.
func (c *Comm) BroadcastFlat(x []float64) []float64 {
	c.ops.Inc()
	r := c.r
	n := r.N()
	if r.ID() == 0 {
		for d := 1; d < n; d++ {
			c.send(d, "bc.flat", x)
		}
		return append([]float64(nil), x...)
	}
	return r.Recv("bc.flat")
}

// BroadcastTree broadcasts from rank 0 down a binomial tree: O(log P)
// depth versus the flat variant's O(P) serialisation at the root.
func (c *Comm) BroadcastTree(x []float64) []float64 {
	c.ops.Inc()
	r := c.r
	var data []float64
	if r.ID() == 0 {
		data = append([]float64(nil), x...)
	} else {
		data = r.Recv("bc.tree")
	}
	for _, ch := range children(r.ID(), r.N()) {
		c.send(ch, "bc.tree", data)
	}
	return data
}

// AllreduceFlat is the naive allreduce: everyone sends its vector to rank
// 0, which combines and broadcasts. O(P) messages serialised at the root.
func (c *Comm) AllreduceFlat(x []float64, op Op) []float64 {
	return c.allreduceFlat(len(x), x, op)
}

// allreduceFlat is AllreduceFlat's schedule on m-word vectors. x is this
// rank's vector, or nil for a size-only run, which carries and combines
// nothing; the two send, charge and count the same.
func (c *Comm) allreduceFlat(m int, x []float64, op Op) []float64 {
	c.ops.Inc()
	r := c.r
	n := r.N()
	if n == 1 {
		return append([]float64(nil), x...)
	}
	if r.ID() == 0 {
		acc := append([]float64(nil), x...)
		for src := 1; src < n; src++ {
			combine(acc, 0, r.Recv("ar.flat.up"), op)
		}
		r.Compute(float64((n-1)*m), float64(8*n*m)) // combining cost
		for d := 1; d < n; d++ {
			c.sendSpan(d, "ar.flat.down", acc, 0, m)
		}
		return acc
	}
	c.sendSpan(0, "ar.flat.up", x, 0, m)
	return r.Recv("ar.flat.down")
}

// AllreduceRecursiveDoubling runs the O(log P) recursive-doubling
// allreduce: each round exchanges full vectors with the rank at XOR
// distance 2^k. The rank count must be a power of two.
func (c *Comm) AllreduceRecursiveDoubling(x []float64, op Op) ([]float64, error) {
	return c.allreduceRecursiveDoubling(len(x), x, op)
}

// allreduceRecursiveDoubling is AllreduceRecursiveDoubling's schedule on
// m-word vectors; x is nil for a size-only run, as in allreduceFlat.
func (c *Comm) allreduceRecursiveDoubling(m int, x []float64, op Op) ([]float64, error) {
	c.ops.Inc()
	r := c.r
	n := r.N()
	if n&(n-1) != 0 {
		return nil, fmt.Errorf("collective: recursive doubling needs power-of-two ranks, got %d", n)
	}
	acc := append([]float64(nil), x...)
	for k, dist := 0, 1; dist < n; k, dist = k+1, dist*2 {
		partner := r.ID() ^ dist
		box := "ar.rd." + strconv.Itoa(k)
		c.sendSpan(partner, box, acc, 0, m)
		combine(acc, 0, r.Recv(box), op)
		r.Compute(float64(m), float64(16*m))
	}
	return acc, nil
}

// allreduceRing runs the bandwidth-optimal ring allreduce on m-word
// vectors: a reduce-scatter of n−1 chunk steps followed by an allgather of
// n−1 chunk steps, sending only 2·m·(n−1)/n elements per rank in total.
// Works for any rank count. x is nil for a size-only run, as in
// allreduceFlat.
func (c *Comm) allreduceRing(m int, x []float64, op Op) []float64 {
	c.ops.Inc()
	r := c.r
	n := r.N()
	acc := append([]float64(nil), x...)
	if n == 1 {
		return acc
	}
	id := r.ID()
	right := (id + 1) % n
	// Each phase uses one box for all its steps. Only the left neighbour
	// sends into a rank's ring boxes, and a world delivers the messages to
	// one rank in issue order (arrivals queue at the receiver's NIC), so
	// at step s the oldest message in the box is step s's chunk.
	const scatterBox, gatherBox = "ar.ring", "ar.ring.g"
	// Reduce-scatter: after n−1 steps, rank i owns the full reduction of
	// chunk (i+1) mod n.
	for s := 0; s < n-1; s++ {
		sendChunk := (id - s + n) % n
		recvChunk := (id - s - 1 + n) % n
		lo, hi := chunkRange(m, n, sendChunk)
		c.sendSpan(right, scatterBox, acc, lo, hi)
		rlo, rhi := chunkRange(m, n, recvChunk)
		combine(acc, rlo, r.Recv(scatterBox), op)
		r.Compute(float64(rhi-rlo), float64(16*(rhi-rlo)))
	}
	// Allgather: circulate the completed chunks.
	for s := 0; s < n-1; s++ {
		sendChunk := (id - s + 1 + n) % n
		recvChunk := (id - s + n) % n
		lo, hi := chunkRange(m, n, sendChunk)
		c.sendSpan(right, gatherBox, acc, lo, hi)
		rlo, _ := chunkRange(m, n, recvChunk)
		for i, v := range r.Recv(gatherBox) {
			acc[rlo+i] = v
		}
	}
	return acc
}

// sendSpan sends acc[lo:hi] to dst, or, when acc is nil, hi−lo words with
// no contents: the one send of every allreduce schedule, so a size-only run
// charges exactly the messages and bytes a data-carrying one does.
func (c *Comm) sendSpan(dst int, box string, acc []float64, lo, hi int) {
	if acc == nil {
		c.bytes.Add(int64(8 * (hi - lo)))
		c.r.SendSize(dst, box, hi-lo)
		return
	}
	c.send(dst, box, acc[lo:hi])
}

// combine folds a received chunk into acc from element lo on. It ranges
// over in, so the nil message of a size-only run does no work.
func combine(acc []float64, lo int, in []float64, op Op) {
	for i, v := range in {
		acc[lo+i] = op(acc[lo+i], v)
	}
}

// AllreduceAlgorithms lists the selectable allreduce implementations in
// canonical order — the enumerated axis the T3 tunable searches.
func AllreduceAlgorithms() []string { return []string{"flat", "rdouble", "ring"} }

// AllreduceSize runs the named algorithm's allreduce schedule on words-long
// vectors that carry no values: the same messages, bytes, compute charges,
// counters and errors as the schedule on a words-long vector of values,
// without copying or combining a payload. Experiments that only time an
// allreduce use it.
func (c *Comm) AllreduceSize(alg string, words int) error {
	if words < 0 {
		return fmt.Errorf("collective: allreduce of %d words", words)
	}
	_, err := c.allreduce(alg, words, nil, nil)
	return err
}

// allreduce dispatches an allreduce by algorithm name ("flat", "rdouble",
// "ring"), so algorithm selection can be a tuned parameter rather than a
// call-site constant. It runs alg's schedule on m-word vectors; x is nil
// for a size-only run.
func (c *Comm) allreduce(alg string, m int, x []float64, op Op) ([]float64, error) {
	switch alg {
	case "flat":
		return c.allreduceFlat(m, x, op), nil
	case "rdouble":
		return c.allreduceRecursiveDoubling(m, x, op)
	case "ring":
		return c.allreduceRing(m, x, op), nil
	}
	return nil, fmt.Errorf("collective: unknown allreduce algorithm %q (known: %v)",
		alg, AllreduceAlgorithms())
}

// chunkRange partitions m elements into n nearly equal chunks and returns
// chunk i's half-open range.
func chunkRange(m, n, i int) (lo, hi int) {
	base := m / n
	rem := m % n
	lo = i*base + min(i, rem)
	hi = lo + base
	if i < rem {
		hi++
	}
	return lo, hi
}
