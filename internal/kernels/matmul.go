// Package kernels implements the scientific computing kernels the keynote
// draws its examples from — dense matmul, STREAM triad, FFT, sample sort,
// graph traversal — in a wasteful and a remedied form where the contrast
// matters, together with analytic operation counts (flops, DRAM bytes,
// communication volume) for those and for SpMV, stencils, n-body and CG
// that feed the modeled experiments, and a trace-driven matmul that drives
// the cache simulator.
package kernels

import (
	"math"

	"tenways/internal/machine"
	"tenways/internal/mem"
)

// MatMulNaive computes C = A·B for n×n row-major matrices with the classic
// triple loop in ijk order — the no-locality baseline (W1): the B column
// walk strides by n doubles per step.
func MatMulNaive(c, a, b []float64, n int) {
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for k := 0; k < n; k++ {
				s += a[i*n+k] * b[k*n+j]
			}
			c[i*n+j] = s
		}
	}
}

// MatMulBlocked computes C = A·B with square cache blocking of the given
// block size — the remedied W1 form: each block triple fits in cache, so
// every element is fetched from DRAM O(n/block) instead of O(n) times.
func MatMulBlocked(c, a, b []float64, n, block int) {
	if block < 1 || block > n {
		block = n
	}
	for i := range c[:n*n] {
		c[i] = 0
	}
	for ii := 0; ii < n; ii += block {
		for kk := 0; kk < n; kk += block {
			for jj := 0; jj < n; jj += block {
				iMax := min(ii+block, n)
				kMax := min(kk+block, n)
				jMax := min(jj+block, n)
				for i := ii; i < iMax; i++ {
					for k := kk; k < kMax; k++ {
						aik := a[i*n+k]
						ci := c[i*n+jj : i*n+jMax]
						bk := b[k*n+jj : k*n+jMax]
						for j := range ci {
							ci[j] += aik * bk[j]
						}
					}
				}
			}
		}
	}
}

// MatMulFlops returns the flop count of an n×n matmul (2n³).
func MatMulFlops(n int) float64 { return 2 * float64(n) * float64(n) * float64(n) }

// MatMulTraced replays the address stream of C = A·B (blocked with the
// given block size; block >= n degenerates to naive ijk) against a cache
// hierarchy, without computing values. It is the trace source for the F1
// blocking figure. Matrices are laid out contiguously: A at 0, B at n²·8,
// C at 2n²·8.
func MatMulTraced(h *mem.Hierarchy, n, block int) {
	if block < 1 || block > n {
		block = n
	}
	aBase := uint64(0)
	bBase := uint64(n*n) * 8
	cBase := uint64(2*n*n) * 8
	addr := func(base uint64, i, j int) uint64 { return base + uint64(i*n+j)*8 }
	for ii := 0; ii < n; ii += block {
		for kk := 0; kk < n; kk += block {
			for jj := 0; jj < n; jj += block {
				iMax := min(ii+block, n)
				kMax := min(kk+block, n)
				jMax := min(jj+block, n)
				for i := ii; i < iMax; i++ {
					for k := kk; k < kMax; k++ {
						h.Read(0, addr(aBase, i, k), 8)
						for j := jj; j < jMax; j++ {
							h.Read(0, addr(bBase, k, j), 8)
							h.Read(0, addr(cBase, i, j), 8)
							h.Write(0, addr(cBase, i, j), 8)
						}
					}
				}
			}
		}
	}
}

// CommAvoidingMatMul models the per-processor communication of parallel
// dense matmul on p processors with replication factor c (the 2.5D
// algorithm; c=1 is SUMMA/Cannon). Returned volumes are in words moved per
// processor; the memory multiplier reports the c× extra storage the
// replication costs — the communication/memory trade-off of
// communication-avoiding algorithms (F13, W2 remedy).
type CommAvoidingMatMul struct {
	N int // matrix dimension
	P int // processors
	C int // replication factor, 1 <= c <= p^(1/3)
}

// WordsPerProc returns the communication volume per processor in words:
// O(n² / sqrt(c·p)), the Ballard–Demmel–Holtz–Schwartz bound shape.
func (m CommAvoidingMatMul) WordsPerProc() float64 {
	n := float64(m.N)
	return 2 * n * n / math.Sqrt(float64(m.C)*float64(m.P))
}

// MessagesPerProc returns the per-processor message count:
// O(sqrt(p/c³)) + log(c).
func (m CommAvoidingMatMul) MessagesPerProc() float64 {
	return math.Sqrt(float64(m.P)/math.Pow(float64(m.C), 3)) + math.Log2(float64(m.C)+1)
}

// MemoryPerProcWords returns per-processor storage in words: 3cn²/p.
func (m CommAvoidingMatMul) MemoryPerProcWords() float64 {
	n := float64(m.N)
	return 3 * float64(m.C) * n * n / float64(m.P)
}

// CommSeconds returns the modeled communication time per processor on the
// machine: the bandwidth term for the moved words plus the latency term
// for the messages. Shared by the F13 figure and the F13 tunable.
func (m CommAvoidingMatMul) CommSeconds(spec *machine.Spec) float64 {
	return 8*m.WordsPerProc()/spec.Net.BytesPerSec + m.MessagesPerProc()*spec.MsgTimeSec(0)
}

// CommJoules returns the modeled communication energy per processor.
func (m CommAvoidingMatMul) CommJoules(spec *machine.Spec) float64 {
	perMsgBytes := 8 * m.WordsPerProc() / m.MessagesPerProc()
	return m.MessagesPerProc() * spec.MsgEnergyJ(perMsgBytes)
}

// MaxReplication returns the largest useful c for p processors: p^(1/3).
func MaxReplication(p int) int {
	c := int(math.Cbrt(float64(p)))
	if c < 1 {
		return 1
	}
	return c
}
