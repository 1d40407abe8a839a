package kernels

// Jacobi2DFlops returns the flop count of one sweep over an n×n interior
// (3 adds + 1 multiply per point).
func Jacobi2DFlops(n int) float64 { return 4 * float64(n) * float64(n) }

// Jacobi2DBytes returns the streaming DRAM bytes of one sweep when the
// grid does not fit in cache: read src once, write dst once.
func Jacobi2DBytes(n int) float64 { return 16 * float64(n+2) * float64(n+2) }

// HaloModel describes the per-step communication of a 1-D row-block
// decomposition of an n×n Jacobi grid over p ranks.
type HaloModel struct {
	N int // interior grid dimension
	P int // ranks
}

// RowsPerRank returns the interior rows owned by one rank (ceiling).
func (h HaloModel) RowsPerRank() int { return (h.N + h.P - 1) / h.P }

// HaloWords returns the words exchanged per rank per step with the
// remedied protocol: one row up, one row down.
func (h HaloModel) HaloWords() int {
	if h.P == 1 {
		return 0
	}
	return 2 * h.N
}

// WastefulWords returns the words exchanged per rank per step by the W2
// anti-pattern that re-fetches the full neighbour block instead of just
// the boundary row.
func (h HaloModel) WastefulWords() int {
	if h.P == 1 {
		return 0
	}
	return 2 * h.N * h.RowsPerRank()
}

// StepFlopsPerRank returns the per-rank flops of one sweep.
func (h HaloModel) StepFlopsPerRank() float64 {
	return 4 * float64(h.RowsPerRank()) * float64(h.N)
}

// StepBytesPerRank returns the per-rank streaming DRAM bytes of one sweep.
func (h HaloModel) StepBytesPerRank() float64 {
	return 16 * float64(h.RowsPerRank()+2) * float64(h.N+2)
}
