package kernels

// CGCommModel models the communication of one distributed CG iteration on
// p ranks over a 1-D row-block decomposition of a grid Laplacian: a halo
// exchange for the SpMV plus allreduces for the two inner products. The
// s-step (communication-avoiding) variant batches s iterations per
// allreduce round at the price of sExtraFlopsFactor more local work — the
// trade Yelick's communication-avoiding Krylov work makes.
type CGCommModel struct {
	GridN int // Laplacian grid dimension (matrix dim = GridN²)
	P     int
	S     int // s-step blocking factor; 1 = standard CG
}

// HaloWordsPerIteration returns the per-rank halo traffic of one SpMV.
func (m CGCommModel) HaloWordsPerIteration() int {
	if m.P == 1 {
		return 0
	}
	return 2 * m.GridN
}

// FlopsPerIteration returns the per-rank flops of one iteration: SpMV
// (~5 nonzeros per row × 2) plus the vector operations, multiplied by the
// s-step redundancy factor (the extra basis computations cost ≈ 50% more
// local work at moderate s).
func (m CGCommModel) FlopsPerIteration() float64 {
	rows := float64(m.GridN*m.GridN) / float64(m.P)
	base := rows * (2*5 + 10)
	if m.S > 1 {
		base *= 1.5
	}
	return base
}
