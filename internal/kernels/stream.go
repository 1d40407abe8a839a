package kernels

// The STREAM kernels: the canonical bandwidth-bound workloads whose
// arithmetic intensity sits far below every machine's ridge point (W8).

// Triad performs c[i] = a[i] + s·b[i], the headline STREAM kernel.
func Triad(c, a, b []float64, s float64) {
	for i := range a {
		c[i] = a[i] + s*b[i]
	}
}

// TriadFlops returns the flop count of an n-element triad (mul + add).
func TriadFlops(n int) float64 { return 2 * float64(n) }

// TriadBytes returns the DRAM bytes of an n-element triad: read a, read b,
// write c (write-allocate adds a read of c; we count the 3-stream model).
func TriadBytes(n int) float64 { return 24 * float64(n) }

// DotFlops returns the flop count of an n-element dot product.
func DotFlops(n int) float64 { return 2 * float64(n) }

// DotBytes returns the DRAM bytes of an n-element dot product.
func DotBytes(n int) float64 { return 16 * float64(n) }

// SpMVFlops returns the flop count of a CSR SpMV with the given nonzeros.
func SpMVFlops(nnz int) float64 { return 2 * float64(nnz) }

// SpMVBytes returns the streaming bytes of a CSR SpMV: 8B value + 4B index
// per nonzero, plus the row pointer and vectors (dominant term only).
func SpMVBytes(nnz int) float64 { return 12 * float64(nnz) }
