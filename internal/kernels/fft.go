package kernels

import (
	"fmt"
	"math"
	"math/cmplx"
)

// FFT computes the in-place iterative radix-2 Cooley–Tukey transform of x.
// len(x) must be a power of two.
func FFT(x []complex128) error {
	n := len(x)
	if n == 0 || n&(n-1) != 0 {
		return fmt.Errorf("kernels: FFT length %d is not a power of two", n)
	}
	// Bit-reversal permutation.
	for i, j := 0, 0; i < n; i++ {
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j &^= bit
		}
		j |= bit
	}
	// Butterfly stages.
	for length := 2; length <= n; length <<= 1 {
		ang := -2 * math.Pi / float64(length)
		wl := cmplx.Exp(complex(0, ang))
		for start := 0; start < n; start += length {
			w := complex(1, 0)
			half := length / 2
			for k := 0; k < half; k++ {
				u := x[start+k]
				v := x[start+k+half] * w
				x[start+k] = u + v
				x[start+k+half] = u - v
				w *= wl
			}
		}
	}
	return nil
}

// DFTNaive computes the O(n²) reference transform.
func DFTNaive(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var s complex128
		for t := 0; t < n; t++ {
			ang := -2 * math.Pi * float64(k) * float64(t) / float64(n)
			s += x[t] * cmplx.Exp(complex(0, ang))
		}
		out[k] = s
	}
	return out
}

// FFTFlops returns the standard flop count 5·n·log2(n).
func FFTFlops(n int) float64 {
	return 5 * float64(n) * math.Log2(float64(n))
}

// FFTBytes returns the streaming bytes per out-of-cache pass: log2(n)
// passes over 16-byte complex values, read+write. A cache-blocked
// (communication-avoiding) FFT does O(log n / log Z) passes instead; the
// two bounds bracket the W1 story for FFT.
func FFTBytes(n int, cacheBytes int64) (naive, blocked float64) {
	passes := math.Log2(float64(n))
	naive = 32 * float64(n) * passes
	zWords := float64(cacheBytes) / 16
	if zWords < 2 {
		zWords = 2
	}
	blockedPasses := math.Ceil(passes / math.Log2(zWords))
	blocked = 32 * float64(n) * blockedPasses
	return naive, blocked
}
