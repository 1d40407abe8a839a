// Package amdahl implements the classic analytic speedup models the
// keynote's serialisation argument (W5) rests on — Amdahl's law and
// Gustafson's scaled speedup — plus the Karp–Flatt metric, which recovers
// the experimentally determined serial fraction from measured speedups and
// so connects the measured plane's numbers back to the models.
package amdahl

import "errors"

// Speedup returns Amdahl's law: the speedup of a program with serial
// fraction f on p processors, 1 / (f + (1-f)/p).
func Speedup(f float64, p int) float64 {
	if p < 1 {
		p = 1
	}
	return 1 / (f + (1-f)/float64(p))
}

// Gustafson returns the scaled speedup of Gustafson's law: p - f·(p-1),
// the speedup when the parallel part grows with the machine.
func Gustafson(f float64, p int) float64 {
	if p < 1 {
		p = 1
	}
	return float64(p) - f*float64(p-1)
}

// ErrBadMeasurement reports an unusable speedup observation.
var ErrBadMeasurement = errors.New("amdahl: need p >= 2 and speedup in (0, p]")

// KarpFlatt returns the experimentally determined serial fraction
// e = (1/S - 1/p) / (1 - 1/p) from a measured speedup S on p processors.
// A serial fraction that *grows* with p indicates overhead (communication,
// synchronisation) rather than inherent serialisation.
func KarpFlatt(speedup float64, p int) (float64, error) {
	if p < 2 || speedup <= 0 || speedup > float64(p)+1e-9 {
		return 0, ErrBadMeasurement
	}
	pf := float64(p)
	return (1/speedup - 1/pf) / (1 - 1/pf), nil
}

// Efficiency returns speedup/p.
func Efficiency(speedup float64, p int) float64 {
	if p < 1 {
		p = 1
	}
	return speedup / float64(p)
}

// FitSerialFraction estimates a single serial fraction from several
// (p, speedup) observations by averaging their Karp–Flatt metrics;
// it also reports whether the per-point fractions trend upward (a sign of
// scaling overhead rather than fixed serial work).
func FitSerialFraction(ps []int, speedups []float64) (f float64, growing bool, err error) {
	if len(ps) != len(speedups) || len(ps) == 0 {
		return 0, false, ErrBadMeasurement
	}
	fractions := make([]float64, 0, len(ps))
	for i := range ps {
		kf, err := KarpFlatt(speedups[i], ps[i])
		if err != nil {
			return 0, false, err
		}
		fractions = append(fractions, kf)
	}
	sum := 0.0
	for _, x := range fractions {
		sum += x
	}
	f = sum / float64(len(fractions))
	growing = len(fractions) >= 2 && fractions[len(fractions)-1] > fractions[0]+1e-12
	return f, growing, nil
}
