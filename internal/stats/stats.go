// Package stats provides the least-squares line fit F28 uses to measure
// the idle wave's propagation speed from its arrival times.
//
// The package is deliberately dependency-free and deterministic; it never
// consults a random source.
package stats

import "errors"

// Fit is a least-squares line y = Slope*x + Intercept with goodness of fit.
type Fit struct {
	Slope     float64
	Intercept float64
	R2        float64
}

// ErrBadFit reports insufficient or degenerate data for a regression.
var ErrBadFit = errors.New("stats: need at least two distinct x values")

// LinearFit computes the ordinary least squares fit of ys on xs.
func LinearFit(xs, ys []float64) (Fit, error) {
	if len(xs) != len(ys) || len(xs) < 2 {
		return Fit{}, ErrBadFit
	}
	n := float64(len(xs))
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var sxx, sxy, syy float64
	for i := range xs {
		dx := xs[i] - mx
		dy := ys[i] - my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return Fit{}, ErrBadFit
	}
	f := Fit{Slope: sxy / sxx}
	f.Intercept = my - f.Slope*mx
	if syy == 0 {
		f.R2 = 1
	} else {
		f.R2 = (sxy * sxy) / (sxx * syy)
	}
	return f, nil
}
