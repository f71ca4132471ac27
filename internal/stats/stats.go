// Package stats implements the scoring and descriptive statistics the
// experiments use: SSIM for image comparison (the paper scores Canny with
// SSIM against expert ground truth), RMSE for the drone behaviour-learning
// study, and the mean.
package stats

import "math"

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// MSE returns the mean squared error between a and b.
// It panics if the lengths differ.
func MSE(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("stats: MSE length mismatch")
	}
	if len(a) == 0 {
		return 0
	}
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s / float64(len(a))
}

// RMSE returns the root mean squared error between a and b.
func RMSE(a, b []float64) float64 { return math.Sqrt(MSE(a, b)) }
