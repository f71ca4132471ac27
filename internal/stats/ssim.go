package stats

// SSIM computes the mean structural similarity index between two grayscale
// images given as flat row-major float64 slices with the given width. Pixel
// values are expected in [0, 1]. It uses the standard 8x8 sliding window
// with stride 4 and the usual stabilization constants (K1=0.01, K2=0.03,
// L=1). The result lies in [-1, 1]; identical images score 1.
//
// This mirrors the scoring the paper uses for Canny (reference [70]).
func SSIM(a, b []float64, width int) float64 {
	if len(a) != len(b) {
		panic("stats: SSIM length mismatch")
	}
	if width <= 0 || len(a)%width != 0 {
		panic("stats: SSIM bad width")
	}
	height := len(a) / width
	const (
		win    = 8
		stride = 4
		c1     = 0.01 * 0.01
		c2     = 0.03 * 0.03
	)
	if width < win || height < win {
		// Image smaller than one window: fall back to a single global
		// window so tiny test images still get a meaningful score.
		return ssimWindow(a, b, width, 0, 0, width, height)
	}
	total, n := 0.0, 0
	for y := 0; y+win <= height; y += stride {
		for x := 0; x+win <= width; x += stride {
			total += ssimWindow(a, b, width, x, y, win, win)
			n++
		}
	}
	return total / float64(n)
}

// ssimWindow computes SSIM over one w×h window whose top-left corner is at
// (x0, y0) of a width-wide image.
func ssimWindow(a, b []float64, width, x0, y0, w, h int) float64 {
	const (
		c1 = 0.01 * 0.01
		c2 = 0.03 * 0.03
	)
	n := float64(w * h)
	var ma, mb float64
	for y := y0; y < y0+h; y++ {
		row := y * width
		for x := x0; x < x0+w; x++ {
			ma += a[row+x]
			mb += b[row+x]
		}
	}
	ma /= n
	mb /= n
	var va, vb, cov float64
	for y := y0; y < y0+h; y++ {
		row := y * width
		for x := x0; x < x0+w; x++ {
			da := a[row+x] - ma
			db := b[row+x] - mb
			va += da * da
			vb += db * db
			cov += da * db
		}
	}
	va /= n
	vb /= n
	cov /= n
	num := (2*ma*mb + c1) * (2*cov + c2)
	den := (ma*ma + mb*mb + c1) * (va + vb + c2)
	if den == 0 {
		return 1
	}
	return num / den
}
