package viz

import (
	"fmt"
	"math"
	"strings"
)

// Heatmap renders a 2-D field (e.g. the MUSIC pseudo-spectrum over
// AoA × ToF) as an SVG raster of colored cells.
type Heatmap struct {
	Title  string
	XLabel string
	YLabel string
	// X and Y are the axis coordinates; Z[i][j] is the value at
	// (X... row i = Y[i], column j = X[j]).
	X, Y []float64
	Z    [][]float64
	// LogScale maps values through log10 before coloring — MUSIC spectra
	// span orders of magnitude.
	LogScale bool
	// CellPx is the pixel size of one cell (0 = auto to ~640px wide).
	CellPx int
}

// colorRamp maps t∈[0,1] to a blue→yellow→red ramp.
func colorRamp(t float64) string {
	if math.IsNaN(t) {
		t = 0
	}
	if t < 0 {
		t = 0
	}
	if t > 1 {
		t = 1
	}
	// Piecewise: dark blue → teal → yellow → red.
	var r, g, b float64
	switch {
	case t < 0.33:
		f := t / 0.33
		r, g, b = 0.05, 0.2+0.5*f, 0.5+0.3*f
	case t < 0.66:
		f := (t - 0.33) / 0.33
		r, g, b = 0.05+0.9*f, 0.7+0.25*f, 0.8-0.7*f
	default:
		f := (t - 0.66) / 0.34
		r, g, b = 0.95, 0.95-0.75*f, 0.1
	}
	return fmt.Sprintf("#%02x%02x%02x", int(r*255), int(g*255), int(b*255))
}

// SVG renders the heatmap as a standalone SVG document.
func (h *Heatmap) SVG() (string, error) {
	ny := len(h.Z)
	if ny == 0 || len(h.Z[0]) == 0 {
		return "", fmt.Errorf("viz: empty heatmap")
	}
	nx := len(h.Z[0])
	for _, row := range h.Z {
		if len(row) != nx {
			return "", fmt.Errorf("viz: ragged heatmap rows")
		}
	}
	cell := h.CellPx
	if cell <= 0 {
		cell = 640 / nx
		if cell < 1 {
			cell = 1
		}
		if cell > 12 {
			cell = 12
		}
	}
	const mLeft, mTop, mBottom = 60, 36, 40
	w := mLeft + nx*cell + 20
	ht := mTop + ny*cell + mBottom

	// Value range (after optional log mapping).
	val := func(v float64) float64 {
		if h.LogScale {
			if v <= 0 {
				return math.Inf(-1)
			}
			return math.Log10(v)
		}
		return v
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, row := range h.Z {
		for _, v := range row {
			mv := val(v)
			if math.IsInf(mv, -1) {
				continue
			}
			lo = math.Min(lo, mv)
			hi = math.Max(hi, mv)
		}
	}
	//lint:allow floateq degenerate-range guard: avoids dividing by (hi-lo)==0
	if !finite(lo) || !finite(hi) || lo == hi {
		hi = lo + 1
	}

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n", w, ht, w, ht)
	b.WriteString(`<rect width="100%" height="100%" fill="white"/>` + "\n")
	fmt.Fprintf(&b, `<text x="%d" y="20" font-family="sans-serif" font-size="14" font-weight="bold">%s</text>`+"\n", mLeft, escape(h.Title))
	for i, row := range h.Z {
		for j, v := range row {
			t := (val(v) - lo) / (hi - lo)
			fmt.Fprintf(&b, `<rect x="%d" y="%d" width="%d" height="%d" fill="%s"/>`,
				mLeft+j*cell, mTop+(ny-1-i)*cell, cell, cell, colorRamp(t))
		}
		b.WriteString("\n")
	}
	// Axis extremes.
	if len(h.X) > 0 {
		fmt.Fprintf(&b, `<text x="%d" y="%d" font-family="sans-serif" font-size="10">%s</text>`+"\n",
			mLeft, mTop+ny*cell+14, fmtTick(h.X[0]))
		fmt.Fprintf(&b, `<text x="%d" y="%d" font-family="sans-serif" font-size="10" text-anchor="end">%s</text>`+"\n",
			mLeft+nx*cell, mTop+ny*cell+14, fmtTick(h.X[len(h.X)-1]))
	}
	if len(h.Y) > 0 {
		fmt.Fprintf(&b, `<text x="%d" y="%d" font-family="sans-serif" font-size="10" text-anchor="end">%s</text>`+"\n",
			mLeft-6, mTop+ny*cell, fmtTick(h.Y[0]))
		fmt.Fprintf(&b, `<text x="%d" y="%d" font-family="sans-serif" font-size="10" text-anchor="end">%s</text>`+"\n",
			mLeft-6, mTop+10, fmtTick(h.Y[len(h.Y)-1]))
	}
	fmt.Fprintf(&b, `<text x="%d" y="%d" font-family="sans-serif" font-size="12" text-anchor="middle">%s</text>`+"\n",
		mLeft+nx*cell/2, mTop+ny*cell+32, escape(h.XLabel))
	fmt.Fprintf(&b, `<text x="14" y="%d" font-family="sans-serif" font-size="12" text-anchor="middle" transform="rotate(-90 14 %d)">%s</text>`+"\n",
		mTop+ny*cell/2, mTop+ny*cell/2, escape(h.YLabel))
	b.WriteString("</svg>\n")
	return b.String(), nil
}
