// Package viz renders the evaluation's figures: CDF line plots as
// standalone SVG documents (the format of the paper's Figs. 7–9) and MUSIC
// pseudo-spectrum heatmaps. Everything is generated from scratch — no
// external plotting stack.
package viz

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Series is one labeled curve.
type Series struct {
	Label string
	// X and Y are same-length coordinate slices.
	X, Y []float64
}

// LinePlot describes an SVG line chart.
type LinePlot struct {
	Title  string
	XLabel string
	YLabel string
	Series []Series
	// Width and Height are the SVG canvas size in px (0 = 640×400).
	Width, Height int
}

// palette holds distinguishable stroke colors (colorblind-safe-ish).
var palette = []string{
	"#1b6ca8", "#d1495b", "#66a182", "#edae49", "#775bb5", "#2e4057",
}

// CDFPlot builds a LinePlot from labeled sample sets: each series becomes
// its empirical CDF curve, the standard presentation of localization
// error. Non-finite samples (NaN, ±Inf) are dropped — a failed pipeline
// run marks its error NaN, and one such value must not blank the whole
// figure; a series left with no finite samples is skipped.
func CDFPlot(title, xlabel string, labels []string, samples [][]float64) (*LinePlot, error) {
	if len(labels) != len(samples) || len(labels) == 0 {
		return nil, fmt.Errorf("viz: labels/samples mismatch")
	}
	p := &LinePlot{Title: title, XLabel: xlabel, YLabel: "CDF"}
	for i, lab := range labels {
		xs := make([]float64, 0, len(samples[i]))
		for _, x := range samples[i] {
			if finite(x) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			continue
		}
		sort.Float64s(xs)
		n := len(xs)
		sx := make([]float64, 0, n+1)
		sy := make([]float64, 0, n+1)
		sx = append(sx, xs[0])
		sy = append(sy, 0)
		for j, x := range xs {
			sx = append(sx, x)
			sy = append(sy, float64(j+1)/float64(n))
		}
		p.Series = append(p.Series, Series{Label: lab, X: sx, Y: sy})
	}
	if len(p.Series) == 0 {
		return nil, fmt.Errorf("viz: all series empty")
	}
	return p, nil
}

// SVG renders the plot as a standalone SVG document.
func (p *LinePlot) SVG() string {
	w, h := p.Width, p.Height
	if w <= 0 {
		w = 640
	}
	if h <= 0 {
		h = 400
	}
	const mLeft, mRight, mTop, mBottom = 60, 20, 36, 46
	plotW := float64(w - mLeft - mRight)
	plotH := float64(h - mTop - mBottom)

	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, s := range p.Series {
		for i := range s.X {
			minX = math.Min(minX, s.X[i])
			maxX = math.Max(maxX, s.X[i])
			minY = math.Min(minY, s.Y[i])
			maxY = math.Max(maxY, s.Y[i])
		}
	}
	//lint:allow floateq degenerate-range guard: avoids dividing by a zero span
	if !finite(minX) || !finite(maxX) || minX == maxX {
		maxX = minX + 1
	}
	//lint:allow floateq degenerate-range guard: avoids dividing by a zero span
	if !finite(minY) || !finite(maxY) || minY == maxY {
		maxY = minY + 1
	}

	px := func(x float64) float64 { return float64(mLeft) + (x-minX)/(maxX-minX)*plotW }
	py := func(y float64) float64 { return float64(mTop) + (1-(y-minY)/(maxY-minY))*plotH }

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n", w, h, w, h)
	b.WriteString(`<rect width="100%" height="100%" fill="white"/>` + "\n")
	fmt.Fprintf(&b, `<text x="%d" y="20" font-family="sans-serif" font-size="14" font-weight="bold">%s</text>`+"\n", mLeft, escape(p.Title))

	// Axes and grid (5 ticks each).
	for i := 0; i <= 5; i++ {
		fx := minX + (maxX-minX)*float64(i)/5
		fy := minY + (maxY-minY)*float64(i)/5
		x := px(fx)
		y := py(fy)
		fmt.Fprintf(&b, `<line x1="%.1f" y1="%d" x2="%.1f" y2="%.1f" stroke="#ddd"/>`+"\n", x, mTop, x, float64(mTop)+plotH)
		fmt.Fprintf(&b, `<line x1="%d" y1="%.1f" x2="%.1f" y2="%.1f" stroke="#ddd"/>`+"\n", mLeft, y, float64(mLeft)+plotW, y)
		fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" font-family="sans-serif" font-size="10" text-anchor="middle">%s</text>`+"\n",
			x, float64(mTop)+plotH+14, fmtTick(fx))
		fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" font-family="sans-serif" font-size="10" text-anchor="end">%s</text>`+"\n",
			float64(mLeft)-6, y+3, fmtTick(fy))
	}
	fmt.Fprintf(&b, `<rect x="%d" y="%d" width="%.1f" height="%.1f" fill="none" stroke="#333"/>`+"\n", mLeft, mTop, plotW, plotH)
	fmt.Fprintf(&b, `<text x="%.1f" y="%d" font-family="sans-serif" font-size="12" text-anchor="middle">%s</text>`+"\n",
		float64(mLeft)+plotW/2, h-8, escape(p.XLabel))
	fmt.Fprintf(&b, `<text x="14" y="%.1f" font-family="sans-serif" font-size="12" text-anchor="middle" transform="rotate(-90 14 %.1f)">%s</text>`+"\n",
		float64(mTop)+plotH/2, float64(mTop)+plotH/2, escape(p.YLabel))

	// Curves.
	for i, s := range p.Series {
		color := palette[i%len(palette)]
		var pts []string
		for j := range s.X {
			pts = append(pts, fmt.Sprintf("%.1f,%.1f", px(s.X[j]), py(s.Y[j])))
		}
		fmt.Fprintf(&b, `<polyline points="%s" fill="none" stroke="%s" stroke-width="2"/>`+"\n",
			strings.Join(pts, " "), color)
		// Legend entry.
		ly := mTop + 14 + 16*i
		fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="%s" stroke-width="3"/>`+"\n",
			mLeft+10, ly, mLeft+34, ly, color)
		fmt.Fprintf(&b, `<text x="%d" y="%d" font-family="sans-serif" font-size="11">%s</text>`+"\n",
			mLeft+40, ly+4, escape(s.Label))
	}
	b.WriteString("</svg>\n")
	return b.String()
}

func fmtTick(v float64) string {
	a := math.Abs(v)
	switch {
	case a >= 100 || a == 0:
		return fmt.Sprintf("%.0f", v)
	case a >= 1:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

func escape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")
	return r.Replace(s)
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
