package experiment

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"

	"passivespread/internal/core"
	"passivespread/internal/domain"
	"passivespread/internal/markov"
	"passivespread/internal/stats"
	"passivespread/internal/tablefmt"
)

func runE02(cfg Config) (*Report, error) {
	rep := NewReport(All(), "E02")

	n := 1 << 20
	p := domain.NewParams(n)
	rep.AddNote("parameters: n = %d, δ = %v, 1/ln n = %.4f, λ_n = %.4f",
		n, p.Delta, 1/p.LogN(), p.Lambda())

	rep.AddText("Figure 1a (G = glyph legend: G/g Green, P/p Purple, R/r Red, C/c Cyan, Y Yellow; upper case = 1-side)",
		p.RenderMap(Pick(cfg, 64, 32)))

	m := Pick(cfg, 600, 200)
	counts := p.CountCells(m)
	total := (m + 1) * (m + 1)
	tab := tablefmt.New("domain", "cells", "share")
	for _, k := range domain.Kinds() {
		if counts[k] == 0 && k == domain.KindOther {
			continue
		}
		tab.AddRow(k.String(), counts[k], float64(counts[k])/float64(total))
	}
	rep.AddTable(fmt.Sprintf("cell census on a %d×%d lattice", m+1, m+1), tab)
	if counts[domain.KindOther] != 0 {
		rep.AddNote("WARNING: %d cells unclassified — partition hole", counts[domain.KindOther])
	} else {
		rep.AddNote("partition covers the grid: no unclassified cells (paper: 'We partition G into domains')")
	}
	return rep, nil
}

// domainPoints scans an m×m lattice and returns up to k points of the
// given kind, spread evenly across the domain's cells.
func domainPoints(p domain.Params, kind domain.Kind, m, k int) [][2]float64 {
	var cells [][2]float64
	for i := 0; i <= m; i++ {
		for j := 0; j <= m; j++ {
			x := float64(i) / float64(m)
			y := float64(j) / float64(m)
			if p.Classify(x, y) == kind {
				cells = append(cells, [2]float64{x, y})
			}
		}
	}
	if len(cells) <= k {
		return cells
	}
	out := make([][2]float64, 0, k)
	for i := 0; i < k; i++ {
		out = append(out, cells[i*len(cells)/k])
	}
	return out
}

// transitionStats aggregates chain excursions out of one domain.
type transitionStats struct {
	residences []float64
	exits      map[string]int
}

func runE03(cfg Config) (*Report, error) {
	rep := NewReport(All(), "E03")

	n := Pick(cfg, 1<<16, 1<<12)
	ell := core.SampleSize(n, core.DefaultC)
	p := domain.NewParams(n)
	trialsPerPoint := Pick(cfg, 40, 8)
	pointsPerKind := Pick(cfg, 5, 3)
	maxRounds := 4000

	kinds := []domain.Kind{
		domain.KindGreen1, domain.KindGreen0,
		domain.KindPurple1, domain.KindPurple0,
		domain.KindRed1, domain.KindRed0,
		domain.KindCyan1, domain.KindCyan0,
		domain.KindYellow,
	}

	tab := tablefmt.New("from", "points", "trials", "res. median", "res. max", "exits to")
	for _, kind := range kinds {
		points := domainPoints(p, kind, 400, pointsPerKind)
		if len(points) == 0 {
			tab.AddRow(kind.String(), 0, 0, "-", "-", "domain empty at these parameters")
			continue
		}
		st := transitionStats{exits: map[string]int{}}
		for pi, pt := range points {
			for trial := 0; trial < trialsPerPoint; trial++ {
				c := markov.New(n, ell, cfg.Seed^uint64(kind)<<40^uint64(pi)<<20^uint64(trial))
				s := c.StateAt(pt[0], pt[1])
				residence := 0
				dest := "timeout"
				for r := 0; r < maxRounds; r++ {
					if c.Absorbed(s) {
						dest = "(1,1) absorbed"
						break
					}
					x0, x1 := c.X(s)
					if k := p.Classify(x0, x1); k != kind {
						dest = k.String()
						break
					}
					residence++
					s = c.Step(s)
				}
				st.residences = append(st.residences, float64(residence))
				st.exits[dest]++
			}
		}
		sum := stats.Summarize(st.residences)
		tab.AddRow(kind.String(), len(points), len(st.residences),
			sum.Median, sum.Max, formatExits(st.exits))
	}
	rep.AddTable(fmt.Sprintf("chain excursions (n = %d, ℓ = %d, source opinion 1)", n, ell), tab)
	rep.AddNote("Figure 1b predictions: Green1 → consensus on 1; Green0 → Cyan1 (via all-zeros); " +
		"Purple → Green in 1 round; Red exits within log^{1/2+2δ}n rounds avoiding Yellow∪Red; " +
		"Cyan1 → Green1∪Purple1 within log n/log log n; Yellow exits within O(log^{5/2}n)")
	return rep, nil
}

// formatExits renders an exit histogram as "dest 97%, other 3%": most
// frequent first, ties by name.
func formatExits(exits map[string]int) string {
	dests := slices.Sorted(maps.Keys(exits))
	total := 0
	for _, d := range dests {
		total += exits[d]
	}
	slices.SortStableFunc(dests, func(a, b string) int { return exits[b] - exits[a] })
	parts := make([]string, len(dests))
	for i, d := range dests {
		parts[i] = fmt.Sprintf("%s %.0f%%", d, 100*float64(exits[d])/float64(total))
	}
	return strings.Join(parts, ", ")
}

func runE04(cfg Config) (*Report, error) {
	rep := NewReport(All(), "E04")

	n := Pick(cfg, 1<<16, 1<<12)
	ell := core.SampleSize(n, core.DefaultC)
	p := domain.NewParams(n)

	rep.AddText("Figure 2 (Yellow′ box; glyphs A/B/C, upper case = 1-side)",
		p.RenderYellowMap(Pick(cfg, 48, 24)))

	m := Pick(cfg, 400, 150)
	counts := p.CountYellowCells(m)
	total := (m + 1) * (m + 1)
	censusTab := tablefmt.New("area", "cells", "share")
	for _, a := range domain.Areas() {
		if a == domain.AreaOutside {
			continue
		}
		censusTab.AddRow(a.String(), counts[a], float64(counts[a])/float64(total))
	}
	rep.AddTable("Yellow′ cell census", censusTab)

	// Escape behavior per starting area.
	trials := Pick(cfg, 120, 20)
	maxRounds := 20000
	starts := []struct {
		name string
		x, y float64
	}{
		{"center", 0.5, 0.5},
		{"A1", 0.5, 0.5 + 2*p.Delta},
		{"B1", 0.5 + 3*p.Delta, 0.5 + 3.2*p.Delta},
		{"C1", 0.5 - 2*p.Delta, 0.5 - p.Delta},
	}
	escTab := tablefmt.New("start", "area", "trials", "escape median", "escape p95", "escape max")
	for si, st := range starts {
		area := p.ClassifyYellow(st.x, st.y)
		times := parallelTimes(cfg, trials, func(trial int) float64 {
			c := markov.New(n, ell, cfg.Seed^uint64(si)<<36^uint64(trial))
			s := c.StateAt(st.x, st.y)
			for r := 0; r < maxRounds; r++ {
				s = c.Step(s)
				x0, x1 := c.X(s)
				if !p.YellowPrimeContains(x0, x1) {
					return float64(r + 1)
				}
			}
			return float64(maxRounds)
		})
		sum := stats.Summarize(times)
		escTab.AddRow(st.name, area.String(), trials, sum.Median, sum.P95, sum.Max)
	}
	rep.AddTable(fmt.Sprintf("rounds to escape Yellow′ (n = %d, ℓ = %d)", n, ell), escTab)
	lnn := math.Log(float64(n))
	rep.AddNote("paper bound (Lemma 6): O(log^{5/2} n) ≈ O(%.0f) at this n; escapes are far faster in practice", math.Pow(lnn, 2.5))
	return rep, nil
}
