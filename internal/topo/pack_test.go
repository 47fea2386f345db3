package topo

import (
	"fmt"
	"testing"

	"passivespread/internal/rng"
)

// checkPackRows compares View.PackRows over agents [lo, lo+span) of g
// in the given round with the literal per-agent reference, Bind followed
// by RowBits, and checks PackRows writes no row past span.
func checkPackRows(t *testing.T, g *Graph, round, lo, span int, words []uint64) {
	t.Helper()
	v, ref := g.NewView(), g.NewView()
	v.NewRound(round)
	ref.NewRound(round)
	const guard = 0x5a5a5a5a5a5a5a5a
	rows := make([]uint64, span+1)
	rows[span] = guard
	v.PackRows(lo, words, rows[:span])
	for k := 0; k < span; k++ {
		ref.Bind(lo + k)
		want, ok := ref.RowBits(words)
		if !ok {
			t.Fatalf("n=%d deg=%d: RowBits refused a packed row", g.n, g.deg)
		}
		if rows[k] != want {
			t.Fatalf("n=%d deg=%d dyn=%v round %d lo=%d span=%d: agent %d row %#x, want %#x",
				g.n, g.deg, g.dyn != nil, round, lo, span, lo+k, rows[k], want)
		}
	}
	if rows[span] != guard {
		t.Fatalf("n=%d deg=%d lo=%d span=%d: PackRows wrote past its span", g.n, g.deg, lo, span)
	}
}

// TestPackRowsMatchesRowBits: on every packed degree the vector kernel
// serves (4…64) and the ones it leaves to the sweep (1, 2, 3, 6), over
// random-regular, ring and dynamically rewired rows, with populations
// that do and do not fill their last bitset word, every span of 0–64
// agents from lo ∈ {0, 1, 63} packs exactly the rows Bind + RowBits
// give, for random, all-0 and all-1 opinions.
func TestPackRowsMatchesRowBits(t *testing.T) {
	for _, n := range []int{131, 256} {
		fills := map[string][]uint64{
			"zeros":  make([]uint64, (n+63)/64),
			"ones":   make([]uint64, (n+63)/64),
			"random": make([]uint64, (n+63)/64),
		}
		src := rng.NewFrom(7, uint64(n))
		for i := range fills["ones"] {
			fills["ones"][i] = ^uint64(0)
			fills["random"][i] = src.Uint64()
		}
		for _, deg := range []int{1, 2, 3, 4, 6, 8, 12, 16, 32, 64} {
			tps := []Topology{RandomRegular(deg), DynamicRewire(deg, 0.5)}
			if deg%2 == 0 {
				tps = append(tps, Ring(deg/2))
			}
			for _, tp := range tps {
				g, err := tp.Build(n, uint64(deg), 1)
				if err != nil {
					t.Fatal(err)
				}
				for name, words := range fills {
					t.Run(fmt.Sprintf("n=%d/%s/%s", n, tp.Name(), name), func(t *testing.T) {
						for _, lo := range []int{0, 1, 63} {
							for span := 0; span <= 64; span++ {
								checkPackRows(t, g, 3, lo, span, words)
							}
						}
					})
				}
			}
		}
	}
}

// TestPackRowsRejectsUnpackedRows: a degree beyond 64 has no packed row.
func TestPackRowsRejectsUnpackedRows(t *testing.T) {
	g, err := RandomRegular(65).Build(128, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("PackRows packed a degree-65 row")
		}
	}()
	g.NewView().PackRows(0, make([]uint64, 2), make([]uint64, 1))
}

// FuzzPackRows: for any degree in [1, 64], population, span, round,
// opinions and static or rewired rows, PackRows equals the per-agent
// Bind + RowBits reference (the property TestPackRowsMatchesRowBits
// checks on a table).
func FuzzPackRows(f *testing.F) {
	f.Add(uint64(1), uint8(7), uint16(67), uint16(1), uint8(64), uint8(2), false)
	f.Add(uint64(2), uint8(63), uint16(200), uint16(63), uint8(17), uint8(0), true)
	f.Add(uint64(3), uint8(0), uint16(5), uint16(0), uint8(3), uint8(1), false)
	f.Fuzz(func(t *testing.T, seed uint64, deg8 uint8, n16 uint16, lo16 uint16, span8 uint8, round uint8, dyn bool) {
		deg := 1 + int(deg8)%maxGatherDegree
		n := deg + 1 + int(n16)%1024
		lo := int(lo16) % n
		span := min(int(span8)%65, n-lo)
		var tp Topology = RandomRegular(deg)
		if dyn {
			tp = DynamicRewire(deg, 0.3)
		}
		g, err := tp.Build(n, seed, 1)
		if err != nil {
			t.Fatal(err)
		}
		words := make([]uint64, (n+63)/64)
		src := rng.New(seed)
		for i := range words {
			// Mostly random words, with runs of all-0 and all-1 ones.
			switch src.Intn(4) {
			case 0:
			case 1:
				words[i] = ^uint64(0)
			default:
				words[i] = src.Uint64()
			}
		}
		checkPackRows(t, g, int(round), lo, span, words)
	})
}
