package topo

import (
	"fmt"
	"math/bits"
	"reflect"
	"sync"
	"testing"

	"passivespread/internal/rng"
)

func TestParseRoundTrip(t *testing.T) {
	specs := []string{
		"complete", "ring:2", "ring:5", "torus", "random-regular:8",
		"random-regular:3", "small-world:4:0.1", "small-world:2:0.75",
		"dynamic:8:0.1", "dynamic:4:1",
	}
	for _, spec := range specs {
		tp, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		if tp.Name() != spec {
			t.Errorf("Parse(%q).Name() = %q, want round-trip", spec, tp.Name())
		}
		again, err := Parse(tp.Name())
		if err != nil {
			t.Fatalf("Parse(Name()) of %q: %v", spec, err)
		}
		if !reflect.DeepEqual(tp, again) {
			t.Errorf("Parse(Name()) of %q differs: %#v vs %#v", spec, tp, again)
		}
	}
}

func TestParseDefaults(t *testing.T) {
	cases := map[string]string{
		"ring":           "ring:2",
		"random-regular": "random-regular:8",
		"small-world":    "small-world:4:0.1",
		"small-world:6":  "small-world:6:0.1",
		"dynamic":        "dynamic:8:0.1",
		"dynamic:16":     "dynamic:16:0.1",
		" complete ":     "complete",
	}
	for spec, want := range cases {
		tp, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		if tp.Name() != want {
			t.Errorf("Parse(%q).Name() = %q, want %q", spec, tp.Name(), want)
		}
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	bad := []string{
		"", "nope", "ring:", "ring:x", "ring:0", "ring:1:2", "torus:3",
		"complete:1", "random-regular:0", "random-regular:1.5",
		"small-world:4:2", "small-world:0:0.1", "small-world:4:0.1:9",
		"dynamic:8:-0.1", "dynamic:0", "dynamic:8:nan",
	}
	for _, spec := range bad {
		if tp, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted as %q, want error", spec, tp.Name())
		}
	}
}

func TestValidateAgainstPopulation(t *testing.T) {
	cases := []struct {
		tp Topology
		n  int
		ok bool
	}{
		{Complete(), 2, true},
		{Ring(2), 5, true},
		{Ring(2), 4, false}, // 2k > n−1
		{Torus(), 9, true},
		{Torus(), 10, false}, // not a square
		{Torus(), 4, false},  // side < 3
		{RandomRegular(8), 9, true},
		{RandomRegular(8), 8, false}, // k > n−1
		{SmallWorld(4, 0.1), 16, true},
		{SmallWorld(4, 0.1), 8, false},
		{DynamicRewire(8, 0.5), 64, true},
		{DynamicRewire(63, 0.5), 64, true},
		{DynamicRewire(64, 0.5), 64, false},
	}
	for _, c := range cases {
		err := c.tp.Validate(c.n)
		if c.ok && err != nil {
			t.Errorf("%s.Validate(%d): unexpected error %v", c.tp.Name(), c.n, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s.Validate(%d): want error", c.tp.Name(), c.n)
		}
	}
}

func TestRingAndTorusShapes(t *testing.T) {
	g, err := Ring(2).Build(7, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []int32{1, 6, 2, 5}
	if got := g.Base(0); !reflect.DeepEqual(got, want) {
		t.Fatalf("ring row 0 = %v, want %v", got, want)
	}

	g, err = Torus().Build(9, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Agent 4 is the center of the 3×3 grid.
	want = []int32{7, 1, 5, 3}
	if got := g.Base(4); !reflect.DeepEqual(got, want) {
		t.Fatalf("torus row 4 = %v, want %v", got, want)
	}
}

// TestBuildDeterministicAcrossWorkers: the concurrent row construction
// must be byte-identical to the sequential one — per-row SplitMix64
// streams make sharding invisible. This test also puts the concurrent
// construction under the race detector.
func TestBuildDeterministicAcrossWorkers(t *testing.T) {
	tops := []Topology{
		RandomRegular(8), SmallWorld(4, 0.3), Ring(3), DynamicRewire(6, 0.4),
	}
	const n = 1 << 10
	for _, tp := range tops {
		ref, err := tp.Build(n, 42, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 7, 32} {
			g, err := tp.Build(n, 42, workers)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ref.adj, g.adj) {
				t.Fatalf("%s: adjacency differs between 1 and %d build workers", tp.Name(), workers)
			}
		}
	}
}

func TestRowsAreDistinctNonSelf(t *testing.T) {
	tops := []Topology{
		Ring(2), Torus(), RandomRegular(8), SmallWorld(4, 0.5),
	}
	const n = 25 // perfect square for the torus
	for _, tp := range tops {
		g, err := tp.Build(n, 7, 4)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			row := g.Base(i)
			seen := map[int32]bool{}
			for _, v := range row {
				if int(v) == i {
					t.Fatalf("%s: agent %d observes itself", tp.Name(), i)
				}
				if v < 0 || int(v) >= n {
					t.Fatalf("%s: agent %d row holds out-of-range %d", tp.Name(), i, v)
				}
				if seen[v] {
					t.Fatalf("%s: agent %d row holds duplicate %d", tp.Name(), i, v)
				}
				seen[v] = true
			}
		}
	}
}

// TestDynamicRewireDeterministicPerRound: a rewired row depends only on
// (seed, round, agent) — two independent views agree round by round, and
// re-binding reproduces the same row.
func TestDynamicRewireDeterministicPerRound(t *testing.T) {
	g, err := DynamicRewire(6, 0.8).Build(256, 11, 4)
	if err != nil {
		t.Fatal(err)
	}
	v1, v2 := g.NewView(), g.NewView()
	changed := 0
	for round := 0; round < 20; round++ {
		v1.NewRound(round)
		v2.NewRound(round)
		for i := 0; i < 256; i += 17 {
			v1.Bind(i)
			row1 := append([]int32(nil), v1.row...)
			v2.Bind(i)
			if !reflect.DeepEqual(row1, v2.row) {
				t.Fatalf("round %d agent %d: views disagree: %v vs %v", round, i, row1, v2.row)
			}
			if !reflect.DeepEqual(row1, g.Base(i)) {
				changed++
			}
		}
	}
	if changed == 0 {
		t.Fatal("p = 0.8 dynamic rewiring never changed a row in 20 rounds")
	}
}

// TestViewNextUniformOverRow: Next must only return members of the
// bound row.
func TestViewNextUniformOverRow(t *testing.T) {
	g, err := RandomRegular(5).Build(64, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	v := g.NewView()
	v.NewRound(0)
	v.Bind(10)
	members := map[int]bool{}
	for _, idx := range g.Base(10) {
		members[int(idx)] = true
	}
	src := rng.New(99)
	hit := map[int]bool{}
	for i := 0; i < 500; i++ {
		nb := v.Next(src)
		if !members[nb] {
			t.Fatalf("Next returned %d, not a neighbor of agent 10 (%v)", nb, g.Base(10))
		}
		hit[nb] = true
	}
	if len(hit) != 5 {
		t.Fatalf("500 draws over a degree-5 row touched %d distinct neighbors", len(hit))
	}
}

func TestIsCompleteAndDisplayName(t *testing.T) {
	if !IsComplete(nil) || !IsComplete(Complete()) {
		t.Fatal("nil and Complete() must both report complete")
	}
	if IsComplete(Ring(2)) {
		t.Fatal("ring reported complete")
	}
	if DisplayName(nil) != "complete" {
		t.Fatalf("DisplayName(nil) = %q", DisplayName(nil))
	}
	if g, err := Complete().Build(100, 1, 4); err != nil || g != nil {
		t.Fatalf("Complete().Build = (%v, %v), want (nil, nil)", g, err)
	}
}

// TestValidateRejectsOverflowDegrees: adversarially huge k must error,
// never overflow into a Build-time panic (malformed CLI specs crash
// nothing).
func TestValidateRejectsOverflowDegrees(t *testing.T) {
	huge := int(^uint(0)>>1)/2 + 1 // > MaxInt/2: 2k wraps negative
	for _, tp := range []Topology{Ring(huge), SmallWorld(huge, 0.1)} {
		if err := tp.Validate(1 << 20); err == nil {
			t.Errorf("%T accepted k = %d", tp, huge)
		}
		if _, err := tp.Build(1<<10, 1, 1); err == nil {
			t.Errorf("%T built with k = %d", tp, huge)
		}
	}
	if _, err := Parse(fmt.Sprintf("ring:%d", huge)); err == nil {
		t.Error("Parse accepted an overflowing ring degree")
	}
	if _, err := Parse(fmt.Sprintf("small-world:%d:0.1", huge)); err == nil {
		t.Error("Parse accepted an overflowing small-world degree")
	}
}

// TestValidateRejectsOverInt32Populations: the adjacency stores int32
// indices, so a graph topology over a larger population must fail
// Validate instead of wrapping inside Build. With a 32-bit int no
// population exceeds the int32 adjacency, so there is nothing to reject.
func TestValidateRejectsOverInt32Populations(t *testing.T) {
	if bits.UintSize == 32 {
		t.Skip("32-bit int: every population fits the int32 adjacency")
	}
	huge := MaxGraphN
	huge++
	for _, tp := range []Topology{Ring(2), Torus(), RandomRegular(8), SmallWorld(4, 0.1), DynamicRewire(8, 0.1)} {
		if err := tp.Validate(huge); err == nil {
			t.Errorf("%s accepted n = %d", tp.Name(), huge)
		}
	}
	if err := Complete().Validate(huge); err != nil {
		t.Errorf("Complete rejected n = %d: %v (no graph, no bound)", huge, err)
	}
}

// TestRebuildShapeMismatch: Rebuild refills in place and must refuse
// any shape change — population, out-degree, or rewire rule — and any
// topology that has no row representation at all.
func TestRebuildShapeMismatch(t *testing.T) {
	g, err := RandomRegular(8).Build(128, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		tp   Topology
		n    int
	}{
		{"population mismatch", RandomRegular(8), 256},
		{"degree mismatch", RandomRegular(6), 128},
		{"rewire-rule mismatch", DynamicRewire(8, 0.2), 128},
		{"complete cannot rebuild", Complete(), 128},
	} {
		if err := Rebuild(g, tc.tp, tc.n, 2, 2); err == nil {
			t.Errorf("%s: Rebuild accepted", tc.name)
		}
	}
	// A dynamic graph must also refuse a different rewire probability.
	dg, err := DynamicRewire(8, 0.2).Build(128, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := Rebuild(dg, DynamicRewire(8, 0.7), 128, 2, 2); err == nil {
		t.Error("rewire-probability mismatch: Rebuild accepted")
	}
	if err := Rebuild(dg, DynamicRewire(8, 0.2), 128, 2, 2); err != nil {
		t.Errorf("same-shape dynamic Rebuild rejected: %v", err)
	}
}

// TestRebuildMatchesFreshBuild: after a reseed the adjacency, and so
// every packed row read through View.RowBits, must be indistinguishable
// from a graph freshly built at the new seed, and a same-seed Rebuild on
// one worker allocates nothing.
func TestRebuildMatchesFreshBuild(t *testing.T) {
	const n = 512
	words := make([]uint64, (n+63)/64)
	wsrc := rng.NewFrom(99, 0)
	for i := range words {
		words[i] = wsrc.Uint64()
	}
	for _, tp := range []Topology{RandomRegular(8), SmallWorld(4, 0.3), DynamicRewire(6, 0.4), Ring(2)} {
		g, err := tp.Build(n, 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := Rebuild(g, tp, n, 2, 4); err != nil {
			t.Fatalf("%s: Rebuild: %v", tp.Name(), err)
		}
		fresh, err := tp.Build(n, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(g.adj, fresh.adj) {
			t.Fatalf("%s: rebuilt adjacency differs from a fresh build at the same seed", tp.Name())
		}
		vg, vf := g.NewView(), fresh.NewView()
		for a := 0; a < n; a++ {
			vg.Bind(a)
			vf.Bind(a)
			rg, okg := vg.RowBits(words)
			rf, okf := vf.RowBits(words)
			if okg != okf || rg != rf {
				t.Fatalf("%s: agent %d RowBits (%x, %v) after Rebuild, fresh build gives (%x, %v)",
					tp.Name(), a, rg, okg, rf, okf)
			}
		}
		if allocs := testing.AllocsPerRun(5, func() {
			if err := Rebuild(g, tp, n, 2, 1); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Fatalf("%s: same-seed single-worker Rebuild allocated %v times", tp.Name(), allocs)
		}
	}
}

// TestViewValidAcrossRebuild: Views created before a Rebuild stay valid,
// observe the new rows, and support concurrent per-worker reads of them
// (run under -race in CI).
func TestViewValidAcrossRebuild(t *testing.T) {
	const n = 256
	tp := SmallWorld(4, 0.3)
	g, err := tp.Build(n, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	views := make([]*View, 8)
	for i := range views {
		views[i] = g.NewView() // created against the pre-Rebuild rows
	}
	if err := Rebuild(g, tp, n, 6, 4); err != nil {
		t.Fatal(err)
	}
	fresh, err := tp.Build(n, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	words := make([]uint64, (n+63)/64)
	wsrc := rng.NewFrom(123, 0)
	for i := range words {
		words[i] = wsrc.Uint64()
	}
	want := make([]uint64, n)
	vf := fresh.NewView()
	for a := 0; a < n; a++ {
		vf.Bind(a)
		want[a], _ = vf.RowBits(words)
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(views))
	for w, v := range views {
		wg.Add(1)
		go func(w int, v *View) {
			defer wg.Done()
			for a := 0; a < n; a++ {
				v.Bind(a)
				got, ok := v.RowBits(words)
				if !ok || got != want[a] {
					errs <- fmt.Errorf("worker %d agent %d: RowBits %x (ok=%v), want %x", w, a, got, ok, want[a])
					return
				}
			}
		}(w, v)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
