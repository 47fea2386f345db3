package rng

import (
	"fmt"
	"math"
	"math/bits"
	"testing"
)

// trendCase fills two identical stream blocks of n streams from seed,
// with stored counts in [0, m] (the first two pinned at 0 and m, the
// kernels' edge cases), one copy per kernel under comparison.
func trendCase(seed uint64, n, m int) (a, b *Streams, pa, pb []uint16) {
	root := New(seed)
	a, b = new(Streams), new(Streams)
	a.Resize(n)
	b.Resize(n)
	pa, pb = make([]uint16, n), make([]uint16, n)
	for i := 0; i < n; i++ {
		s := New(root.Uint64())
		a.Store(i, s)
		b.Store(i, s)
		p := uint16(root.Intn(m + 1))
		switch i {
		case 0:
			p = 0
		case 1:
			p = uint16(m)
		}
		pa[i], pb[i] = p, p
	}
	// Pin the counts at 0 and m inside the span too, wherever it starts.
	for i := 2; i < n; i += 7 {
		pa[i], pb[i] = 0, 0
		if i+3 < n {
			pa[i+3], pb[i+3] = uint16(m), uint16(m)
		}
	}
	return a, b, pa, pb
}

// checkTrend fails unless both blocks and count vectors agree entirely
// — inside the kernel's span and, untouched, outside it.
func checkTrend(t *testing.T, tag string, a, b *Streams, pa, pb []uint16) {
	t.Helper()
	for i := range pa {
		var sa, sb Source
		a.Load(i, &sa)
		b.Load(i, &sb)
		if sa != sb {
			t.Fatalf("%s: stream %d: final state %+v, reference %+v", tag, i, sa, sb)
		}
		if pa[i] != pb[i] {
			t.Fatalf("%s: stream %d: stored count %d, reference %d", tag, i, pa[i], pb[i])
		}
	}
}

// overshootFraction returns a success probability at which the
// accumulated CDF of Binomial(m, x) overshoots 1 before its forced last
// entry, so the threshold table has t[m−1] > t[m] = 2^53.
func overshootFraction(m int) (float64, bool) {
	var thr BinomialThresholds
	for i := 1; i < 1<<14; i++ {
		x := float64(i) / (1 << 14)
		thr.Reset(m, x)
		if t := thr.Thresholds(); t[m-1] > t[m] {
			return x, true
		}
	}
	return 0, false
}

// trendFractions is the success-probability grid the kernel tests
// tabulate at: both tails, the middle, and (where one exists) a table
// with t[m−1] > t[m].
func trendFractions(t *testing.T, m int) []float64 {
	xs := []float64{1e-3, 0.2, 0.5, 0.8, 0.999}
	if x, ok := overshootFraction(m); ok {
		xs = append(xs, x)
	} else if m == 36 || m == 64 {
		t.Fatalf("m = %d: no fraction overshoots the CDF; the test lost its edge case", m)
	}
	return xs
}

// TestTrendWordVectorMatchesGeneric compares the AVX2 trend kernel with
// the portable one directly: d ∈ {1, 2}, sample sizes from 1 to 1000,
// tables from both tails and one whose CDF overshoots before its last
// entry, stored counts at 0 and m, 0…16 whole 4-stream groups plus
// tails of 0…3 streams, at word offsets 0, 1, 2 and 7.
func TestTrendWordVectorMatchesGeneric(t *testing.T) {
	if !useAVX2 {
		t.Log("no AVX2 on this CPU: the vector trend kernel is not reachable here")
		t.Skip("AVX2 absent")
	}
	seed := uint64(0)
	var thr BinomialThresholds
	for _, d := range []int{1, 2} {
		for _, m := range []int{1, 2, 36, 64, 1000} {
			for _, x := range trendFractions(t, m) {
				thr.Reset(m, x)
				for _, lo := range []int{0, 1, 2, 7} {
					for groups := 0; groups <= 16; groups++ {
						for tail := 0; tail <= 3 && 4*groups+tail <= 64; tail++ {
							seed++
							hi := lo + 4*groups + tail
							a, b, pa, pb := trendCase(seed, hi+3, m)
							tag := fmt.Sprintf("d=%d m=%d x=%v [%d,%d)", d, m, x, lo, hi)
							upA, downA := a.trendWordVec(d, &thr, pa, lo, hi)
							upB, downB := b.TrendWordGeneric(d, &thr, pb, lo, hi)
							if upA != upB || downA != downB {
								t.Fatalf("%s: masks up %#x down %#x, reference up %#x down %#x", tag, upA, downA, upB, downB)
							}
							checkTrend(t, tag, a, b, pa, pb)
						}
					}
				}
			}
		}
	}
}

// TestTrendWordGenericMatchesSource pins the portable kernel to the
// per-draw reference it replaced: for each stream, d Source.Uint64
// draws, the compared one's count SampleRaw against the stored count
// for the verdict, and the stored one's SampleRaw as the new count.
func TestTrendWordGenericMatchesSource(t *testing.T) {
	var thr BinomialThresholds
	for _, d := range []int{1, 2} {
		for _, m := range []int{1, 5, 36} {
			for _, x := range []float64{0.05, 0.5, 0.93} {
				thr.Reset(m, x)
				const n = 70
				a, _, pa, _ := trendCase(uint64(100*d+m), n, m)
				var want [n]Source
				wantPrev := append([]uint16(nil), pa...)
				var wantUp, wantDown uint64
				for i := 3; i < 67; i++ {
					s := &want[i]
					a.Load(i, s)
					c := thr.SampleRaw(s.Uint64())
					stored := c
					if d == 2 {
						stored = thr.SampleRaw(s.Uint64())
					}
					p := int(wantPrev[i])
					wantUp |= pick(c > p, 1<<uint(i-3))
					wantDown |= pick(c < p, 1<<uint(i-3))
					wantPrev[i] = uint16(stored)
				}
				up, down := a.TrendWordGeneric(d, &thr, pa, 3, 67)
				if up != wantUp || down != wantDown {
					t.Fatalf("d=%d m=%d x=%v: masks %#x/%#x, reference %#x/%#x", d, m, x, up, down, wantUp, wantDown)
				}
				for i := 3; i < 67; i++ {
					var got Source
					a.Load(i, &got)
					if got != want[i] || pa[i] != wantPrev[i] {
						t.Fatalf("d=%d m=%d x=%v stream %d: state or stored count diverged", d, m, x, i)
					}
				}
			}
		}
	}
}

// TestStreamsMatchSources: a block stream stored, advanced and round-
// tripped through Load/Store is the Source with the same history.
func TestStreamsMatchSources(t *testing.T) {
	var blk Streams
	blk.Resize(9)
	for i := 0; i < 9; i++ {
		blk.Store(i, New(uint64(i)*77))
	}
	blk.Advance(2, 7, 13)
	for i := 0; i < 9; i++ {
		want := New(uint64(i) * 77)
		if i >= 2 && i < 7 {
			want.Advance(13)
		}
		var got Source
		blk.Load(i, &got)
		if got != *want {
			t.Fatalf("stream %d: %+v, want %+v", i, got, *want)
		}
		got.Uint64()
		blk.Store(i, &got)
		var back Source
		blk.Load(i, &back)
		if back != got {
			t.Fatalf("stream %d: Store/Load round trip lost the state", i)
		}
	}
}

// TestTrendVerdictMatchesInversion: the trend kernel's two-compare
// verdict on the compared draw equals the sign of SampleRaw(raw) − p —
// for every stored count p ∈ [0, m], at raws on both sides of every
// threshold and at random raws, including a table whose accumulated CDF
// overshoots 1 before its last entry.
func TestTrendVerdictMatchesInversion(t *testing.T) {
	src := New(41)
	for _, m := range []int{1, 2, 36, 64} {
		for _, x := range trendFractions(t, m) {
			thr := NewBinomialThresholds(m, x)
			tab := thr.Thresholds()
			var raws []uint64
			for _, tk := range tab {
				raws = append(raws, (tk-1)<<11, tk<<11)
			}
			for i := 0; i < 256; i++ {
				raws = append(raws, src.Uint64())
			}
			for p := 0; p <= m; p++ {
				for _, raw := range raws {
					c := thr.SampleRaw(raw)
					up, down := trendVerdict(tab, raw>>11, p)
					if up != (c > p) || down != (c < p) {
						t.Fatalf("m=%d x=%v p=%d raw=%#x: verdict (up %v, down %v), SampleRaw = %d",
							m, x, p, raw, up, down, c)
					}
				}
			}
		}
	}
}

// FuzzTrendKernel: for any seed, sample size, success probability and
// stored-count vector, the AVX2 trend kernel equals the portable one on
// every output — both masks, every stored count and every final state.
func FuzzTrendKernel(f *testing.F) {
	f.Add(uint64(1), uint16(12), 0.5, []byte{0, 0, 12, 0, 3, 0, 7, 0, 1, 0})
	f.Add(uint64(2), uint16(0), 0.999, []byte{1, 0, 0, 0, 1, 0, 0, 0, 1})
	f.Add(uint64(3), uint16(35), 0.0, make([]byte, 128))
	f.Add(uint64(4), uint16(999), 1.0, []byte{0xff, 0xff, 0xe7, 0x03, 0, 0})
	f.Fuzz(func(t *testing.T, seed uint64, m16 uint16, x float64, raw []byte) {
		if !useAVX2 {
			t.Skip("AVX2 absent: the vector trend kernel is not reachable here")
		}
		m := 1 + int(m16)%2000
		switch {
		case math.IsNaN(x) || math.IsInf(x, 0):
			x = 0.5
		default:
			x = math.Abs(x - math.Trunc(x)) // into [0, 1)
		}
		var thr BinomialThresholds
		thr.Reset(m, x)
		lo := int(seed % 5)
		n := min(len(raw)/2, 64)
		a, b, pa, pb := trendCase(seed, lo+n+2, m)
		for i := 0; i < n; i++ {
			p := uint16(int(raw[2*i])|int(raw[2*i+1])<<8) % uint16(m+1)
			pa[lo+i], pb[lo+i] = p, p
		}
		for _, d := range []int{1, 2} {
			upA, downA := a.trendWordVec(d, &thr, pa, lo, lo+n)
			upB, downB := b.TrendWordGeneric(d, &thr, pb, lo, lo+n)
			if upA != upB || downA != downB {
				t.Fatalf("d=%d m=%d x=%v n=%d: masks up %#x down %#x, reference up %#x down %#x", d, m, x, n, upA, downA, upB, downB)
			}
			checkTrend(t, fmt.Sprintf("d=%d m=%d x=%v", d, m, x), a, b, pa, pb)
		}
	})
}

// checkSeed runs Streams.Seed and its portable kernel, seedGeneric, over
// [lo, hi) of an n-stream block and compares each with the per-stream
// reference — Reseed(StreamSeed(root, j+1)) and, when bound > 0, one
// Intn(bound) — on every stream state and stored count. Every block
// starts from the same junk, so streams and counts outside the span, and
// every count when bound = 0, must come through untouched.
func checkSeed(t *testing.T, root uint64, lo, hi, bound, n int) {
	t.Helper()
	var got, gen, want Streams
	got.Resize(n)
	gen.Resize(n)
	want.Resize(n)
	pg, pe, pw := make([]uint16, n), make([]uint16, n), make([]uint16, n)
	junk := New(root ^ 0x5eed)
	for i := 0; i < n; i++ {
		s := New(junk.Uint64())
		got.Store(i, s)
		gen.Store(i, s)
		want.Store(i, s)
		pg[i], pe[i], pw[i] = 0xbeef, 0xbeef, 0xbeef
	}
	got.Seed(root, lo, hi, bound, pg)
	gen.seedGeneric(root, lo, hi, bound, pe)
	for j := lo; j < hi; j++ {
		src := New(StreamSeed(root, uint64(j)+1))
		if bound > 0 {
			pw[j] = uint16(src.Intn(bound))
		}
		want.Store(j, src)
	}
	tag := fmt.Sprintf("root=%#x [%d, %d) bound=%d", root, lo, hi, bound)
	checkTrend(t, tag, &got, &want, pg, pw)
	checkTrend(t, tag+" seedGeneric", &gen, &want, pe, pw)
}

// TestStreamsSeedMatchesSources: the fused seeding kernel equals the
// per-stream Reseed(StreamSeed(root, j+1)) + Intn(bound) loop over
// ragged spans — starting at stream 0, 1 and 63, of 0, 1, 5 and 4096
// streams — for bounds with no draw, a one-value draw, powers of two
// (which never reject) and odd bounds.
func TestStreamsSeedMatchesSources(t *testing.T) {
	for _, root := range []uint64{0, 1, 0x9e3779b97f4a7c15, math.MaxUint64} {
		for _, lo := range []int{0, 1, 63} {
			for _, span := range []int{0, 1, 5, 4096} {
				for _, bound := range []int{0, 1, 2, 37, 1 << 16} {
					checkSeed(t, root, lo, lo+span, bound, lo+span+3)
				}
			}
		}
	}
}

// TestLemireRedrawsLowProduct forces the rejection path Source.Intn and
// Streams.Seed share: a first output of 0 makes the product's low word 0,
// inside the rejection zone of every bound that is not a power of two,
// so lemire must draw again — exactly the outputs a literal Lemire loop
// draws, and return that loop's value.
func TestLemireRedrawsLowProduct(t *testing.T) {
	for _, bound := range []uint64{3, 37, 1<<16 - 1, 1<<16 + 1, 1<<63 + 1} {
		threshold := -bound % bound
		if threshold == 0 {
			t.Fatalf("bound %d has no rejection zone", bound)
		}
		src := New(bound)
		ref := *src
		got := src.lemire(0, bound)
		var want uint64
		for {
			hi, lo := bits.Mul64(ref.Uint64(), bound)
			if lo >= threshold {
				want = hi
				break
			}
		}
		if got != want {
			t.Fatalf("bound %d: redrawn value %d, want %d", bound, got, want)
		}
		if *src != ref {
			t.Fatalf("bound %d: final state %+v, reference %+v", bound, *src, ref)
		}
		if *src == *New(bound) {
			t.Fatalf("bound %d: the forced low product drew nothing", bound)
		}
	}
}

// splitMixMix is SplitMix64's output mixer: SplitMix64 returns
// splitMixMix(state) after adding its increment to state.
func splitMixMix(z uint64) uint64 {
	st := z - 0x9e3779b97f4a7c15
	return SplitMix64(&st)
}

// splitMixMixInv inverts splitMixMix: each xorshift and each multiply by
// an odd constant is a bijection of the 64-bit words.
func splitMixMixInv(z uint64) uint64 {
	unshift := func(y uint64, k uint) uint64 {
		x := y
		for i := uint(0); i < 64; i += k {
			x = y ^ x>>k
		}
		return x
	}
	inv := func(c uint64) uint64 { // Newton's iteration for c⁻¹ mod 2^64
		x := c
		for range 6 {
			x *= 2 - c*x
		}
		return x
	}
	z = unshift(z, 31) * inv(0x94d049bb133111eb)
	z = unshift(z, 27) * inv(0xbf58476d1ce4e5b9)
	return unshift(z, 30)
}

// rejectingRoot returns a root whose stream j starts with s1 = 0, so its
// first output is 0 and the Lemire product's low word is 0: inside the
// rejection zone of every bound that is not a power of two.
func rejectingRoot(j int) uint64 {
	var gamma uint64 = 0x9e3779b97f4a7c15
	// s1 = mix(seed + 2γ) = 0 needs seed = −2γ (mix(0) = 0), and seed =
	// mix(((root + γ) ^ streamMul·(j+2)) + γ).
	seed := -(2 * gamma)
	return ((splitMixMixInv(seed) - gamma) ^ streamMul*(uint64(j)+2)) - gamma
}

// TestStreamsSeedVectorRejection drives the vector kernel's rejection
// exit: a stream whose first draw lies in Lemire's rejection zone, at
// each lane of a full group after a group the kernel seeds, at the first
// stream and in the tail, for spans starting at 0 and 1. Seed must equal
// the per-stream reference, and on AVX2 hosts the kernel must stop
// exactly before the rejecting stream's group. It also checks the
// premise of the kernel's missing all-zero guard: SplitMix64's mixer is
// a bijection.
func TestStreamsSeedVectorRejection(t *testing.T) {
	src := New(7)
	for i := 0; i < 1000; i++ {
		x := src.Uint64()
		if y := splitMixMixInv(splitMixMix(x)); y != x {
			t.Fatalf("mixInv(mix(%#x)) = %#x", x, y)
		}
	}
	for _, lo := range []int{0, 1} {
		for _, off := range []int{0, 4, 5, 6, 7, 9} {
			j := lo + off
			root := rejectingRoot(j)
			if s := New(StreamSeed(root, uint64(j)+1)); s.s1 != 0 || s.Uint64() != 0 {
				t.Fatalf("stream %d of root %#x does not start with s1 = 0", j, root)
			}
			for _, bound := range []int{37, 1<<16 - 1} {
				checkSeed(t, root, lo, lo+10, bound, lo+13)
			}
			if !useAVX2 || off >= 8 {
				continue
			}
			var s Streams
			s.Resize(8)
			prev := make([]uint16, 8)
			h := root
			_ = SplitMix64(&h)
			if done := seedGroups(&s.s0[0], &s.s1[0], &s.s2[0], &s.s3[0], &prev[0], 8, h, streamMul*(uint64(lo)+2), 37); done != off&^3 {
				t.Fatalf("lo=%d: kernel seeded %d streams before the rejecting stream %d, want %d", lo, done, j, off&^3)
			}
		}
	}
}

// FuzzSeedStreams: for any root, span and bound, Streams.Seed equals the
// per-stream reference loop (the property TestStreamsSeedMatchesSources
// checks on a table).
func FuzzSeedStreams(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint16(64), uint32(37))
	f.Add(uint64(0), uint8(63), uint16(5), uint32(0))
	f.Add(uint64(math.MaxUint64), uint8(1), uint16(1), uint32(1<<16))
	f.Fuzz(func(t *testing.T, root uint64, lo8 uint8, span16 uint16, bound32 uint32) {
		lo, span := int(lo8), int(span16)%1024
		checkSeed(t, root, lo, lo+span, int(bound32%(1<<16+1)), lo+span+2)
	})
}

// checkCountRows runs CountRows' dispatched kernel and its portable one
// over [lo, lo+span) of a block of streams with junk on both sides,
// and compares each with the per-stream reference: CountPackedBlocks
// on every stream of the span. Every stream outside the span must come
// through untouched.
func checkCountRows(t *testing.T, seed uint64, lo, span int, shift uint, m, d int) {
	t.Helper()
	n := lo + span + 3
	root := New(seed)
	var want Streams
	want.Resize(n)
	rows := make([]uint64, span)
	for i := 0; i < n; i++ {
		want.Store(i, New(root.Uint64()))
	}
	for k := range rows {
		rows[k] = root.Uint64()
	}
	for _, kernel := range []string{"dispatch", "generic"} {
		var got Streams
		got.Resize(n)
		copy(got.s0, want.s0)
		copy(got.s1, want.s1)
		copy(got.s2, want.s2)
		copy(got.s3, want.s3)
		counts := make([][64]int32, d)
		if kernel == "dispatch" {
			got.CountRows(lo, lo+span, rows, shift, m, counts)
		} else {
			got.countRowsGeneric(lo, 0, lo+span, rows, shift, m, counts)
		}
		tag := fmt.Sprintf("%s lo=%d span=%d shift=%d m=%d d=%d", kernel, lo, span, shift, m, d)
		for i := 0; i < n; i++ {
			var g, w Source
			got.Load(i, &g)
			want.Load(i, &w)
			k := i - lo
			inSpan := k >= 0 && k < span
			c := make([]int32, d)
			if inSpan {
				w.CountPackedBlocks(rows[k], shift, m, c)
			}
			if g != w {
				t.Fatalf("%s: stream %d (in span %v): final state %+v, reference %+v", tag, i, inSpan, g, w)
			}
			if !inSpan {
				continue
			}
			for b := range counts {
				if counts[b][k] != c[b] {
					t.Fatalf("%s: stream %d block %d: count %d, want %d", tag, i, b, counts[b][k], c[b])
				}
			}
		}
	}
}

// TestCountRowsMatchesCountPackedBlocks: Streams.CountRows, dispatched
// (the AVX2 kernel where the CPU has it) and portable, equals
// CountPackedBlocks stream by stream — counts and final states — for
// spans of 0–64 streams starting at lo ∈ {0, 1, 7}, so every split into
// whole 8-stream chunks and a 0–7-stream tail runs, at every packed
// degree 2…64, m ∈ {1, 36, 1000} and d ∈ {1, 2}; the streams around the
// span stay untouched.
func TestCountRowsMatchesCountPackedBlocks(t *testing.T) {
	pick := New(77)
	for _, lo := range []int{0, 1, 7} {
		for span := 0; span <= 64; span++ {
			for shift := uint(58); shift <= 63; shift++ {
				for _, m := range []int{1, 36, 1000} {
					for d := 1; d <= maxRowBlocks; d++ {
						checkCountRows(t, pick.Uint64(), lo, span, shift, m, d)
					}
				}
			}
		}
	}
}

// TestCountRowsRejectsBadShape: a span over 64 streams or more than
// maxRowBlocks blocks panics instead of running.
func TestCountRowsRejectsBadShape(t *testing.T) {
	var s Streams
	s.Resize(80)
	rows := make([]uint64, 80)
	for _, tc := range []struct {
		name   string
		hi     int
		blocks int
	}{{"65 streams", 65, 1}, {"3 blocks", 64, maxRowBlocks + 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: CountRows did not panic", tc.name)
				}
			}()
			s.CountRows(0, tc.hi, rows, 61, 4, make([][64]int32, tc.blocks))
		}()
	}
}

// FuzzCountRows: for any seed, span, degree, sample size and block
// count, CountRows (dispatched and portable) equals the per-stream
// CountPackedBlocks reference on every count and final state, and
// leaves the streams around the span alone.
func FuzzCountRows(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(64), uint8(3), uint16(36), false)
	f.Add(uint64(2), uint8(1), uint8(63), uint8(6), uint16(1), true)
	f.Add(uint64(3), uint8(7), uint8(9), uint8(1), uint16(1000), true)
	f.Add(uint64(4), uint8(3), uint8(0), uint8(2), uint16(0), false)
	f.Fuzz(func(t *testing.T, seed uint64, lo8, span8 uint8, logDeg uint8, m16 uint16, two bool) {
		d := 1
		if two {
			d = 2
		}
		shift := 64 - uint(logDeg%7) // degree 1…64
		checkCountRows(t, seed, int(lo8%8), int(span8)%65, shift, int(m16)%1201, d)
	})
}

// BenchmarkStreamsSeed seeds n = 4096 streams per op through the vector
// kernel and the portable seedGeneric, with no draw (bound 0) and with
// the trend executor's uniform-memory draw (bound 37, m = 36), and
// reports ns per stream.
func BenchmarkStreamsSeed(b *testing.B) {
	const n = 4096
	for _, kernel := range []string{"vector", "portable"} {
		for _, bound := range []int{0, 37} {
			b.Run(fmt.Sprintf("%s/bound=%d", kernel, bound), func(b *testing.B) {
				if kernel == "vector" && !VectorKernels() {
					b.Skip("AVX2 absent: Seed runs the portable kernel")
				}
				var s Streams
				s.Resize(n)
				prev := make([]uint16, n)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if kernel == "vector" {
						s.Seed(uint64(i), 0, n, bound, prev)
					} else {
						s.seedGeneric(uint64(i), 0, n, bound, prev)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/stream")
			})
		}
	}
}
