package rng

import (
	"math"
	"testing"
)

// TestFillMatchesSequentialUint64: Fill must produce exactly the values
// (and final generator state) of sequential Uint64 calls — the batched
// hot paths rely on this identity for bit-for-bit reproducibility.
func TestFillMatchesSequentialUint64(t *testing.T) {
	for _, n := range []int{1, 7, 64, 1000} {
		a, b := New(12345), New(12345)
		want := make([]uint64, n)
		for i := range want {
			want[i] = a.Uint64()
		}
		got := make([]uint64, n)
		b.Fill(got)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: Fill[%d] = %x, want %x", n, i, got[i], want[i])
			}
		}
		if a.Uint64() != b.Uint64() {
			t.Fatalf("n=%d: generator states diverge after Fill", n)
		}
	}
}

// TestBatchMatchesSourceDraws: a Batch-run mixed draw sequence must
// return exactly what the same sequence run on a bare Source returns —
// Intn keeps Lemire's rejection, Bernoulli its zero-consumption clamps.
func TestBatchMatchesSourceDraws(t *testing.T) {
	for _, chunk := range []int{1, 3, 16, MaxBatchChunk} {
		direct := New(777)
		var src Source
		src.Reseed(StreamSeed(777, 0))
		direct.Reseed(StreamSeed(777, 0))
		var b Batch
		b.Init(&src, chunk)
		for i := 0; i < 2000; i++ {
			switch i % 5 {
			case 0:
				if got, want := b.Uint64(), direct.Uint64(); got != want {
					t.Fatalf("chunk %d, draw %d: Uint64 %x, want %x", chunk, i, got, want)
				}
			case 1:
				if got, want := b.Float64(), direct.Float64(); got != want {
					t.Fatalf("chunk %d, draw %d: Float64 %v, want %v", chunk, i, got, want)
				}
			case 2:
				// Small bound exercises Lemire's rejection path.
				if got, want := b.Intn(3), direct.Intn(3); got != want {
					t.Fatalf("chunk %d, draw %d: Intn %d, want %d", chunk, i, got, want)
				}
			case 3:
				// A wide bound: 2^40, or the widest int on 32-bit targets.
				bound := min(1<<40, math.MaxInt)
				if got, want := b.Intn(bound), direct.Intn(bound); got != want {
					t.Fatalf("chunk %d, draw %d: Intn %d, want %d", chunk, i, got, want)
				}
			default:
				// p outside (0,1) must consume nothing on either side.
				p := []float64{0.3, 0, 1, 0.9}[i%4]
				if got, want := b.Bernoulli(p), direct.Bernoulli(p); got != want {
					t.Fatalf("chunk %d, draw %d: Bernoulli %v, want %v", chunk, i, got, want)
				}
			}
		}
	}
}

// TestBatchResetDiscardsBufferedValues: after a reseed + Reset, the
// batch must serve the new stream from its start.
func TestBatchResetDiscardsBufferedValues(t *testing.T) {
	var src Source
	src.Reseed(1)
	var b Batch
	b.Init(&src, 16)
	_ = b.Uint64() // buffers 16, consumes 1

	src.Reseed(2)
	b.Reset()
	want := New(2).Uint64()
	if got := b.Uint64(); got != want {
		t.Fatalf("after Reset: %x, want the reseeded stream's first output %x", got, want)
	}
}

// TestBinomialCDFResetReuses: Reset must retabulate in place without
// reallocating when capacity allows, and produce tables identical to a
// fresh build.
func TestBinomialCDFResetReuses(t *testing.T) {
	b := NewBinomialCDF(40, 0.3)
	avg := testing.AllocsPerRun(100, func() { b.Reset(40, 0.61) })
	if avg != 0 {
		t.Fatalf("same-size Reset allocates %v times, want 0", avg)
	}
	fresh := NewBinomialCDF(40, 0.61)
	for k := 0; k <= 40; k++ {
		if got, want := b.CDF(k), fresh.CDF(k); got != want {
			t.Fatalf("CDF(%d) = %v after Reset, want %v", k, got, want)
		}
	}
	// Shrinking reuses too; growing reallocates but stays correct.
	b.Reset(10, 0.5)
	if b.N() != 10 {
		t.Fatalf("N = %d after shrink, want 10", b.N())
	}
	b.Reset(80, 0.9)
	fresh = NewBinomialCDF(80, 0.9)
	for k := 0; k <= 80; k++ {
		if got, want := b.CDF(k), fresh.CDF(k); got != want {
			t.Fatalf("CDF(%d) = %v after grow, want %v", k, got, want)
		}
	}
}

// TestSampleUMatchesSample: SampleU(u) is Sample with the uniform
// supplied — the pair must agree draw for draw.
func TestSampleUMatchesSample(t *testing.T) {
	b := NewBinomialCDF(20, 0.42)
	s1, s2 := New(5), New(5)
	for i := 0; i < 1000; i++ {
		if got, want := b.SampleU(s1.Float64()), b.Sample(s2); got != want {
			t.Fatalf("draw %d: SampleU %d, Sample %d", i, got, want)
		}
	}
}
