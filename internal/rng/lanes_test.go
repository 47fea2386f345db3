package rng

import (
	"testing"
	"unsafe"
)

// laneCase builds lanes independent sources with random rows and two
// copies of them, one per kernel under comparison.
func laneCase(seed uint64, lanes, blocks int) (a, b []*Source, rows []uint64, ca, cb [][]int32) {
	root := New(seed)
	for k := 0; k < lanes; k++ {
		s := New(root.Uint64())
		t := *s
		a, b = append(a, s), append(b, &t)
		rows = append(rows, root.Uint64())
		ca, cb = append(ca, make([]int32, blocks)), append(cb, make([]int32, blocks))
	}
	return a, b, rows, ca, cb
}

// checkLanes fails unless both lane sets hold the same counts and the
// same final states.
func checkLanes(t *testing.T, tag string, a, b []*Source, ca, cb [][]int32) {
	t.Helper()
	for k := range a {
		for blk := range ca[k] {
			if ca[k][blk] != cb[k][blk] {
				t.Fatalf("%s: lane %d block %d: count %d, reference %d", tag, k, blk, ca[k][blk], cb[k][blk])
			}
		}
		if *a[k] != *b[k] {
			t.Fatalf("%s: lane %d: final state %+v, reference %+v", tag, k, *a[k], *b[k])
		}
	}
}

// TestCountPackedLanesVectorMatchesGeneric compares the AVX2 kernel
// with the portable one directly: every packed-row shift, sample sizes
// around the 4-way unroll and the real ℓ, 1…8 blocks, and every queue
// length from a 1-lane tail to the full MaxLanes.
func TestCountPackedLanesVectorMatchesGeneric(t *testing.T) {
	if !useAVX2 {
		t.Log("no AVX2 on this CPU: the vector lane kernel is not reachable here")
		t.Skip("AVX2 absent")
	}
	seed := uint64(0)
	for shift := uint(58); shift <= 64; shift++ {
		for _, m := range []int{1, 3, 4, 5, 40, 64} {
			for blocks := 1; blocks <= 8; blocks++ {
				for lanes := 1; lanes <= MaxLanes; lanes++ {
					seed++
					a, b, rows, ca, cb := laneCase(seed, lanes, blocks)
					countPackedLanesVec(a, rows, shift, m, ca)
					countPackedLanesGeneric(b, rows, shift, m, cb)
					checkLanes(t, "vec", a, b, ca, cb)
				}
			}
		}
	}
}

// TestCountPackedLanesMatchesBlocks: the dispatched kernel equals
// CountPackedBlocks per source on 300 random lane sets (1…8 lanes),
// shifts from below 58 to 64, and sample sizes including zero.
func TestCountPackedLanesMatchesBlocks(t *testing.T) {
	pick := New(99)
	for i := 0; i < 300; i++ {
		lanes := 1 + pick.Intn(MaxLanes)
		blocks := 1 + pick.Intn(8)
		shift := uint(50 + pick.Intn(15))
		m := pick.Intn(90)
		a, b, rows, ca, cb := laneCase(uint64(i)+1e6, lanes, blocks)
		CountPackedLanes(a, rows, shift, m, ca)
		for k := range b {
			b[k].CountPackedBlocks(rows[k], shift, m, cb[k])
		}
		checkLanes(t, "dispatch", a, b, ca, cb)
	}
}

// TestCountPackedLanesRejectsBadShape: more than MaxLanes sources, or
// lanes with different block counts, are caller bugs and panic.
func TestCountPackedLanesRejectsBadShape(t *testing.T) {
	wide, _, wideRows, wideCounts, _ := laneCase(1, MaxLanes+1, 1)
	ragged, _, raggedRows, raggedCounts, _ := laneCase(2, 3, 2)
	raggedCounts[1] = make([]int32, 5)
	for _, tc := range []struct {
		name   string
		srcs   []*Source
		rows   []uint64
		counts [][]int32
	}{
		{"wide", wide, wideRows, wideCounts},
		{"ragged", ragged, raggedRows, raggedCounts},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: CountPackedLanes did not panic", tc.name)
				}
			}()
			CountPackedLanes(tc.srcs, tc.rows, 61, 4, tc.counts)
		}()
	}
}

// TestLaneStateLayout pins the field offsets lanes_amd64.s addresses.
func TestLaneStateLayout(t *testing.T) {
	var st laneState
	for _, f := range []struct {
		name      string
		got, want uintptr
	}{
		{"s", unsafe.Offsetof(st.s), 0},
		{"row", unsafe.Offsetof(st.row), 256},
		{"shift", unsafe.Offsetof(st.shift), 320},
		{"acc", unsafe.Offsetof(st.acc), 336},
	} {
		if f.got != f.want {
			t.Errorf("laneState.%s at offset %d, the assembly reads %d", f.name, f.got, f.want)
		}
	}
}
