//go:build !amd64

package rng

// useAVX2 is false off amd64: CountPackedLanes always takes the
// portable CountPackedBlocks loop.
const useAVX2 = false

// countLanesBlock has no vector implementation off amd64; useAVX2
// keeps it unreachable.
func countLanesBlock(*laneState, int) {
	panic("rng: no vector lane kernel on this architecture")
}
