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

// trendGroupsFET and trendGroupsSimple have no vector implementation
// off amd64; useAVX2 keeps them unreachable.
func trendGroupsFET(*uint64, *uint64, *uint64, *uint64, *uint16, int, *uint64, *uint32) (uint64, uint64) {
	panic("rng: no vector trend kernel on this architecture")
}

func trendGroupsSimple(*uint64, *uint64, *uint64, *uint64, *uint16, int, *uint64, *uint32) (uint64, uint64) {
	panic("rng: no vector trend kernel on this architecture")
}
