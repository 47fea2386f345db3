//go:build !amd64

package rng

// useAVX2 is false off amd64: the stream kernels always take their
// portable paths.
const useAVX2 = false

// countRowGroups, trendGroupsFET, trendGroupsSimple and seedGroups have
// no vector implementation off amd64; useAVX2 keeps them unreachable.
func countRowGroups(*uint64, *uint64, *uint64, *uint64, *uint64, *int32, int, *[2]uint64, int, int) {
	panic("rng: no vector row kernel on this architecture")
}

func trendGroupsFET(*uint64, *uint64, *uint64, *uint64, *uint16, int, *uint64, *uint32) (uint64, uint64) {
	panic("rng: no vector trend kernel on this architecture")
}

func trendGroupsSimple(*uint64, *uint64, *uint64, *uint64, *uint16, int, *uint64, *uint32) (uint64, uint64) {
	panic("rng: no vector trend kernel on this architecture")
}

func seedGroups(*uint64, *uint64, *uint64, *uint64, *uint16, int, uint64, uint64, uint64) int {
	panic("rng: no vector seeding kernel on this architecture")
}
