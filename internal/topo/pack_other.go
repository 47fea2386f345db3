//go:build !amd64

package topo

// packRowGroups has no vector implementation off amd64, where
// rng.VectorKernels is false and keeps it unreachable.
func packRowGroups(*int32, *uint64, *uint64, int, int) {
	panic("topo: no vector row-packing kernel on this architecture")
}
