package topo

// packRowGroups runs PackRows' vector kernel: it packs n rows of deg
// neighbors each, held row after row at adj, into rows[0..n) from the
// opinion bitset at words (bit j of a row = bit adj[j] of the bitset).
// It requires AVX2, n ≥ 1, deg a multiple of 4 in [4, 64] and every
// index in adj inside the bitset.
//
//go:noescape
func packRowGroups(adj *int32, words, rows *uint64, n, deg int)
