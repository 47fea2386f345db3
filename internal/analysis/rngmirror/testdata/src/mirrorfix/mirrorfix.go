// Package mirrorfix exercises the rngmirror rule outside internal/rng:
// every raw-consumption call site must carry a draw-count accounting
// annotation; typed draws need nothing.
package mirrorfix

import "rng"

func raw(src *rng.Source) uint64 {
	return src.Uint64() // want `raw rng\.Source\.Uint64 consumption outside internal/rng`
}

func bulk(src *rng.Source, buf []uint64) {
	src.Fill(buf) // want `raw rng\.Source\.Fill consumption outside internal/rng`
}

func skip(src *rng.Source, n uint64) {
	src.Advance(n) // want `raw rng\.Source\.Advance consumption outside internal/rng`
}

func accounted(src *rng.Source, buf []uint64) {
	//fet:allow rngmirror: prefetches exactly len(buf) outputs, consumed one per draw by the caller
	src.Fill(buf)
}

func countRows(blk *rng.Streams, rows []uint64, counts [][64]int32) {
	blk.CountRows(0, 64, rows, 61, 40, counts) // want `raw rng\.Streams\.CountRows consumption outside internal/rng`
}

func accountedRows(blk *rng.Streams, rows []uint64, counts [][64]int32) {
	//fet:allow rngmirror: consumes exactly len(counts)·40 outputs per stream in [0, 64), each agent's whole round
	blk.CountRows(0, 64, rows, 61, 40, counts)
}

func typed(src *rng.Source) int {
	return src.Intn(10)
}

func trendRound(blk *rng.Streams, prev []uint16) uint64 {
	up, _ := blk.TrendWord(2, prev, 0, 64) // want `raw rng\.Streams\.TrendWord consumption outside internal/rng`
	return up
}

func settle(blk *rng.Streams, debt int) {
	blk.Advance(0, 64, 2*debt) // want `raw rng\.Streams\.Advance consumption outside internal/rng`
}

func populate(blk *rng.Streams, seed uint64, prev []uint16) {
	blk.Seed(seed, 1, 64, 13, prev) // want `raw rng\.Streams\.Seed consumption outside internal/rng`
}

func accountedTrend(blk *rng.Streams, src *rng.Source, seed uint64, prev []uint16, debt int) uint64 {
	//fet:allow rngmirror: exactly one Intn(13) per stream in [1, 64), the per-agent corruption draw
	blk.Seed(seed, 1, 64, 13, prev)
	//fet:allow rngmirror: exactly 2·debt outputs per stream in [0, 64), the skipped rounds' draws
	blk.Advance(0, 64, 2*debt)
	//fet:allow rngmirror: exactly d = 2 outputs per stream in [0, 64), one round's draws
	up, _ := blk.TrendWord(2, prev, 0, 64)
	blk.Store(0, src)
	return up
}
