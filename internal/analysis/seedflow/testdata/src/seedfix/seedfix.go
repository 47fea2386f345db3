// Package seedfix exercises the seedflow rules: seeds must visibly
// flow from rng.StreamSeed (directly, through a seed-pure local, or
// through a name carrying "seed"), and raw SplitMix64 stays inside rng.
package seedfix

import "rng"

type config struct{ Seed uint64 }

func goodDirect(root, i uint64) *rng.Source {
	return rng.New(rng.StreamSeed(root, i))
}

func goodLocal(root uint64) *rng.Source {
	s := rng.StreamSeed(root, 3)
	return rng.New(s)
}

func goodNamed(cfg config) *rng.Source {
	return rng.New(cfg.Seed)
}

func goodParam(laneSeed uint64) *rng.Source {
	return rng.New(laneSeed)
}

func badLiteral() *rng.Source {
	return rng.New(12345) // want `does not flow from rng\.StreamSeed`
}

func badMangle(cfg config) *rng.Source {
	return rng.New(cfg.Seed ^ 0xdead) // want `does not flow from rng\.StreamSeed`
}

func badLocal(root uint64) *rng.Source {
	x := root * 31
	return rng.New(x) // want `does not flow from rng\.StreamSeed`
}

func badReseed(src *rng.Source, x uint64) {
	src.Reseed(x + 1) // want `does not flow from rng\.StreamSeed`
}

func goodStreams(blk *rng.Streams, cfg config, prev []uint16) {
	blk.Seed(cfg.Seed, 1, 64, 0, prev)
}

func badStreams(blk *rng.Streams, cfg config, prev []uint16) {
	blk.Seed(cfg.Seed+1, 1, 64, 0, prev) // want `seed argument to rng\.Seed does not flow from rng\.StreamSeed`
}

func badSplit(root uint64) uint64 {
	return rng.SplitMix64(root) // want `raw rng\.SplitMix64 outside internal/rng`
}

func allowedLegacy(root uint64) *rng.Source {
	//fet:allow seedflow: pinned legacy stream; recorded tables depend on this exact derivation
	return rng.New(root*6364136223846793005 + 1442695040888963407)
}
