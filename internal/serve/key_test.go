package serve

import (
	"math"
	"strings"
	"testing"
)

func validKey() CellKey {
	return CellKey{
		Scenario: "worst-case", Engine: "markov-chain", Topology: "complete",
		N: 4096, Ell: 36, Replicates: 40, MaxRounds: 4800, Seed: 42,
	}
}

func TestCellKeyCanonicalRoundTrip(t *testing.T) {
	keys := []CellKey{
		validKey(),
		func() CellKey { k := validKey(); k.Seed = 0; return k }(),
		func() CellKey { k := validKey(); k.Sources = 3; return k }(),
		func() CellKey { k := validKey(); k.NoiseEps = 0.05; return k }(),
		func() CellKey { k := validKey(); k.FlipFrac = 0.25; return k }(),
		func() CellKey {
			k := validKey()
			k.Sources, k.NoiseEps, k.FlipFrac = 2, 0.1, 0.5
			return k
		}(),
		func() CellKey { k := validKey(); k.Topology = "random-regular:8"; return k }(),
	}
	for _, k := range keys {
		s := k.Canonical()
		if !strings.HasPrefix(s, KeyVersion+" ") {
			t.Fatalf("canonical %q lacks version prefix", s)
		}
		got, err := ParseCellKey(s)
		if err != nil {
			t.Fatalf("ParseCellKey(%q): %v", s, err)
		}
		if got != k {
			t.Fatalf("round trip: got %+v, want %+v", got, k)
		}
		if got.Canonical() != s {
			t.Fatalf("re-canonicalization of %q changed to %q", s, got.Canonical())
		}
	}
}

func TestCellKeyCanonicalForm(t *testing.T) {
	got := validKey().Canonical()
	want := "fetcell/v1 scenario=worst-case engine=markov-chain topology=complete n=4096 ell=36 replicates=40 max_rounds=4800 seed=42"
	if got != want {
		t.Fatalf("canonical form:\n got %q\nwant %q", got, want)
	}
}

func TestCellKeyHash(t *testing.T) {
	k := validKey()
	h := k.Hash()
	if !strings.HasPrefix(h, HashPrefix) {
		t.Fatalf("hash %q lacks prefix %q", h, HashPrefix)
	}
	if len(strings.TrimPrefix(h, HashPrefix)) != 64 {
		t.Fatalf("hash hex length %d, want 64", len(strings.TrimPrefix(h, HashPrefix)))
	}
	if k.Hash() != h {
		t.Fatal("hash is not stable")
	}
	k2 := k
	k2.Seed++
	if k2.Hash() == h {
		t.Fatal("different keys share a hash")
	}
}

func TestCellKeyValidateRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*CellKey)
	}{
		{"empty scenario", func(k *CellKey) { k.Scenario = "" }},
		{"space in engine", func(k *CellKey) { k.Engine = "agent fast" }},
		{"equals in topology", func(k *CellKey) { k.Topology = "ring=2" }},
		{"n too small", func(k *CellKey) { k.N = 1 }},
		{"unresolved ell", func(k *CellKey) { k.Ell = 0 }},
		{"unresolved replicates", func(k *CellKey) { k.Replicates = 0 }},
		{"unresolved max_rounds", func(k *CellKey) { k.MaxRounds = 0 }},
		{"negative sources", func(k *CellKey) { k.Sources = -1 }},
		{"noise too large", func(k *CellKey) { k.NoiseEps = 0.5 }},
		{"flip too large", func(k *CellKey) { k.FlipFrac = 1 }},
		{"NaN noise", func(k *CellKey) { k.NoiseEps = math.NaN() }},
		{"NaN flip", func(k *CellKey) { k.FlipFrac = math.NaN() }},
	}
	for _, tc := range cases {
		k := validKey()
		tc.mutate(&k)
		if err := k.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, k)
		}
	}
}

func TestParseCellKeyRejectsNonCanonical(t *testing.T) {
	base := validKey().Canonical()
	bad := []string{
		"",
		"fetcell/v0 " + strings.TrimPrefix(base, "fetcell/v1 "),
		strings.Replace(base, "scenario=worst-case engine=markov-chain", "engine=markov-chain scenario=worst-case", 1),
		base + " unknown=1",
		base + " sources=0",               // zero override would be omitted by Canonical
		base + " noise_eps=0.1 sources=2", // optional fields out of order
		base + " sources=2 sources=3",     // duplicate optional
		strings.Replace(base, "n=4096", "n=x", 1),
		strings.Replace(base, "seed=42", "seed=", 1),
	}
	for _, s := range bad {
		if _, err := ParseCellKey(s); err == nil {
			t.Errorf("ParseCellKey accepted non-canonical %q", s)
		}
	}
}
