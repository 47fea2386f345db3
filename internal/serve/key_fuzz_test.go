package serve

import (
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"
)

// goldenKeyPattern matches the "key" members of the serve goldens'
// JSON bodies.
var goldenKeyPattern = regexp.MustCompile(`"key":("(?:[^"\\]|\\.)*")`)

// goldenServeKeys returns the canonical cell keys recorded in the root
// package's testdata/golden_serve_* files.
func goldenServeKeys(tb testing.TB) []string {
	tb.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "golden_serve_*"))
	if err != nil {
		tb.Fatal(err)
	}
	var keys []string
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			tb.Fatal(err)
		}
		for _, m := range goldenKeyPattern.FindAllSubmatch(data, -1) {
			key, err := strconv.Unquote(string(m[1]))
			if err != nil {
				tb.Fatalf("%s: %v", path, err)
			}
			keys = append(keys, key)
		}
	}
	if len(keys) == 0 {
		tb.Fatal("no cell keys in testdata/golden_serve_*")
	}
	return keys
}

// FuzzParseCellKey: ParseCellKey never panics, and any string it
// accepts is a fixed point of parse-then-Canonical — its canonical form
// is the string itself and parses back to an equal key — so no two
// strings alias one cache identity.
func FuzzParseCellKey(f *testing.F) {
	canonical := goldenServeKeys(f)
	k := validKey()
	k.Sources, k.NoiseEps, k.FlipFrac = 2, 0.1, 0.5
	canonical = append(canonical, validKey().Canonical(), k.Canonical())
	for _, s := range canonical {
		got, err := ParseCellKey(s)
		if err != nil {
			f.Fatalf("seed %q rejected: %v", s, err)
		}
		if c := got.Canonical(); c != s {
			f.Fatalf("seed %q canonicalizes to %q", s, c)
		}
		f.Add(s)
	}
	base := validKey().Canonical()
	for _, s := range []string{
		"",
		KeyVersion,
		base + " sources=0",
		base + " noise_eps=0.10",
		base + " flip_frac=0.5 noise_eps=0.1",
		base + " noise_eps=NaN",
		base + " noise_eps=-0",
		base + " sources=+2",
		base + "  sources=2",
		"fetcell/v1 scenario=worst-case engine=markov-chain topology=complete n=04096 ell=36 replicates=40 max_rounds=4800 seed=42",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		k, err := ParseCellKey(s)
		if err != nil {
			return
		}
		c := k.Canonical()
		if c != s {
			t.Fatalf("accepted %q, but its canonical form is %q", s, c)
		}
		k2, err := ParseCellKey(c)
		if err != nil {
			t.Fatalf("canonical form %q of accepted %q rejected: %v", c, s, err)
		}
		if k2 != k {
			t.Fatalf("canonical form %q parses to %+v, want %+v", c, k2, k)
		}
		if c2 := k2.Canonical(); c2 != c {
			t.Fatalf("canonical form %q re-canonicalizes to %q", c, c2)
		}
	})
}
