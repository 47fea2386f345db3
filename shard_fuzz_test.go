package passivespread

import (
	"errors"
	"testing"
)

// FuzzParseShard: ParseShard must never panic, must reject only with
// ErrInvalidOptions, and must accept only the canonical form — an
// accepted input is exactly the parsed Shard's String, so shard
// artifacts and fleet logs never carry two spellings of one shard.
func FuzzParseShard(f *testing.F) {
	for s := range parseShardValid {
		f.Add(s)
	}
	for _, s := range parseShardInvalid {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		sh, err := ParseShard(s)
		if err != nil {
			if !errors.Is(err, ErrInvalidOptions) {
				t.Fatalf("ParseShard(%q) error %v does not wrap ErrInvalidOptions", s, err)
			}
			return
		}
		if got := sh.String(); got != s {
			t.Fatalf("ParseShard(%q) accepted a non-canonical form: String() = %q", s, got)
		}
	})
}
