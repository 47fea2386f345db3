package passivespread

import (
	"errors"
	"testing"
)

// FuzzParseTopology: ParseTopology must never panic, must reject only
// with ErrInvalidOptions, and any spec it accepts must name a topology
// whose Name() parses back to a topology with the same Name() — so
// every name a sweep row, cell key or listing prints is itself a valid
// spec.
func FuzzParseTopology(f *testing.F) {
	// The CI topology specs, plus defaults, spacing and malformed forms.
	for _, spec := range []string{
		"ring:2", "torus", "random-regular:8", "small-world:4:0.1", "dynamic:8:0.2",
		"complete", "ring", "small-world", "dynamic", " random-regular : 8 ",
		"small-world:4:1e-3", "dynamic:8:1", "ring:0", "ring:-2", "torus:3",
		"small-world:4:NaN", "dynamic:8:Inf", "random-regular:", "", ":",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		tp, err := ParseTopology(spec)
		if err != nil {
			if !errors.Is(err, ErrInvalidOptions) {
				t.Fatalf("ParseTopology(%q) error %v does not wrap ErrInvalidOptions", spec, err)
			}
			return
		}
		name := TopologyName(tp)
		again, err := ParseTopology(name)
		if err != nil {
			t.Fatalf("spec %q was accepted but its name %q does not parse: %v", spec, name, err)
		}
		if got := TopologyName(again); got != name {
			t.Fatalf("spec %q: name %q reparses to name %q", spec, name, got)
		}
	})
}
