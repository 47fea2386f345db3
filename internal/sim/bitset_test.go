package sim

import (
	"fmt"
	"testing"

	"passivespread/internal/rng"
)

// TestPackFromMatchesReference: the branch-free packFrom sets exactly the
// bits of the nonzero bytes — any nonzero value, not only 1 — at ragged
// populations whose last word is partial or empty of eight-byte groups,
// and leaves every bit past n clear.
func TestPackFromMatchesReference(t *testing.T) {
	src := rng.New(3)
	for _, n := range []int{0, 1, 7, 8, 9, 63, 64, 65, 71, 127, 128, 200, 4097} {
		for _, mix := range []string{"binary", "bytes", "sparse"} {
			t.Run(fmt.Sprintf("n=%d/%s", n, mix), func(t *testing.T) {
				ops := make([]byte, n+9) // bytes past n must be ignored
				for i := range ops {
					switch mix {
					case "binary":
						ops[i] = byte(src.Intn(2))
					case "bytes":
						ops[i] = byte(src.Intn(256))
					default: // mostly zero, single high or low bits set
						if src.Intn(8) == 0 {
							ops[i] = 1 << src.Intn(8)
						}
					}
				}
				var b opinionBits
				b.resize(n)
				for i := range b.words {
					b.words[i] = ^uint64(0) // packFrom must overwrite stale bits
				}
				b.packFrom(ops)
				for i := 0; i < n; i++ {
					want := byte(0)
					if ops[i] != 0 {
						want = 1
					}
					if got := b.get(i); got != want {
						t.Fatalf("agent %d (byte %#x): bit %d, want %d", i, ops[i], got, want)
					}
				}
				if tail := uint(n) & 63; tail != 0 && b.words[len(b.words)-1]>>tail != 0 {
					t.Fatalf("bits past n = %d set: last word %#x", n, b.words[len(b.words)-1])
				}
			})
		}
	}
}
