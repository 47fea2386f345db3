//go:build !race

package adversary

// raceEnabled reports a -race build, under which sync.Pool drops
// buffers at random by design.
const raceEnabled = false
