//go:build !race

package srmsort

// raceEnabled reports a -race build. The race detector makes sync.Pool
// drop a random share of what is put back, so guards on pooled
// allocations skip there.
const raceEnabled = false
