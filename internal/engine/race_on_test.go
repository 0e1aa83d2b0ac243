//go:build race

package engine

// raceEnabled reports a build with the race detector, under which sync.Pool
// drops a random share of what is put back.
const raceEnabled = true
