//go:build race

package bucket

// raceEnabled reports a race-detector build, under which sync.Pool
// drops a share of what it is given on purpose.
const raceEnabled = true
