//go:build race

package microbench

// raceEnabled reports a -race build, under which sync.Pool drops a random
// share of the values put into it.
const raceEnabled = true
