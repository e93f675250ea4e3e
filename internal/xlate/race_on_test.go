//go:build race

package xlate_test

// raceEnabled: under the race detector sync.Pool drops a share of what it
// is given, so allocation counts through the scratch pool mean nothing.
const raceEnabled = true
