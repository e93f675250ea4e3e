//go:build race

package vliw_test

// raceEnabled: the race detector instruments allocations, so counts of them
// mean nothing.
const raceEnabled = true
