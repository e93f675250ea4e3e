//go:build race

package cms

// raceEnabled: the race detector instruments allocations, so counts of them
// mean nothing.
const raceEnabled = true
