//go:build !race

package cms

const raceEnabled = false
