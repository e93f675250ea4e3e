//go:build !race

package xlate_test

const raceEnabled = false
