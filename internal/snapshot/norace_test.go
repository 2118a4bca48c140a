//go:build !race

package snapshot_test

const raceEnabled = false
