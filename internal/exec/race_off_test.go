//go:build !race

package exec_test

const raceEnabled = false
