//go:build race

package exec_test

// raceEnabled reports whether this test binary was built with -race,
// whose instrumentation allocates and so voids allocation counts.
const raceEnabled = true
