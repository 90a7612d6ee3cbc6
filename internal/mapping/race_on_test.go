//go:build race

package mapping

// raceEnabled reports whether this test binary was built with -race,
// whose instrumentation allocates on paths that otherwise do not.
const raceEnabled = true
