//go:build race

package server_test

// raceEnabled reports that the test binary was built with -race, under
// which sync.Pool deliberately drops a quarter of what is Put into it.
const raceEnabled = true
