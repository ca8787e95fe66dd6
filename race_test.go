//go:build race

package pchls

// raceEnabled reports whether the test binary runs under the race detector.
const raceEnabled = true
