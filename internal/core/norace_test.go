//go:build !race

package core

// raceDetector reports whether the tests run under the race detector, whose
// slowdown changes the order in which tasks become ready.
const raceDetector = false
