//go:build !race

package algo_test

// raceDetector reports whether the tests run under the race detector.
const raceDetector = false
