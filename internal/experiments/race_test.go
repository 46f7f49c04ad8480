//go:build race

package experiments

// The race detector's instrumentation changes allocation sizes, so heap
// measurements mean nothing under it.
func init() { raceEnabled = true }
