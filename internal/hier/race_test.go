//go:build race

package hier

// Under the race detector sync.Pool drops a random share of Puts, so
// pooled scratch allocates again and allocation counts mean nothing.
func init() { raceEnabled = true }
