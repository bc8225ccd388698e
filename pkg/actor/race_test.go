//go:build race

package actor_test

// Under -race sync.Pool drops a quarter of what is Put, so pooled scratch is
// rebuilt at random and the allocation pins cannot hold.
func init() { raceEnabled = true }
