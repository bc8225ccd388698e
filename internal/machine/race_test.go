//go:build race

package machine

// Under -race sync.Pool drops a quarter of what is Put, so the pooled
// phaseCtx is rebuilt at random and the allocation pins cannot hold.
func init() { raceEnabled = true }
