//go:build race

package distsim_test

// Under the race detector sync.Pool drops pooled items at random, so the
// TCP send path's frame pool misses and allocates: the allocation gates
// would measure the instrumentation, not the program.
func init() { raceEnabled = true }
