package experiments

import (
	"context"

	"rcnvm/internal/par"
)

// Sweep runs fn over n independent simulation cells on up to workers
// goroutines (internal/par) and returns the results slotted by cell index,
// so callers assemble tables in a fixed order regardless of which worker
// finished which cell first. Every (configuration x query) cell builds a
// fresh sim.System with its own event engine, caches and stats, so cells
// share no mutable state. Besides this package's sweeps, the benchmark
// (perfbench/golden.go) calls it to reproduce QueryBench cell by cell.
func Sweep[T any](ctx context.Context, workers, n int, fn func(i int) (T, error)) ([]T, error) {
	return par.Sweep[T](ctx, workers, n, fn)
}
