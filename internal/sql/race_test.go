//go:build race

package sql

// raceEnabled reports whether the race detector is on: it makes sync.Pool
// drop items at random, so pooled allocations (fmt's printers, the plan
// cache's scratch) show up in allocation counts.
const raceEnabled = true
