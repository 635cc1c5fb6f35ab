package sql

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"rcnvm/internal/engine"
	"rcnvm/internal/shard"
)

// TestExecOneShardAllocs pins the per-statement cost of the shared
// statement scaffold through a warm plan cache. At N=1, routing, locking
// and dispatch add no allocation over running the statement on the single
// database (point SELECT 8, SUM 7, point UPDATE 4); the other rows are
// ceilings at the counts the separate single-database read executor had,
// and at 2 shards (serve-mixed's statement shapes) at the counts before
// broadcasts ran as a batch group of one.
func TestExecOneShardAllocs(t *testing.T) {
	clusters := map[int]*shard.Cluster{}
	plans := map[int]*PlanCache{}
	for _, tc := range []struct {
		shards int
		src    string
		max    float64
	}{
		{1, "SELECT val FROM kv WHERE k = 7", 8},
		{1, "SELECT SUM(val) FROM kv", 7},
		{1, "UPDATE kv SET val = 5 WHERE k = 9", 4},
		{1, "SELECT val FROM kv WHERE grp = 3", 75},
		{1, "SELECT grp, SUM(val) FROM kv GROUP BY grp", 28},
		{1, "EXPLAIN SELECT val FROM kv WHERE k = 7", 19},
		{2, "SELECT val FROM kv WHERE k = 7", 8},
		{2, "SELECT SUM(val) FROM kv", 13},
		{2, "SELECT grp, SUM(val) FROM kv GROUP BY grp", 56},
	} {
		if clusters[tc.shards] == nil {
			clusters[tc.shards], plans[tc.shards] = allocsCluster(t, tc.shards)
		}
		c, pc := clusters[tc.shards], plans[tc.shards]
		allocs := testing.AllocsPerRun(100, func() {
			if _, _, err := Exec(c, tc.src, Opts{Plans: pc}); err != nil {
				t.Fatal(err)
			}
		})
		max := tc.max
		if raceEnabled {
			// Pooled allocations miss at random under the race detector: up
			// to three per statement (EXPLAIN formats through fmt's pooled
			// printers). CI also runs this test without -race.
			max += 3
		}
		if allocs > max {
			t.Errorf("%q: %.1f allocs/stmt on %d shard(s), want <= %.0f", tc.src, allocs, tc.shards, max)
		}
	}
}

// allocsCluster is an n-shard cluster holding the 256-row kv table, and
// the plan cache that loaded it. One fan-out worker keeps goroutine
// start-up out of the counts, so they hold on any host.
func allocsCluster(t *testing.T, n int) (*shard.Cluster, *PlanCache) {
	t.Helper()
	c, err := shard.Open(engine.DualAddress, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	pc := NewPlanCache(0)
	if _, _, err := Exec(c, "CREATE TABLE kv (k, grp, val) CAPACITY 1024", Opts{Plans: pc}); err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < 256; lo += 64 {
		rows := make([]string, 0, 64)
		for i := lo; i < lo+64; i++ {
			rows = append(rows, fmt.Sprintf("(%d, %d, %d)", i, i%8, i*10))
		}
		if _, _, err := Exec(c, "INSERT INTO kv VALUES "+strings.Join(rows, ", "), Opts{Plans: pc}); err != nil {
			t.Fatal(err)
		}
	}
	return c, pc
}

// panicLog is a commit log whose every append panics, standing in for any
// failure that unwinds a statement while it holds its shard locks.
type panicLog struct{}

func (panicLog) LogStatement(string, bool, bool) (func() error, error) {
	panic("commit log failure")
}

func (panicLog) LogInsert(string, [][]uint64, []int) (func() error, error) {
	panic("commit log failure")
}

// TestPanicReleasesShardLocks: a statement or batch that panics while
// holding its shard locks (the server recovers such panics and keeps
// serving) must release them, at one shard as at many — otherwise the
// next statement blocks forever.
func TestPanicReleasesShardLocks(t *testing.T) {
	for _, n := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			c := openCluster(t, n)
			for _, q := range []string{
				"CREATE TABLE kv (k, grp, val) CAPACITY 64",
				"INSERT INTO kv VALUES (1, 1, 10), (2, 2, 20)",
			} {
				if _, err := ExecSharded(c, q); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < n; i++ {
				c.Shard(i).SetCommitLog(panicLog{})
			}
			if !runBounded(t, "ExecSharded", func() {
				_, _ = ExecSharded(c, "INSERT INTO kv VALUES (3, 3, 30)")
			}) {
				t.Fatal("ExecSharded: commit-log panic did not propagate")
			}
			if !runBounded(t, "ExecBatchSharded", func() {
				_, _ = ExecBatchSharded(c, nil, []string{"UPDATE kv SET val = 0 WHERE grp = 1"})
			}) {
				t.Fatal("ExecBatchSharded: commit-log panic did not propagate")
			}
			for i := 0; i < n; i++ {
				c.Shard(i).SetCommitLog(nil)
			}
			var err error
			if runBounded(t, "next statement", func() {
				_, err = ExecSharded(c, "UPDATE kv SET val = 1 WHERE grp = 2")
			}) {
				t.Fatal("next statement panicked")
			}
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// runBounded runs f on its own goroutine and reports whether it panicked.
// It fails the test when f neither returns nor panics within a deadline:
// the symptom of a shard lock an earlier panic left held.
func runBounded(t *testing.T, what string, f func()) (panicked bool) {
	t.Helper()
	done := make(chan bool, 1)
	go func() {
		defer func() { done <- recover() != nil }()
		f()
	}()
	select {
	case panicked = <-done:
		return panicked
	case <-time.After(5 * time.Second):
		t.Fatalf("%s blocked: an earlier panicking statement leaked its shard lock", what)
		return false
	}
}
