package sql

// Scatter-gather execution over a shard.Cluster — the routing and
// dispatch half of Exec (session.go): one statement is split into
// per-shard sub-plans, fanned out over the cluster's worker budget, and
// the partial results merged back into a single Result that is
// byte-identical to what one database holding every row produces. A
// 1-shard cluster is the N=1 case of the same path: routing yields shard
// 0, reads run as a single partial plus its merge, and only CREATE TABLE
// and INSERT, which own the row registry, run there unmodified.
//
// Routing: a statement whose WHERE pins the partitioning column with an
// equality runs on exactly one shard (all matching rows live there);
// everything else broadcasts. INSERT routes row by row but appends
// sequentially in statement order so global row ids — the merge order of
// every gathered result — follow insertion order exactly as one
// database's row ids do.
//
// Locking: the shards a statement touches are locked in ascending shard
// order (read locks for read-only statements, exclusive otherwise), held
// across sub-plan execution AND the merge (merging plain selects and
// joins projects rows, which reads shard memory). Ascending acquisition
// makes the multi-shard 2PL deadlock-free at statement granularity.
//
// Determinism: fanned-out sub-plans never abort each other — every shard
// runs to completion into its own slot and the merge consumes slots in
// shard order, so results and error values are independent of -workers
// and goroutine scheduling. When several shards fail (possible only with
// fault injection), the lowest shard index's error wins.

import (
	"context"
	"fmt"
	"strings"

	"rcnvm/internal/par"
	"rcnvm/internal/shard"
)

// awaitAll runs every per-shard durability wait (skipping nils) and
// returns the first failure.
func awaitAll(waits []func() error) error {
	var err error
	for _, w := range waits {
		if w == nil {
			continue
		}
		if e := w(); e != nil && err == nil {
			err = e
		}
	}
	return err
}

// updateUnstable reports whether an UPDATE rewrites its table's
// partitioning column. Recorded in the WAL so recovery re-disables point
// routing for the table exactly as route() did before the crash.
func updateUnstable(c *shard.Cluster, s *Update) bool {
	col, _ := c.PartitionColumn(s.Table)
	if col == "" {
		return false
	}
	for _, set := range s.Sets {
		if strings.EqualFold(set.Column, col) {
			return true
		}
	}
	return false
}

// shardIDs is the identity sequence 0, 1, 2, ...: routing slices its
// target lists out of it, so routing a statement allocates nothing for
// clusters of up to len(shardIDs) shards. Target lists are read-only.
var shardIDs = func() []int {
	ids := make([]int, 64)
	for i := range ids {
		ids[i] = i
	}
	return ids
}()

// shardRange returns the ascending target list lo..hi-1.
func shardRange(lo, hi int) []int {
	if hi <= len(shardIDs) {
		return shardIDs[lo:hi:hi]
	}
	out := make([]int, hi-lo)
	for i := range out {
		out[i] = lo + i
	}
	return out
}

func allShards(c *shard.Cluster) []int { return shardRange(0, c.N()) }

// route decides which shards a statement must lock and in which mode.
// Sub-plans of a read-only statement take read locks only when the whole
// statement is read-only and untraced; any mutation (or tracing, whose
// buffer is exclusive DB state) escalates every target to the write lock.
func route(c *shard.Cluster, st Statement, traced bool) (targets []int, exclusive bool) {
	exclusive = traced || !ReadOnly(st)
	switch s := st.(type) {
	case *Select:
		if s.JoinTable != "" {
			return allShards(c), exclusive
		}
		if i, ok := pointShard(c, s.Table, s.Where); ok {
			return shardRange(i, i+1), exclusive
		}
		return allShards(c), exclusive
	case *Update:
		// Rewriting the partitioning column breaks "stored key predicts
		// placement" for every row it touches: disable point routing for
		// this table up front (permanently) and broadcast the update —
		// broadcasts stay correct regardless of placement.
		if col, _ := c.PartitionColumn(s.Table); col != "" {
			for _, set := range s.Sets {
				if strings.EqualFold(set.Column, col) {
					c.MarkUnstable(s.Table)
					return allShards(c), true
				}
			}
		}
		if i, ok := pointShard(c, s.Table, s.Where); ok {
			return shardRange(i, i+1), true
		}
		return allShards(c), true
	case *Delete:
		if i, ok := pointShard(c, s.Table, s.Where); ok {
			return shardRange(i, i+1), true
		}
		return allShards(c), true
	case *Explain:
		if !s.Analyze {
			// Plan description reads one schema; shard 0 stands in for all.
			return shardRange(0, 1), exclusive
		}
		return allShards(c), true
	default: // CreateTable, Insert: DDL and row routing touch every shard.
		return allShards(c), true
	}
}

// pointShard reports the single shard that can satisfy a statement whose
// WHERE pins the partitioning column with an equality: the hash placement
// guarantees every matching row lives there, and the remaining conjuncts
// only filter further.
func pointShard(c *shard.Cluster, table string, where []Cond) (int, bool) {
	col, routable := c.PartitionColumn(table)
	if !routable {
		return 0, false
	}
	for _, cond := range where {
		if cond.Op == "=" && strings.EqualFold(cond.Column, col) {
			return c.Partition(cond.Value), true
		}
	}
	return 0, false
}

// lockShards acquires the targets' statement locks in ascending shard
// order; unlockShards releases them in reverse.
func lockShards(c *shard.Cluster, targets []int, exclusive bool) {
	for _, i := range targets {
		if exclusive {
			c.Shard(i).Lock()
		} else {
			c.Shard(i).RLock()
		}
	}
}

func unlockShards(c *shard.Cluster, targets []int, exclusive bool) {
	for j := len(targets) - 1; j >= 0; j-- {
		if exclusive {
			c.Shard(targets[j]).Unlock()
		} else {
			c.Shard(targets[j]).RUnlock()
		}
	}
}

// dispatchSharded executes a routed statement; locks are already held.
// The returned waits are per-shard durability waits the caller must run
// after releasing the locks (nil/empty when nothing was logged).
//
// Reads run as per-shard partials plus a merge on every cluster size; a
// single target (1 shard, or a point-routed statement) is a single
// partial, and a broadcast is a batch group of one. Only CREATE TABLE and
// INSERT have a 1-shard leaf: they own the row registry, which a 1-shard
// cluster does not keep, so there they run unmodified on shard 0 and log
// one statement record, exactly as a single unsharded database would.
func dispatchSharded(c *shard.Cluster, st Statement, src string, targets []int) (*Result, []func() error, error) {
	if c.N() == 1 {
		switch st.(type) {
		case *CreateTable, *Insert:
			return mutateOne(c, 0, st, src)
		}
	}
	switch s := st.(type) {
	case *CreateTable:
		return scatterCreate(c, s, src)
	case *Insert:
		return scatterInsert(c, s)
	case *Select:
		if s.JoinTable != "" {
			res, err := scatterJoin(c, s)
			return res, nil, err
		}
		if len(targets) == 1 {
			part := [1]selPartial{selectOnShard(c, targets[0], s)}
			res, err := mergeSelect(c, s, part[:])
			return res, nil, err
		}
		var res [1]*Result
		var errs [1]error
		runGroupedSelects(c, []Statement{s}, []int{0}, res[:], errs[:])
		return res[0], nil, errs[0]
	case *Update, *Delete:
		if len(targets) == 1 {
			return mutateOne(c, targets[0], st, src)
		}
		var res [1]*Result
		var errs [1]error
		var waits [1][]func() error
		runGroupedMutations(c, []Statement{st}, []string{src}, []int{0}, res[:], errs[:], waits[:])
		return res[0], waits[0], errs[0]
	case *Explain:
		return scatterExplain(c, s)
	default:
		return nil, nil, fmt.Errorf("sql: unsupported statement %T", st)
	}
}

func errUnmanaged(table string) error {
	return fmt.Errorf("sql: table %q not managed by the shard cluster", table)
}

// scatterCreate creates the table on every shard and registers it for
// routing. Shard allocators evolve in lockstep (all DDL broadcasts), so
// the shards fail or succeed together; the lowest shard's error wins.
// Every shard logs the statement (with its own failure flag) so replay
// re-creates the table on each shard independently.
func scatterCreate(c *shard.Cluster, s *CreateTable, src string) (*Result, []func() error, error) {
	type slot struct {
		res *Result
		err error
	}
	out := make([]slot, c.N())
	_ = par.RunCells(context.Background(), c.Workers(), c.N(), func(i int) error {
		out[i].res, out[i].err = runCreate(c.Shard(i), s)
		return nil
	})
	var waits []func() error
	if c.Shard(0).CommitLog() != nil {
		waits = make([]func() error, 0, c.N())
		for i := range out {
			if w := logShard(c.Shard(i), src, out[i].err != nil, false); w != nil {
				waits = append(waits, w)
			}
		}
	}
	for i := range out {
		if out[i].err != nil {
			return nil, waits, out[i].err
		}
	}
	c.Register(s.Name, s.Columns[0].Name, s.Columns[0].Words != 1)
	return out[0].res, waits, nil
}

// scatterInsert appends each row on its hash-owner shard, in statement
// order, assigning global row ids as it goes. Sequential on purpose: a
// mid-statement failure must leave exactly the earlier rows inserted,
// like the 1-shard INSERT. When commit logs are installed, each
// shard's appended rows accumulate into one insert record carrying the
// assigned global ids — flushed even when the statement fails midway, so
// replay reproduces exactly the rows that landed.
func scatterInsert(c *shard.Cluster, s *Insert) (*Result, []func() error, error) {
	if _, err := lookup(c.Shard(0), s.Table); err != nil {
		return nil, nil, err
	}
	if !c.Registered(s.Table) {
		return nil, nil, errUnmanaged(s.Table)
	}
	logged := c.Shard(0).CommitLog() != nil
	var rowsBy [][][]uint64
	var globalsBy [][]int
	if logged {
		rowsBy = make([][][]uint64, c.N())
		globalsBy = make([][]int, c.N())
	}
	flush := func() []func() error {
		if !logged {
			return nil
		}
		var waits []func() error
		for i := 0; i < c.N(); i++ {
			if len(rowsBy[i]) == 0 {
				continue
			}
			wait, err := c.Shard(i).CommitLog().LogInsert(s.Table, rowsBy[i], globalsBy[i])
			switch {
			case err != nil:
				err := err
				waits = append(waits, func() error { return err })
			case wait != nil:
				waits = append(waits, wait)
			}
		}
		return waits
	}
	for ri, row := range s.Rows {
		sh := c.Partition(row[0])
		t, err := lookup(c.Shard(sh), s.Table)
		if err != nil {
			return nil, flush(), err
		}
		local, err := t.Append(row...)
		if err != nil {
			return nil, flush(), fmt.Errorf("sql: row %d: %w", ri+1, err)
		}
		g, err := c.Assign(s.Table, sh, local)
		if err != nil {
			return nil, flush(), err
		}
		if logged {
			rowsBy[sh] = append(rowsBy[sh], row)
			globalsBy[sh] = append(globalsBy[sh], g)
		}
	}
	return &Result{Affected: len(s.Rows)}, flush(), nil
}

// mutateOne runs a mutation on shard i alone and logs one statement
// record there with its failure flag: even a failed statement may have
// partial effects, which deterministic replay reproduces.
func mutateOne(c *shard.Cluster, i int, st Statement, src string) (*Result, []func() error, error) {
	db := c.Shard(i)
	res, err := Run(db, st)
	unstable := false
	if u, ok := st.(*Update); ok {
		unstable = updateUnstable(c, u)
	}
	if w := logShard(db, src, err != nil, unstable); w != nil {
		return res, []func() error{w}, err
	}
	return res, nil, err
}
