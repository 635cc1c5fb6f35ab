package sql

import (
	"fmt"
	"time"

	"rcnvm/internal/engine"
	"rcnvm/internal/obs"
	"rcnvm/internal/shard"
	"rcnvm/internal/trace"
)

// This file is the statement entry point of the SQL layer: every statement
// a caller executes — one shard or many, timed or not, observed or not —
// goes through Exec, which runs one scaffold:
//
//	parse (through the plan cache when one is given)
//	route and lock the target shards in ascending shard order
//	start tracing, dispatch, stop tracing, WAL-log — all under the locks
//	unlock, then wait for durability
//
// It is the concurrency boundary: engine.DB carries an RWMutex but its
// methods do not lock it themselves (see the engine.DB doc comment), so
// Exec holds the statement locks for the whole statement — read locks for
// untraced read-only statements, exclusive otherwise. The locks are
// released by a deferred unlock, so a panic during execution never leaves
// a shard locked. Run stays unlocked for single-threaded callers (WAL
// replay).
//
// It is also the durability boundary: when a commit log is installed on
// the shards (engine.DB.SetCommitLog, done by internal/durable), every
// mutating statement is appended to the WAL while the exclusive lock is
// still held — so per-log record order equals commit order — and the
// caller then waits for the fsync AFTER releasing the lock, so concurrent
// statements batch their fsyncs behind the log's single flusher instead
// of serializing on the disk. With no log installed (the default),
// logging costs one nil check and no allocation.
//
// A 1-shard cluster is the N=1 case of the same scaffold and the same
// executor: its reads are a single partial plus a merge. It differs only
// at two leaves: dispatchSharded runs CREATE TABLE and INSERT unmodified
// on shard 0 with a statement record, exactly as a single unsharded
// database would, and classifyGroup never groups a batch.

// Opts selects what one Exec call records besides executing the statement.
// The zero value parses without a cache and records nothing.
type Opts struct {
	// Plans is consulted for the parse (nil = plain Parse). A successful
	// DDL statement bumps its generation so older templates re-parse.
	Plans *PlanCache
	// Rec receives the wall-clock phase spans (parse, lock_wait, exec,
	// and wal_wait when a commit log is installed) under obs.ProcQuery on
	// lane TID. Nil records nothing.
	Rec *obs.Recorder
	TID int64
	// Trace records each locked shard's memory-access stream. Tracing
	// forces exclusive locks: the trace buffer is shared DB state, and a
	// concurrent statement would interleave its accesses into the
	// recording.
	Trace bool
}

// Exec parses and executes one statement across the cluster, holding the
// per-shard statement locks its sub-plans require. With o.Trace set,
// streams[i] is shard i's recorded access stream (nil for shards the
// statement never locked); otherwise streams is nil.
func Exec(c *shard.Cluster, src string, o Opts) (*Result, []trace.Stream, error) {
	t0 := time.Now()
	st, err := o.Plans.Parse(src)
	o.Rec.WallSince(obs.ProcQuery, "parse", obs.CatSQL, o.TID, t0)
	if err != nil {
		return nil, nil, err
	}
	if _, ok := st.(*Explain); ok && o.Trace {
		return nil, nil, fmt.Errorf("sql: EXPLAIN already reports timing; run it untraced")
	}
	res, streams, err := runSharded(c, st, src, o)
	invalidateOnDDL(o.Plans, st, err)
	return res, streams, err
}

// ExecSharded is Exec with no plan cache, recorder or tracing.
func ExecSharded(c *shard.Cluster, src string) (*Result, error) {
	res, _, err := Exec(c, src, Opts{})
	return res, err
}

// runSharded is Exec past the parse: route, lock, (trace,) execute, log,
// merge, unlock, wait for durability.
func runSharded(c *shard.Cluster, st Statement, src string, o Opts) (*Result, []trace.Stream, error) {
	targets, exclusive := route(c, st, o.Trace)
	tLock := time.Now()
	lockShards(c, targets, exclusive)
	unlocked := false
	defer func() {
		// Panic-safe: the normal path unlocks by hand before the
		// durability wait below.
		if !unlocked {
			unlockShards(c, targets, exclusive)
		}
	}()
	o.Rec.WallSince(obs.ProcQuery, "lock_wait", obs.CatSQL, o.TID, tLock)
	var streams []trace.Stream
	if o.Trace {
		streams = make([]trace.Stream, c.N())
		for _, i := range targets {
			c.Shard(i).StartTrace()
		}
	}
	tExec := time.Now()
	res, waits, err := dispatchSharded(c, st, src, targets)
	if o.Trace {
		for _, i := range targets {
			streams[i] = c.Shard(i).StopTrace()
		}
	}
	o.Rec.WallSince(obs.ProcQuery, "exec", obs.CatSQL, o.TID, tExec)
	// Release the statement locks before waiting for the WAL fsyncs:
	// group commit batches concurrent statements' records behind shared
	// fsyncs, which only helps if the lock is free while waiting.
	unlocked = true
	unlockShards(c, targets, exclusive)
	if len(waits) > 0 {
		tWal := time.Now()
		werr := awaitAll(waits)
		o.Rec.WallSince(obs.ProcQuery, "wal_wait", obs.CatSQL, o.TID, tWal)
		if werr != nil && err == nil {
			err = werr
		}
	}
	if err != nil {
		return nil, nil, err
	}
	return res, streams, nil
}

// invalidateOnDDL bumps the plan-cache generation after a successful
// schema change (CREATE TABLE, bare or under EXPLAIN ANALYZE).
func invalidateOnDDL(pc *PlanCache, st Statement, execErr error) {
	if pc == nil || execErr != nil {
		return
	}
	switch s := st.(type) {
	case *CreateTable:
		pc.Invalidate()
	case *Explain:
		if _, ok := s.Stmt.(*CreateTable); ok && s.Analyze {
			pc.Invalidate()
		}
	}
}

// ReadOnly reports whether a statement only reads database state, and may
// therefore run under the shared (read) lock concurrently with other
// readers. EXPLAIN ANALYZE is a writer: it records an access trace, which
// is exclusive state on the DB.
func ReadOnly(st Statement) bool {
	switch s := st.(type) {
	case *Select:
		return true
	case *Explain:
		return !s.Analyze
	default:
		return false
	}
}

// ReadOnlySrc reports whether src parses and is read-only — the shared
// classification clients and routers use to decide whether a statement is
// safe to resend with unknown execution state, or to serve from a read
// replica. Unparseable statements classify as NOT read-only: the server's
// parser may accept what ours rejects, so the conservative answer routes
// them to the primary and never resends them blindly.
func ReadOnlySrc(src string) bool {
	st, err := Parse(src)
	return err == nil && ReadOnly(st)
}

// logShard appends one statement record on db's commit log. Nil-safe and
// allocation-free when no log is installed. An append failure surfaces
// through the returned wait: the statement has already executed, so a
// logging failure is a durability failure, not an execution failure.
func logShard(db *engine.DB, src string, failed, unstable bool) func() error {
	l := db.CommitLog()
	if l == nil {
		return nil
	}
	wait, err := l.LogStatement(src, failed, unstable)
	if err != nil {
		return func() error { return err }
	}
	return wait
}
