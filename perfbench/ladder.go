package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime/pprof"
	"sync"
	"time"

	"rcnvm/internal/addr"
	"rcnvm/internal/config"
	"rcnvm/internal/durable"
	"rcnvm/internal/funcmem"
	"rcnvm/internal/obs"
	"rcnvm/internal/server"
	"rcnvm/internal/sim"
	"rcnvm/internal/stats"
)

// The traced run (-trace 1) is one ladder over both pipelines, the same
// whichever -workload is named: each per-layer metric is measured on the
// workload README.md maps it to. Every section first runs its workload
// untraced, then traced, and reports the traced slowdown as
// trace.overhead_frac.<workload>. The benchmark's spans and the server's
// are kept in memory and written once at the end as a Chrome trace.
//
// A serve section measures two slices of -seconds/ladderSlices each; the
// sim section always measures one untraced and one traced sweep.
const ladderSlices = 8

// ladder carries one traced run's shared state.
type ladder struct {
	b   *bench
	rec *obs.Recorder
	m   metrics
	out *outcome
}

// runLadder is the traced run.
func runLadder(b *bench, name string) (*outcome, error) {
	l := &ladder{b: b, rec: obs.NewRecorderLimit(1 << 21), m: metrics{}}
	l.out = &outcome{Metrics: l.m}
	b.say("traced ladder (-workload %s): sim-queries, serve-timed, serve-mixed sections", name)
	for _, section := range []func() error{l.simSection, l.timedSection, l.mixedSection} {
		if err := section(); err != nil {
			return nil, err
		}
	}
	spans := l.rec.Spans()
	rows := selfTimes(spans)
	b.say("self time by span (benchmark spans around public calls, server spans nested in each round trip):")
	writeSelfTable(b.log, rows)
	path := filepath.Join(b.scratch, fmt.Sprintf("trace-%s-seed%d.json", name, b.seed))
	if err := writeChromeTrace(path, spans); err != nil {
		return nil, err
	}
	b.say("chrome trace: %s (%d spans kept, %d dropped)", path, len(spans), l.rec.Dropped())
	return l.out, nil
}

func (l *ladder) slice() time.Duration { return l.b.dur / ladderSlices }

// simSection: one untraced sweep, then one sweep with spans around every
// step of every cell and a CPU profile over the System.Run calls.
func (l *ladder) simSection() error {
	s := newSimSweep(l.b.seed, l.b.sz)
	plain, err := s.sweep(nil)
	if err != nil {
		return err
	}
	want := s.answer(plain)
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return err
	}
	traced, err := s.sweep(l.rec)
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	for _, r := range []sweepResult{plain, traced} {
		l.out.Attempted += int64(len(r.cells))
		l.out.Failed += int64(s.checkSweep(r, want))
	}
	shares, samples, err := selfByPackage(prof.Bytes())
	if err != nil {
		return err
	}

	var build, run, busy time.Duration
	counters := make(map[string]int64)
	for _, c := range traced.cells {
		build += c.build
		run += c.run
		busy += c.total
		for k, v := range c.res.Counters {
			counters[k] += v
		}
	}
	memops := float64(traced.memOps())
	m := l.m
	m.set("workload.build_s", build.Seconds())
	m.set("sim.run_s", run.Seconds())
	m.set("sim.memops", memops)
	m.set("sim.ns_per_memop", ratio(float64(run.Nanoseconds()), memops))
	m.set("sim.profile_samples", float64(samples))
	for _, p := range append(simPackages, "runtime", "other") {
		m.set("sim.self_frac."+p, shares[p])
	}
	m.set("par.idle_frac", 1-busy.Seconds()/(simWorkers*traced.wall.Seconds()))
	llc := counters[stats.L3Hits] + counters[stats.LLCMisses]
	bufAcc := counters[stats.BufferHits] + counters[stats.BufferMisses]
	m.set("core.ops", float64(counters[stats.OpsExecuted]))
	m.set("cache.llc_accesses", float64(llc))
	m.set("cache.llc_misses", float64(counters[stats.LLCMisses]))
	m.set("cache.llc_miss_ratio", ratio(float64(counters[stats.LLCMisses]), float64(llc)))
	m.set("mem.reads", float64(counters[stats.MemReads]))
	m.set("mem.writes", float64(counters[stats.MemWrites]))
	m.set("mem.writebacks", float64(counters[stats.MemWritebacks]))
	m.set("mem.buffer_accesses", float64(bufAcc))
	m.set("mem.buffer_misses", float64(counters[stats.BufferMisses]))
	m.set("mem.buffer_miss_rate", ratio(float64(counters[stats.BufferMisses]), float64(bufAcc)))
	m.set("mem.orientation_switches", float64(counters[stats.OrientSwitches]))
	m.set("trace.overhead_frac.sim-queries", traced.wall.Seconds()/plain.wall.Seconds()-1)
	l.b.say("sim-queries: untraced sweep %v, traced+profiled sweep %v, %d profile samples in System.Run",
		plain.wall.Round(time.Millisecond), traced.wall.Round(time.Millisecond), samples)
	return nil
}

// timedSection: serve-timed untraced, then with trace:true, then direct
// sim.New calls.
func (l *ladder) timedSection() error {
	env, err := setupTimed()
	if err != nil {
		return err
	}
	defer env.close()
	loop, err := newTimedLoop(l.b.seed)
	if err != nil {
		return err
	}

	var plain int
	alloc0 := totalAllocMB()
	start := time.Now()
	for time.Since(start) < l.slice() {
		s := loop.do(env.client, false)
		l.count(s.ok)
		plain++
	}
	plainRate := float64(plain) / time.Since(start).Seconds()
	allocPerStmt := (totalAllocMB() - alloc0) / float64(plain)

	spans := newLayerSamples()
	var traced, tracedOK, memops int
	var replay time.Duration
	start = time.Now()
	for time.Since(start) < l.slice() {
		t0 := time.Now()
		s := loop.do(env.client, true)
		l.count(s.ok)
		traced++
		if !s.ok {
			continue
		}
		st, err := parseServerTrace(s.resp.TraceEvents)
		if err != nil {
			return err
		}
		tracedOK++
		spans.add("", s.rtt, st)
		recordStmt(l.rec, 100, "stmt.timed", t0, s.rtt, st)
		memops += s.resp.Timing.MemOps
		for _, sp := range st.spans {
			if sp.Name == "replay_dual" || sp.Name == "replay_row" {
				replay += time.Duration(sp.Dur)
			}
		}
	}
	tracedRate := float64(traced) / time.Since(start).Seconds()

	const newCalls = 30
	var newMs latencies
	alloc0 = totalAllocMB()
	for i := 0; i < newCalls; i++ {
		t0 := time.Now()
		if _, err := sim.New(config.RCNVM()); err != nil {
			return err
		}
		l.rec.WallSince(procSim, "sim.new(probe)", catBench, 0, t0)
		newMs.add(time.Since(t0))
	}
	newAlloc := (totalAllocMB() - alloc0) / newCalls

	m := l.m
	m.set("sim.new_ms", quantile(newMs, 0.5))
	m.set("sim.new_alloc_mb", newAlloc)
	m.set("server.timed_stmts", float64(traced))
	m.set("server.replay_dual_p50_ms", spans.p("server.replay_dual", 0.5))
	m.set("server.replay_row_p50_ms", spans.p("server.replay_row", 0.5))
	m.set("sim.replay_ns_per_memop", ratio(float64(replay.Nanoseconds()), float64(2*memops)))
	m.set("trace.memops_per_stmt", ratio(float64(memops), float64(tracedOK)))
	m.set("runtime.alloc_mb_per_stmt", allocPerStmt)
	m.set("trace.overhead_frac.serve-timed", plainRate/tracedRate-1)
	l.b.say("serve-timed: %d untraced, %d traced statements; %d replay spans counted, not kept", plain, traced, spans.sim)
	return nil
}

// count books one checked operation of the ladder.
func (l *ladder) count(ok bool) {
	l.out.Attempted++
	if !ok {
		l.out.Failed++
	}
}

// mixedSection: serve-mixed untraced, then with trace:true while counting
// plan-cache, WAL and funcmem work, then direct engine and funcmem probes
// on the idle shards.
func (l *ladder) mixedSection() error {
	env, sessions, _, err := openMixed(l.b, 1, 0)
	if err != nil {
		return err
	}
	defer env.close()

	plain := runSlice(sessions, l.slice(), false, nil)
	all, class, failed := plain.byClass()
	l.out.Attempted += int64(len(plain.samples))
	l.out.Failed += int64(failed)
	m := l.m
	m.set("point_p50_ms", quantile(class[classPoint], 0.5))
	m.set("scan_p50_ms", quantile(class[classScan], 0.5))
	m.set("write_p50_ms", quantile(class[classWrite], 0.5))

	before := env.srv.Stats().Counters
	reads0 := shardReads(env)
	spans := newLayerSamples()
	var tally syncCounter
	traced := runSlice(sessions, l.slice(), true, func(session int, t0 time.Time, s mixedSample) {
		if !s.ok {
			return
		}
		st, err := parseServerTrace(s.resp.TraceEvents)
		if err != nil {
			tally.fail()
			return
		}
		spans.add(s.class, s.rtt, st)
		recordStmt(l.rec, int64(session+1), "stmt."+s.class, t0, s.rtt, st)
		tally.rows(len(s.resp.Rows))
	})
	after := env.srv.Stats().Counters
	reads1 := shardReads(env)
	tAll, _, tFailed := traced.byClass()
	l.out.Attempted += int64(len(traced.samples))
	l.out.Failed += int64(tFailed + tally.failed)

	var writes int
	for _, s := range traced.samples {
		if s.ok && s.class == classWrite {
			writes++
		}
	}
	delta := func(name string) float64 { return float64(after[name] - before[name]) }
	var words, colReads, maxShard float64
	for i := range reads0 {
		w := float64(reads1[i].RowReads + reads1[i].ColReads - reads0[i].RowReads - reads0[i].ColReads)
		words += w
		maxShard = max(maxShard, w)
		colReads += float64(reads1[i].ColReads - reads0[i].ColReads)
	}
	stmts := float64(len(tAll))
	lookups := delta(server.PlanCacheHits) + delta(server.PlanCacheMisses)
	m.set("server.traced_stmts", stmts)
	m.set("funcmem.words_read_per_stmt", ratio(words, stmts))
	m.set("engine.rows_returned", float64(tally.rowsOut))
	m.set("engine.rows_examined_per_row_returned", ratio(colReads, float64(tally.rowsOut)))
	m.set("shard.read_skew", ratio(maxShard, words/float64(len(reads0))))
	m.set("sql.parse_p50_us", spans.p("sql.parse", 0.5)*1e3)
	m.set("sql.plancache_lookups", lookups)
	m.set("sql.plancache_hit_ratio", ratio(delta(server.PlanCacheHits), lookups))
	m.set("sql.exec_point_p50_ms", spans.p("sql.exec."+classPoint, 0.5))
	m.set("sql.exec_scan_p50_ms", spans.p("sql.exec."+classScan, 0.5))
	m.set("sql.exec_write_p50_ms", spans.p("sql.exec."+classWrite, 0.5))
	m.set("sql.lock_wait_p50_ms", spans.p("sql.lock_wait", 0.5))
	m.set("sql.lock_wait_p99_ms", spans.p("sql.lock_wait", 0.99))
	m.set("durable.wal_wait_p50_ms", spans.p("durable.wal_wait", 0.5))
	m.set("durable.appends", delta(durable.CtrWalAppends))
	m.set("durable.fsyncs_per_append", ratio(delta(durable.CtrWalFsyncs), delta(durable.CtrWalAppends)))
	m.set("durable.wal_bytes_per_write", ratio(delta(durable.CtrWalBytes), float64(writes)))
	m.set("server.wait_p50_ms", quantile(spans.wait, 0.5))
	m.set("server.rejected", float64(after[server.Rejected]))
	m.set("trace.overhead_frac.serve-mixed",
		ratio(float64(len(plain.samples)), plain.elapsed.Seconds())/ratio(float64(len(traced.samples)), traced.elapsed.Seconds())-1)

	nsRow, nsWord, err := probeShards(env, l.rec)
	if err != nil {
		return err
	}
	m.set("engine.ns_per_row", nsRow)
	m.set("funcmem.ns_per_word", nsWord)
	l.b.say("serve-mixed: %d untraced statements (p50 %.3f ms), %d traced", len(plain.samples), quantile(all, 0.5), len(traced.samples))
	return nil
}

// syncCounter tallies the traced slice's rows returned and span-decoding
// failures from both session goroutines.
type syncCounter struct {
	mu      sync.Mutex
	rowsOut int
	failed  int
}

func (c *syncCounter) rows(n int) { c.mu.Lock(); c.rowsOut += n; c.mu.Unlock() }
func (c *syncCounter) fail()      { c.mu.Lock(); c.failed++; c.mu.Unlock() }

// shardReads snapshots every shard's funcmem access counters.
func shardReads(env *mixedEnv) []funcmem.Counts {
	out := make([]funcmem.Counts, env.cl.N())
	for i := range out {
		out[i] = env.cl.Shard(i).Mem().Counts()
	}
	return out
}

// probeShards times direct Table.ScanWhere calls and direct
// Memory.ReadCoord calls over every cell of the table, shard by shard,
// under each shard's read lock while no statement runs.
func probeShards(env *mixedEnv, rec *obs.Recorder) (nsPerRow, nsPerWord float64, err error) {
	const rounds = 5
	var scanNs, wordNs, rows, words float64
	for i := 0; i < env.cl.N(); i++ {
		db := env.cl.Shard(i)
		db.RLock()
		t, ok := db.Table("t")
		if !ok {
			db.RUnlock()
			return 0, 0, fmt.Errorf("shard %d has no table t", i)
		}
		var coords []addr.Coord
		for _, r := range t.LiveRows() {
			for w := 0; w < 2+mixedFields; w++ {
				coords = append(coords, t.CellCoord(r, w))
			}
		}
		mem := db.Mem()
		for k := 0; k < rounds; k++ {
			t0 := time.Now()
			if _, err := t.ScanWhere("grp", func(v []uint64) bool { return v[0] == 1<<62 }); err != nil {
				db.RUnlock()
				return 0, 0, err
			}
			rec.WallSince(procSim, "engine.scan(probe)", catBench, int64(10+i), t0)
			scanNs += float64(time.Since(t0).Nanoseconds())
			rows += float64(t.Live())
			t1 := time.Now()
			var sink uint64
			for _, c := range coords {
				sink += mem.ReadCoord(c, addr.Column)
			}
			rec.WallSince(procSim, "funcmem.read(probe)", catBench, int64(10+i), t1)
			wordNs += float64(time.Since(t1).Nanoseconds())
			words += float64(len(coords))
			_ = sink
		}
		db.RUnlock()
	}
	return ratio(scanNs, rows), ratio(wordNs, words), nil
}
