package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"rcnvm/internal/durable"
	"rcnvm/internal/engine"
	"rcnvm/internal/server"
	"rcnvm/internal/shard"
	"rcnvm/internal/sql"
)

// serve-mixed shape: mixedSessions closed-loop sessions against one
// 8-field table on mixedShards shards. Session s owns the ids of parity s
// and the grp values [s*mixedGroups, (s+1)*mixedGroups), so its own model
// of those rows predicts every answer exactly while the other session
// writes concurrently.
const (
	mixedSessions = 2
	mixedShards   = 2
	mixedGroups   = 64
	mixedSpan     = 8 // grp values per GROUP BY range
	mixedFields   = 6 // v1..v6 after id and grp
	mixedLoadRows = 512
	// mixedCapacity leaves room for every INSERT a run can make at many
	// times today's statement rate.
	mixedCapacity = 1 << 20
)

// Statement classes of the mix.
const (
	classPoint = "point" // SELECT * by id (4/8)
	classScan  = "scan"  // SUM/COUNT by grp (1/8), GROUP BY over a grp range (1/8)
	classWrite = "write" // UPDATE by id (1/8), INSERT (1/8)
)

// splitmix is the row generator's mixing function.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// mixedRow is row id's (id, grp, v1..v6): a pure function of seed and id.
func mixedRow(seed int64, id uint64) []uint64 {
	h := splitmix(uint64(seed)*0x100000001b3 ^ id)
	owner := id % mixedSessions
	row := []uint64{id, owner*mixedGroups + h%mixedGroups}
	for j := uint64(0); j < mixedFields; j++ {
		row = append(row, splitmix(h+j)%1000)
	}
	return row
}

func insertSQL(rows [][]uint64) string {
	var b strings.Builder
	b.WriteString("INSERT INTO t VALUES ")
	for i, r := range rows {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteByte('(')
		for j, v := range r {
			if j > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%d", v)
		}
		b.WriteByte(')')
	}
	return b.String()
}

// mixedEnv is one serve-mixed server: a durable 2-shard cluster in its own
// data directory, listening on loopback TCP, with one client per session.
type mixedEnv struct {
	dir     string
	store   *durable.Store
	cl      *shard.Cluster
	srv     *server.Server
	clients []*server.Client
}

// setupMixed opens and recovers a fresh data directory (fsync=always,
// the rcnvm-serve -data-dir default), creates the table and loads rows
// through the WAL, then listens and dials.
func setupMixed(dir string, seed int64, rows int) (*mixedEnv, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	e := &mixedEnv{dir: dir}
	var err error
	if e.store, err = durable.Open(dir, engine.DualAddress, mixedShards, durable.Options{Fsync: durable.SyncAlways}); err != nil {
		return nil, err
	}
	if e.cl, err = shard.Open(engine.DualAddress, mixedShards, 0); err != nil {
		e.close()
		return nil, err
	}
	if _, err := e.store.Recover(e.cl); err != nil {
		e.close()
		return nil, err
	}
	create := fmt.Sprintf("CREATE TABLE t (id, grp, v1, v2, v3, v4, v5, v6) CAPACITY %d", mixedCapacity)
	if _, err := sql.ExecSharded(e.cl, create); err != nil {
		e.close()
		return nil, err
	}
	for lo := 0; lo < rows; lo += mixedLoadRows {
		hi := min(lo+mixedLoadRows, rows)
		batch := make([][]uint64, 0, hi-lo)
		for id := lo; id < hi; id++ {
			batch = append(batch, mixedRow(seed, uint64(id)))
		}
		if _, err := sql.ExecSharded(e.cl, insertSQL(batch)); err != nil {
			e.close()
			return nil, fmt.Errorf("load: %w", err)
		}
	}
	e.srv = server.NewCluster(e.cl, server.Options{Durable: e.store})
	addr, err := e.srv.ListenTCP("127.0.0.1:0")
	if err != nil {
		e.close()
		return nil, err
	}
	for s := 0; s < mixedSessions; s++ {
		c, err := server.Dial(addr.String())
		if err != nil {
			e.close()
			return nil, err
		}
		e.clients = append(e.clients, c)
	}
	return e, nil
}

// close drains the server, closes the WAL and deletes the data directory.
func (e *mixedEnv) close() error {
	for _, c := range e.clients {
		c.Close()
	}
	var first error
	if e.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		first = e.srv.Shutdown(ctx)
		cancel()
	}
	if e.store != nil {
		if err := e.store.Close(); err != nil && first == nil {
			first = err
		}
	}
	if err := os.RemoveAll(e.dir); err != nil && first == nil {
		first = err
	}
	return first
}

// mixedModel is one session's exact copy of the rows it owns.
type mixedModel struct {
	rows   map[uint64][]uint64
	ids    []uint64
	sum    [mixedGroups]uint64 // SUM(v1) per owned grp
	count  [mixedGroups]uint64
	base   uint64 // first owned grp
	nextID uint64
	seed   int64
	rng    *rand.Rand
}

func newMixedModel(seed int64, session, preloaded int) *mixedModel {
	m := &mixedModel{
		rows: make(map[uint64][]uint64),
		base: uint64(session) * mixedGroups,
		seed: seed,
		rng:  rand.New(rand.NewSource(seed*1_000_003 + int64(session))),
	}
	for id := uint64(session); id < uint64(preloaded); id += mixedSessions {
		m.add(mixedRow(seed, id))
	}
	m.nextID = uint64(preloaded) + uint64(session)
	for m.nextID%mixedSessions != uint64(session) {
		m.nextID++
	}
	return m
}

func (m *mixedModel) add(row []uint64) {
	m.rows[row[0]] = row
	m.ids = append(m.ids, row[0])
	m.sum[row[1]-m.base] += row[2]
	m.count[row[1]-m.base]++
}

// mixedOp is one statement with the answer the model predicts for it.
type mixedOp struct {
	class    string
	sql      string
	rows     [][]uint64 // expected rows (SELECTs)
	affected int        // expected affected count (writes)
	apply    func()     // model update, run once the write succeeded
}

// next draws the session's next statement: 4/8 point SELECT, 1/8 UPDATE,
// 1/8 INSERT, 1/8 SUM/COUNT by grp, 1/8 GROUP BY over a grp range.
func (m *mixedModel) next() mixedOp {
	switch k := m.rng.Intn(8); {
	case k < 4:
		id := m.ids[m.rng.Intn(len(m.ids))]
		return mixedOp{class: classPoint,
			sql:  fmt.Sprintf("SELECT * FROM t WHERE id = %d", id),
			rows: [][]uint64{m.rows[id]}}
	case k == 4:
		id := m.ids[m.rng.Intn(len(m.ids))]
		v := uint64(m.rng.Intn(1000))
		return mixedOp{class: classWrite,
			sql:      fmt.Sprintf("UPDATE t SET v1 = %d WHERE id = %d", v, id),
			affected: 1,
			apply: func() {
				row := m.rows[id]
				g := row[1] - m.base
				m.sum[g] = m.sum[g] - row[2] + v
				row[2] = v
			}}
	case k == 5:
		row := mixedRow(m.seed, m.nextID)
		m.nextID += mixedSessions
		return mixedOp{class: classWrite,
			sql:      insertSQL([][]uint64{row}),
			affected: 1,
			apply:    func() { m.add(row) }}
	case k == 6:
		g := m.base + uint64(m.rng.Intn(mixedGroups))
		return mixedOp{class: classScan,
			sql:  fmt.Sprintf("SELECT SUM(v1), COUNT(*) FROM t WHERE grp = %d", g),
			rows: [][]uint64{{m.sum[g-m.base], m.count[g-m.base]}}}
	default:
		lo := m.base + uint64(m.rng.Intn(mixedGroups-mixedSpan+1))
		hi := lo + mixedSpan - 1
		var want [][]uint64
		for g := lo; g <= hi; g++ {
			if m.count[g-m.base] > 0 {
				want = append(want, []uint64{g, m.sum[g-m.base]})
			}
		}
		return mixedOp{class: classScan,
			sql:  fmt.Sprintf("SELECT grp, SUM(v1) FROM t WHERE grp >= %d AND grp <= %d GROUP BY grp", lo, hi),
			rows: want}
	}
}

// check reports whether resp is exactly the predicted answer.
func (op mixedOp) check(resp *server.Response) bool {
	if op.apply != nil {
		return resp.Affected == op.affected
	}
	return sameRows(resp.Rows, op.rows)
}

func sameRows(got, want [][]uint64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			return false
		}
		for j := range got[i] {
			if got[i][j] != want[i][j] {
				return false
			}
		}
	}
	return true
}

// mixedSample is the outcome of one statement.
type mixedSample struct {
	class string
	rtt   time.Duration
	ok    bool
	resp  *server.Response
}

// mixedSession drives one client in a closed loop.
type mixedSession struct {
	model  *mixedModel
	client *server.Client
}

// do sends one statement and checks it. A write the server did not
// acknowledge leaves the model unchanged; a wrong answer is a failure.
func (s *mixedSession) do(traced bool) mixedSample {
	op := s.model.next()
	t0 := time.Now()
	resp, err := s.client.Do(server.Request{Query: op.sql, Trace: traced})
	smp := mixedSample{class: op.class, rtt: time.Since(t0), resp: resp}
	if err != nil {
		return smp
	}
	smp.ok = op.check(resp)
	if smp.ok && op.apply != nil {
		op.apply()
	}
	return smp
}

// mixedSlice is one measured stretch of both sessions.
type mixedSlice struct {
	elapsed time.Duration
	samples []mixedSample
}

// runSlice runs every session in a closed loop until d has passed. each,
// when set, sees every sample on its session's goroutine.
func runSlice(sessions []*mixedSession, d time.Duration, traced bool, each func(session int, t0 time.Time, s mixedSample)) mixedSlice {
	var wg sync.WaitGroup
	per := make([][]mixedSample, len(sessions))
	start := time.Now()
	deadline := start.Add(d)
	for i, s := range sessions {
		wg.Add(1)
		go func(i int, s *mixedSession) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				t0 := time.Now()
				smp := s.do(traced)
				if each != nil {
					each(i, t0, smp)
				}
				smp.resp = nil
				per[i] = append(per[i], smp)
			}
		}(i, s)
	}
	wg.Wait()
	out := mixedSlice{elapsed: time.Since(start)}
	for _, p := range per {
		out.samples = append(out.samples, p...)
	}
	return out
}

// byClass returns the successful statements' latencies, all and per class.
func (sl mixedSlice) byClass() (all latencies, class map[string]latencies, failed int) {
	class = make(map[string]latencies)
	for _, s := range sl.samples {
		if !s.ok {
			failed++
			continue
		}
		all = append(all, ms(s.rtt))
		class[s.class] = append(class[s.class], ms(s.rtt))
	}
	return all, class, failed
}

// openMixed sets the workload up at least n times and for budget in
// total, and keeps the last.
func openMixed(b *bench, n int, budget time.Duration) (*mixedEnv, []*mixedSession, float64, error) {
	env, setup, err := setupMedian(n, budget,
		func(i int) (*mixedEnv, error) {
			return setupMixed(filepath.Join(b.scratch, fmt.Sprintf("wal-%d-%d", os.Getpid(), i)), b.seed, b.sz.mixedRows)
		},
		(*mixedEnv).close)
	if err != nil {
		return nil, nil, 0, err
	}
	sessions := make([]*mixedSession, mixedSessions)
	for i := range sessions {
		sessions[i] = &mixedSession{model: newMixedModel(b.seed, i, b.sz.mixedRows), client: env.clients[i]}
	}
	return env, sessions, setup, nil
}

// runServeMixed is the serve-mixed workload.
func runServeMixed(b *bench) (*outcome, error) {
	env, sessions, setup, err := openMixed(b, b.sz.setups, b.sz.setupBudget)
	if err != nil {
		return nil, err
	}
	defer env.close()
	out := &outcome{Metrics: metrics{}}
	var ws []window
	class := make(map[string]latencies)
	for i := 0; i < serveWindows; i++ {
		sl := runSlice(sessions, b.dur/serveWindows, false, nil)
		all, cl, failed := sl.byClass()
		out.Attempted += int64(len(sl.samples))
		out.Failed += int64(failed)
		ws = append(ws, window{attempted: len(sl.samples), elapsed: sl.elapsed, lat: all})
		for c, l := range cl {
			class[c] = append(class[c], l...)
		}
		b.say("serve-mixed window %d: %d statements in %v over %d sessions, %d shards, fsync=always; p50 %.3f ms, p99 %.3f ms over %d samples; %d failed",
			i+1, len(sl.samples), sl.elapsed.Round(time.Millisecond), mixedSessions, mixedShards,
			quantile(all, 0.5), quantile(all, 0.99), len(all), failed)
	}
	m := out.Metrics
	m.set("setup_s", setup)
	setServeTimings(m, ws)
	m.set("live_heap_mb", liveHeapMB())
	for _, c := range []string{classPoint, classScan, classWrite} {
		b.say("serve-mixed %-5s p50 %.3f ms over %d samples", c, quantile(class[c], 0.5), len(class[c]))
	}
	return out, nil
}
