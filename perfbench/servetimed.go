package main

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"time"

	"rcnvm/internal/engine"
	"rcnvm/internal/server"
	"rcnvm/internal/shard"
	"rcnvm/internal/sql"
	"rcnvm/internal/workload"
)

// timedAnswer is the expected outcome of one serve-timed statement: its
// rows and its simulated timing, both exact.
type timedAnswer struct {
	Columns []string   `json:"columns"`
	Rows    [][]uint64 `json:"rows"`
	Floats  []float64  `json:"floats,omitempty"`
	MemOps  int        `json:"mem_ops"`
	DualPs  int64      `json:"dual_ps"`
	RowPs   int64      `json:"row_ps"`
}

func answerOf(r *server.Response) timedAnswer {
	a := timedAnswer{Columns: r.Columns, Rows: r.Rows, Floats: r.Floats}
	if r.Timing != nil {
		a.MemOps, a.DualPs, a.RowPs = r.Timing.MemOps, r.Timing.DualPs, r.Timing.RowPs
	}
	return a
}

// equal compares two answers; a nil and an empty row list are the same.
func (a timedAnswer) equal(b timedAnswer) bool {
	if len(a.Rows) == 0 && len(b.Rows) == 0 {
		a.Rows, b.Rows = nil, nil
	}
	return reflect.DeepEqual(a, b)
}

// timedStatements are the read-only statements of workload.SQLQueries,
// in suite order.
func timedStatements() []workload.SQLQuery {
	var out []workload.SQLQuery
	for _, q := range workload.SQLQueries() {
		if sql.ReadOnlySrc(q.SQL) {
			out = append(out, q)
		}
	}
	return out
}

// goldenTimed decodes testdata/serve_timed.json.
func goldenTimed() (map[string]timedAnswer, error) {
	var g map[string]timedAnswer
	if err := json.Unmarshal(goldenServeTimedJSON, &g); err != nil {
		return nil, fmt.Errorf("serve-timed golden: %w", err)
	}
	return g, nil
}

// timedEnv is one serve-timed server: a 1-shard cluster loaded with
// workload.SQLSetup, listening on loopback TCP, and one client session.
type timedEnv struct {
	cl     *shard.Cluster
	srv    *server.Server
	client *server.Client
}

func setupTimed() (*timedEnv, error) {
	cl, err := shard.Open(engine.DualAddress, 1, 0)
	if err != nil {
		return nil, err
	}
	for _, st := range workload.SQLSetup() {
		if _, err := sql.ExecSharded(cl, st); err != nil {
			return nil, fmt.Errorf("load: %w", err)
		}
	}
	e := &timedEnv{cl: cl, srv: server.NewCluster(cl, server.Options{})}
	addr, err := e.srv.ListenTCP("127.0.0.1:0")
	if err != nil {
		e.close()
		return nil, err
	}
	if e.client, err = server.Dial(addr.String()); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func (e *timedEnv) close() error {
	if e.client != nil {
		e.client.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return e.srv.Shutdown(ctx)
}

// timedLoop sends the statements in suite order, starting at an offset
// chosen by the seed, one at a time with timing until the deadline.
type timedLoop struct {
	stmts  []workload.SQLQuery
	golden map[string]timedAnswer
	next   int
}

func newTimedLoop(seed int64) (*timedLoop, error) {
	g, err := goldenTimed()
	if err != nil {
		return nil, err
	}
	st := timedStatements()
	n := int64(len(st))
	return &timedLoop{stmts: st, golden: g, next: int((seed%n + n) % n)}, nil
}

// timedStmt is the outcome of one statement.
type timedStmt struct {
	id   string
	rtt  time.Duration
	resp *server.Response
	ok   bool
}

// do sends the next statement; traced asks the server for its spans.
func (l *timedLoop) do(c *server.Client, traced bool) timedStmt {
	q := l.stmts[l.next]
	l.next = (l.next + 1) % len(l.stmts)
	t0 := time.Now()
	resp, err := c.Do(server.Request{Query: q.SQL, Timing: true, Trace: traced})
	s := timedStmt{id: q.ID, rtt: time.Since(t0), resp: resp}
	if err == nil {
		want, known := l.golden[q.ID]
		s.ok = known && answerOf(resp).equal(want)
	}
	return s
}

// runServeTimed is the serve-timed workload.
func runServeTimed(b *bench) (*outcome, error) {
	env, setup, err := setupMedian(b.sz.setups, b.sz.setupBudget,
		func(int) (*timedEnv, error) { return setupTimed() },
		(*timedEnv).close)
	if err != nil {
		return nil, err
	}
	defer env.close()
	loop, err := newTimedLoop(b.seed)
	if err != nil {
		return nil, err
	}
	out := &outcome{Metrics: metrics{}}
	var ws []window
	for i := 0; i < serveWindows; i++ {
		var w window
		start := time.Now()
		for time.Since(start) < b.dur/serveWindows {
			s := loop.do(env.client, false)
			w.attempted++
			if !s.ok {
				out.Failed++
				continue
			}
			w.lat.add(s.rtt)
		}
		w.elapsed = time.Since(start)
		out.Attempted += int64(w.attempted)
		ws = append(ws, w)
		b.say("serve-timed window %d: %d statements in %v (%d distinct, timing on), p50 %.3f ms, p99 %.3f ms over %d samples",
			i+1, w.attempted, w.elapsed.Round(time.Millisecond), len(loop.stmts), quantile(w.lat, 0.5), quantile(w.lat, 0.99), len(w.lat))
	}
	m := out.Metrics
	m.set("setup_s", setup)
	setServeTimings(m, ws)
	m.set("live_heap_mb", liveHeapMB())
	b.say("serve-timed: %d statements, %d failed", out.Attempted, out.Failed)
	return out, nil
}
