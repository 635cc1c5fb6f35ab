package main

import (
	"io"
	"path/filepath"
	"testing"
	"time"

	"rcnvm/internal/experiments"
	"rcnvm/internal/stats"
)

// tinySizes shrinks a run so every workload finishes in about a second.
func tinySizes() sizes {
	return sizes{
		simScale:     experiments.ScaleSmall,
		simQueries:   2,
		simMinSweeps: 1,
		mixedRows:    256,
		setups:       2,
	}
}

func tinyBench(t *testing.T) *bench {
	return &bench{seed: 5, dur: 400 * time.Millisecond, sz: tinySizes(), log: io.Discard, scratch: t.TempDir()}
}

func TestSimCheckCountsInjectedWrongAnswer(t *testing.T) {
	s := newSimSweep(5, tinySizes())
	r, err := s.sweep(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := s.answer(r)
	if n := s.checkSweep(r, want); n != 0 {
		t.Fatalf("clean sweep: %d cells failed", n)
	}
	check := func(what string, wantFailed int) {
		t.Helper()
		if n := s.checkSweep(r, want); n != wantFailed {
			t.Fatalf("%s: %d cells failed, want %d", what, n, wantFailed)
		}
		s.golden = &want // the golden path fails the same way
		if n := s.checkSweep(r, sweepAnswer{}); n != wantFailed {
			t.Fatalf("%s against golden: %d cells failed, want %d", what, n, wantFailed)
		}
		s.golden = nil
	}

	// A shift too small to show in the rendered figures fails its cell.
	r.cells[1].res.TimePs++
	check("one picosecond more", 1)
	r.cells[1].res.TimePs--
	r.cells[2].res.Counters[stats.LLCMisses]++
	check("one LLC miss more", 1)
	r.cells[2].res.Counters[stats.LLCMisses]--
	check("restored", 0)

	// A change that shows in the figures fails every cell.
	r.cells[1].res.TimePs += 1e9
	check("wrong execution time", len(r.cells))
}

// The sweep must reproduce exactly what experiments.QueryBench renders and
// what its workload.Run calls return for the same seed and scale, so the
// goldens recorded from them check it.
func TestSimSweepMatchesQueryBench(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the small-scale Figures 18-21 sweep three times")
	}
	sz := tinySizes()
	sz.simQueries = 0
	s := newSimSweep(defaultSeed, sz)
	r, err := s.sweep(nil)
	if err != nil {
		t.Fatal(err)
	}
	got := s.answer(r)
	qb, err := experiments.QueryBench(experiments.ScaleSmall, simWorkers)
	if err != nil {
		t.Fatal(err)
	}
	if want := renderQueryBench(qb); got.figures != want {
		t.Fatalf("sweep renders\n%s\nQueryBench renders\n%s", got.figures, want)
	}
	cells, err := queryBenchCells(experiments.ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != len(got.cells) {
		t.Fatalf("sweep has %d cells, QueryBench %d", len(got.cells), len(cells))
	}
	for i := range cells {
		if !got.cells[i].equal(cells[i]) {
			t.Fatalf("cell %d: sweep %+v, workload.Run %+v", i, got.cells[i], cells[i])
		}
	}
}

// The embedded goldens are one sweep: a cell per (query, system) in sweep
// order.
func TestSimGoldenCells(t *testing.T) {
	s := newSimSweep(defaultSeed, fullSizes())
	if s.golden == nil || len(s.golden.cells) != s.cells() {
		t.Fatalf("golden has %d cells, sweep %d", len(goldenSim.cells), s.cells())
	}
	nq := len(s.specs)
	for i, c := range s.golden.cells {
		if want := s.specs[i%nq].ID + "/" + s.systems[i/nq].Name; c.Cell != want || c.TimePs <= 0 || len(c.Counters) == 0 {
			t.Fatalf("golden cell %d: %s (time %d, %d counters), want %s", i, c.Cell, c.TimePs, len(c.Counters), want)
		}
	}
}

func TestTimedCheckCountsInjectedWrongAnswer(t *testing.T) {
	env, err := setupTimed()
	if err != nil {
		t.Fatal(err)
	}
	defer env.close()
	loop, err := newTimedLoop(0)
	if err != nil {
		t.Fatal(err)
	}
	for range loop.stmts {
		if s := loop.do(env.client, false); !s.ok {
			t.Fatalf("%s: correct answer counted as failed", s.id)
		}
	}
	// Corrupt the golden rows of the next statement, then its timing.
	id := loop.stmts[loop.next].ID
	good := loop.golden[id]
	bad := good
	bad.Rows = append([][]uint64{{1, 2, 3}}, good.Rows...)
	loop.golden[id] = bad
	if s := loop.do(env.client, false); s.ok {
		t.Fatalf("%s: wrong rows counted as correct", id)
	}
	loop.next = (loop.next + len(loop.stmts) - 1) % len(loop.stmts)
	bad = good
	bad.DualPs++
	loop.golden[id] = bad
	if s := loop.do(env.client, false); s.ok {
		t.Fatalf("%s: wrong timing counted as correct", id)
	}
}

func TestMixedCheckCountsInjectedWrongAnswer(t *testing.T) {
	const rows = 256
	env, err := setupMixed(filepath.Join(t.TempDir(), "wal"), 3, rows)
	if err != nil {
		t.Fatal(err)
	}
	defer env.close()
	sessions := []*mixedSession{
		{model: newMixedModel(3, 0, rows), client: env.clients[0]},
		{model: newMixedModel(3, 1, rows), client: env.clients[1]},
	}
	sl := runSlice(sessions, 300*time.Millisecond, false, nil)
	if _, class, failed := sl.byClass(); failed != 0 || len(class) != 3 {
		t.Fatalf("clean slice: %d failed, classes %v", failed, len(class))
	}

	// Every class's check rejects a perturbed answer.
	seen := map[string]bool{}
	m := sessions[0].model
	for len(seen) < 3 {
		op := m.next()
		resp, err := env.clients[0].Query(op.sql)
		if err != nil {
			t.Fatal(err)
		}
		if !op.check(resp) {
			t.Fatalf("%s: correct answer rejected: %s", op.class, op.sql)
		}
		if op.apply != nil {
			op.apply()
			resp.Affected = 0
		} else {
			resp.Rows[0][len(resp.Rows[0])-1]++
		}
		if op.check(resp) {
			t.Fatalf("%s: wrong answer accepted: %s", op.class, op.sql)
		}
		seen[op.class] = true
	}

	// A session whose model disagrees with the server counts failures.
	for id, row := range m.rows {
		row[2] += 1000
		m.sum[row[1]-m.base] += 1000
		m.rows[id] = row
	}
	sl = runSlice(sessions[:1], 200*time.Millisecond, false, nil)
	if _, _, failed := sl.byClass(); failed == 0 {
		t.Fatal("corrupted model: no statement counted as failed")
	}
}
