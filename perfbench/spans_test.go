package main

import (
	"bytes"
	"context"
	"math"
	"path/filepath"
	"runtime/pprof"
	"testing"
	"time"

	"rcnvm/internal/config"
	"rcnvm/internal/obs"
	"rcnvm/internal/sim"
	"rcnvm/internal/workload"
)

// TestServerSpanParserMapsNames feeds a document shaped like the server's
// trace:true response through the parser and checks every span name lands
// in its metric family.
func TestServerSpanParserMapsNames(t *testing.T) {
	rec := obs.NewRecorder()
	durs := map[string]int64{ // ns
		"parse": 3_000, "lock_wait": 50_000, "exec": 1_200_000,
		"wal_wait": 400_000, "replay_dual": 4_000_000, "replay_row": 5_000_000,
	}
	at := int64(0)
	for _, name := range []string{"parse", "lock_wait", "exec", "wal_wait", "replay_dual", "replay_row"} {
		rec.Add(obs.Span{Proc: obs.ProcQuery, Name: name, Cat: obs.CatSQL, Start: at, Dur: durs[name]})
		at += durs[name]
	}
	rec.Sim(obs.ProcSimDual, "burst", obs.CatMem, 3, 100, 200)
	doc, err := obs.ChromeTraceJSON(rec.Spans())
	if err != nil {
		t.Fatal(err)
	}
	st, err := parseServerTrace(doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.spans) != 6 || st.simSpans != 1 {
		t.Fatalf("parsed %d query spans and %d sim spans, want 6 and 1", len(st.spans), st.simSpans)
	}
	l := newLayerSamples()
	rtt := time.Duration(at) + 2*time.Millisecond
	l.add(classWrite, rtt, st)
	for name, fam := range serverSpanFamily {
		if got, want := l.p(fam, 0.5), float64(durs[name])/1e6; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s -> %s: %v ms, want %v", name, fam, got, want)
		}
	}
	if got := l.p("sql.exec."+classWrite, 0.5); got != 1.2 {
		t.Errorf("sql.exec.write = %v ms, want 1.2", got)
	}
	if got := quantile(l.wait, 0.5); math.Abs(got-2) > 1e-9 {
		t.Errorf("server wait = %v ms, want 2", got)
	}
}

// TestServerEmitsMappedSpans checks the real server's span names against
// the parser's map: a timed statement yields parse, lock_wait, exec and
// both replays; a durable write yields wal_wait.
func TestServerEmitsMappedSpans(t *testing.T) {
	timed, err := setupTimed()
	if err != nil {
		t.Fatal(err)
	}
	defer timed.close()
	resp, err := timed.client.QueryTraced(timedStatements()[0].SQL, true)
	if err != nil {
		t.Fatal(err)
	}
	names := spanNames(t, resp.TraceEvents)
	for _, n := range []string{"parse", "lock_wait", "exec", "replay_dual", "replay_row"} {
		if !names[n] {
			t.Errorf("timed statement: no %s span (got %v)", n, names)
		}
	}
	mixed, err := setupMixed(filepath.Join(t.TempDir(), "wal"), 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer mixed.close()
	resp, err = mixed.clients[0].QueryTraced("UPDATE t SET v1 = 1 WHERE id = 2", false)
	if err != nil {
		t.Fatal(err)
	}
	if names := spanNames(t, resp.TraceEvents); !names["wal_wait"] {
		t.Errorf("durable write: no wal_wait span (got %v)", names)
	}
}

func spanNames(t *testing.T, doc []byte) map[string]bool {
	t.Helper()
	st, err := parseServerTrace(doc)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, s := range st.spans {
		if _, ok := serverSpanFamily[s.Name]; !ok {
			t.Errorf("server span %q maps to no metric", s.Name)
		}
		names[s.Name] = true
	}
	return names
}

func TestSelfTimes(t *testing.T) {
	spans := []obs.Span{
		{Proc: "p", TID: 1, Name: "round_trip", Start: 0, Dur: 100},
		{Proc: "p", TID: 1, Name: "parse", Start: 10, Dur: 5},
		{Proc: "p", TID: 1, Name: "exec", Start: 20, Dur: 60},
		{Proc: "p", TID: 1, Name: "scan", Start: 30, Dur: 20},
		{Proc: "p", TID: 2, Name: "exec", Start: 0, Dur: 7}, // another lane: no parent
	}
	want := map[string][2]time.Duration{ // total, self
		"round_trip": {100, 35},
		"parse":      {5, 5},
		"exec":       {67, 47},
		"scan":       {20, 20},
	}
	rows := selfTimes(spans)
	if len(rows) != len(want) {
		t.Fatalf("got %d rows, want %d", len(rows), len(want))
	}
	for _, r := range rows {
		if w := want[r.name]; r.total != w[0] || r.self != w[1] {
			t.Errorf("%s: total %v self %v, want %v %v", r.name, r.total, r.self, w[0], w[1])
		}
	}
}

// TestSelfByPackage profiles labelled simulator runs and checks the
// decoder attributes their samples to simulator packages.
func TestSelfByPackage(t *testing.T) {
	p := workload.SmallParams()
	spec := workload.Queries()[0]
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Fatal(err)
	}
	for start := time.Now(); time.Since(start) < 500*time.Millisecond; {
		env, err := workload.NewEnv(config.RCNVM(), p)
		if err != nil {
			t.Fatal(err)
		}
		if err := spec.Build(env); err != nil {
			t.Fatal(err)
		}
		pprof.Do(context.Background(), pprof.Labels(profileLabel, profileRun), func(context.Context) {
			_, err = sim.RunOn(config.RCNVM(), env.Exec.Streams())
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	shares, n, err := selfByPackage(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Skip("no labelled samples (profiler starved)")
	}
	sum, simShare := 0.0, 0.0
	for k, v := range shares {
		sum += v
		if k != "runtime" && k != "other" {
			simShare += v
		}
	}
	if math.Abs(sum-1) > 1e-9 || simShare == 0 {
		t.Fatalf("shares %v over %d samples: sum %v, simulator share %v", shares, n, sum, simShare)
	}
}
