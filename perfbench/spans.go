package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"rcnvm/internal/obs"
)

// serverSpanFamily maps each wall-clock span the server emits on a
// statement's "query" lane to the per-layer metric family it feeds.
var serverSpanFamily = map[string]string{
	"parse":       "sql.parse",
	"lock_wait":   "sql.lock_wait",
	"exec":        "sql.exec",
	"wal_wait":    "durable.wal_wait",
	"replay_dual": "server.replay_dual",
	"replay_row":  "server.replay_row",
}

// stmtTrace is one traced statement's server-side spans.
type stmtTrace struct {
	// spans are the query-lane spans, Start in ns from the server's
	// per-statement epoch.
	spans []obs.Span
	// simSpans counts the per-memory-request spans of timing replays;
	// they are counted, not kept, to bound the benchmark's memory.
	simSpans int
}

// parseServerTrace decodes a response's Chrome trace document.
func parseServerTrace(doc []byte) (stmtTrace, error) {
	evs, err := obs.ParseChromeTrace(doc)
	if err != nil {
		return stmtTrace{}, err
	}
	queryPID := -1
	for _, e := range evs {
		if e.Ph != "M" || e.Name != "process_name" {
			continue
		}
		if args, ok := e.Args.(map[string]any); ok && args["name"] == obs.ProcQuery {
			queryPID = e.PID
		}
	}
	var st stmtTrace
	for _, e := range evs {
		if e.Ph != "X" {
			continue
		}
		if e.PID != queryPID {
			st.simSpans++
			continue
		}
		st.spans = append(st.spans, obs.Span{
			Proc:  obs.ProcQuery,
			Name:  e.Name,
			Cat:   e.Cat,
			Start: int64(e.TS * 1e3),
			Dur:   int64(e.Dur * 1e3),
		})
	}
	return st, nil
}

// busy is the summed duration of the statement's server spans.
func (st stmtTrace) busy() time.Duration {
	var d int64
	for _, s := range st.spans {
		d += s.Dur
	}
	return time.Duration(d)
}

// layerSamples accumulates traced statements' span durations by metric
// family (and, for exec, by statement class). Safe for concurrent use.
type layerSamples struct {
	mu   sync.Mutex
	fam  map[string]latencies
	wait latencies // round trip minus the server's spans
	sim  int       // replay spans seen
}

func newLayerSamples() *layerSamples {
	return &layerSamples{fam: make(map[string]latencies)}
}

func (l *layerSamples) add(class string, rtt time.Duration, st stmtTrace) {
	byName := make(map[string]time.Duration)
	for _, s := range st.spans {
		byName[s.Name] += time.Duration(s.Dur)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for name, d := range byName {
		fam, ok := serverSpanFamily[name]
		if !ok {
			continue
		}
		l.fam[fam] = append(l.fam[fam], ms(d))
		if fam == "sql.exec" && class != "" {
			l.fam[fam+"."+class] = append(l.fam[fam+"."+class], ms(d))
		}
	}
	l.wait = append(l.wait, ms(rtt-st.busy()))
	l.sim += st.simSpans
}

// p returns the q-quantile of a family in milliseconds.
func (l *layerSamples) p(fam string, q float64) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return quantile(l.fam[fam], q)
}

// recordStmt puts one traced statement on the benchmark's timeline: the
// client round trip on the session's lane with the server's spans nested
// inside it. The two sides share no clock, so the server's spans are
// centred in the round trip.
func recordStmt(rec *obs.Recorder, lane int64, name string, t0 time.Time, rtt time.Duration, st stmtTrace) {
	base := t0.Sub(rec.Epoch()).Nanoseconds()
	rec.Add(obs.Span{Proc: procClient, Name: name, Cat: catBench, TID: lane, Start: base, Dur: rtt.Nanoseconds()})
	if len(st.spans) == 0 {
		return
	}
	first, last := st.spans[0].Start, st.spans[0].Start+st.spans[0].Dur
	for _, s := range st.spans {
		first = min(first, s.Start)
		last = max(last, s.Start+s.Dur)
	}
	off := base + (rtt.Nanoseconds()-(last-first))/2 - first
	for _, s := range st.spans {
		s.Proc, s.TID, s.Start = procClient, lane, s.Start+off
		rec.Add(s)
	}
}

// selfRow is one span name's totals over a trace.
type selfRow struct {
	name        string
	count       int
	total, self time.Duration
}

// selfTimes derives each span name's self time: a span's duration minus
// the part its direct children cover. Spans nest by containment within a
// lane (Proc, TID).
func selfTimes(spans []obs.Span) []selfRow {
	type lane struct {
		proc string
		tid  int64
	}
	lanes := make(map[lane][]obs.Span)
	for _, s := range spans {
		if !s.Sim {
			k := lane{s.Proc, s.TID}
			lanes[k] = append(lanes[k], s)
		}
	}
	rows := make(map[string]*selfRow)
	for _, ls := range lanes {
		sort.SliceStable(ls, func(i, j int) bool {
			if ls[i].Start != ls[j].Start {
				return ls[i].Start < ls[j].Start
			}
			return ls[i].Dur > ls[j].Dur
		})
		self := make([]int64, len(ls))
		var stack []int
		for i, s := range ls {
			self[i] = s.Dur
			for len(stack) > 0 {
				top := ls[stack[len(stack)-1]]
				if s.Start < top.Start+top.Dur {
					break
				}
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 {
				p := stack[len(stack)-1]
				end := min(s.Start+s.Dur, ls[p].Start+ls[p].Dur)
				self[p] -= end - s.Start
			}
			stack = append(stack, i)
		}
		for i, s := range ls {
			r := rows[s.Name]
			if r == nil {
				r = &selfRow{name: s.Name}
				rows[s.Name] = r
			}
			r.count++
			r.total += time.Duration(s.Dur)
			r.self += time.Duration(self[i])
		}
	}
	out := make([]selfRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].self > out[j].self })
	return out
}

// writeSelfTable prints the self-time table.
func writeSelfTable(w io.Writer, rows []selfRow) {
	fmt.Fprintf(w, "%-22s %8s %12s %12s %12s\n", "span", "count", "total_ms", "self_ms", "self_mean_us")
	for _, r := range rows {
		fmt.Fprintf(w, "%-22s %8d %12.1f %12.1f %12.1f\n", r.name, r.count, ms(r.total), ms(r.self),
			float64(r.self.Microseconds())/float64(r.count))
	}
}

// writeChromeTrace writes the kept spans once, as one Chrome trace
// document loadable in Perfetto.
func writeChromeTrace(path string, spans []obs.Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
