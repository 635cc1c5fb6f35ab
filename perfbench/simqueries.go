package main

import (
	"context"
	"fmt"
	"maps"
	"runtime"
	"runtime/pprof"
	"time"

	"rcnvm/internal/config"
	"rcnvm/internal/experiments"
	"rcnvm/internal/obs"
	"rcnvm/internal/par"
	"rcnvm/internal/sim"
	"rcnvm/internal/trace"
	"rcnvm/internal/workload"
)

// defaultSeed is workload.DefaultParams().Seed: at this seed and
// ScaleMedium the sweep reproduces experiments.QueryBench exactly. Its
// rendered figures must equal testdata/sim_queries_seed42.txt and every
// cell's time and counters testdata/sim_queries_seed42_cells.json.
const defaultSeed = 42

// simWorkers is the sweep's worker count: one per CPU of the 2-CPU host
// the benchmark was sized on, fixed so that runs compare across hosts.
const simWorkers = 2

// Span lanes and categories of the benchmark's own spans.
const (
	procSim    = "bench:sim"
	procClient = "bench:client"
	catBench   = "bench"
)

// simSweep is the Figures 18-21 sweep of experiments.QueryBench, with the
// workload seed taken from the command line and each step of a cell
// called, timed and (when traced) spanned here: NewEnv, Spec.Build and
// Streams build the trace; sim.New and System.Run simulate it.
type simSweep struct {
	systems []config.System
	specs   []workload.Spec
	params  workload.Params
	golden  *sweepAnswer // nil = compare with the run's first sweep
}

func newSimSweep(seed int64, sz sizes) simSweep {
	p := experiments.ParamsFor(sz.simScale)
	p.Seed = seed
	specs := workload.Queries()
	if sz.simQueries > 0 {
		specs = specs[:sz.simQueries]
	}
	s := simSweep{systems: config.All(), specs: specs, params: p}
	if sz.simScale == experiments.ScaleMedium && sz.simQueries == 0 && seed == defaultSeed {
		s.golden = &goldenSim
	}
	return s
}

func (s simSweep) cells() int { return len(s.systems) * len(s.specs) }

// cellResult is one (system, query) cell.
type cellResult struct {
	res    sim.Result
	memOps int
	build  time.Duration // NewEnv + Spec.Build + Streams
	run    time.Duration // System.Run
	total  time.Duration
}

// runCell runs cell i, the same steps as workload.Run. A traced cell
// (rec != nil) records a span per step and labels System.Run so the CPU
// profile can be cut to it.
func (s simSweep) runCell(i int, rec *obs.Recorder, lane int64) (cellResult, error) {
	nq := len(s.specs)
	sys, spec := s.systems[i/nq], s.specs[i%nq]
	t0 := time.Now()
	env, err := workload.NewEnv(sys, s.params)
	if err != nil {
		return cellResult{}, fmt.Errorf("%s on %s: %w", spec.ID, sys.Name, err)
	}
	rec.WallSince(procSim, "workload.env", catBench, lane, t0)
	t1 := time.Now()
	if err := spec.Build(env); err != nil {
		return cellResult{}, fmt.Errorf("%s on %s: %w", spec.ID, sys.Name, err)
	}
	rec.WallSince(procSim, "workload.build", catBench, lane, t1)
	t2 := time.Now()
	streams := env.Exec.Streams()
	rec.WallSince(procSim, "workload.streams", catBench, lane, t2)
	t3 := time.Now()
	sm, err := sim.New(sys)
	if err != nil {
		return cellResult{}, fmt.Errorf("%s on %s: %w", spec.ID, sys.Name, err)
	}
	rec.WallSince(procSim, "sim.new", catBench, lane, t3)
	t4 := time.Now()
	var res sim.Result
	if rec != nil {
		pprof.Do(context.Background(), pprof.Labels(profileLabel, profileRun), func(context.Context) {
			res, err = sm.Run(streams)
		})
	} else {
		res, err = sm.Run(streams)
	}
	if err != nil {
		return cellResult{}, fmt.Errorf("%s on %s: %w", spec.ID, sys.Name, err)
	}
	rec.WallSince(procSim, "sim.run", catBench, lane, t4)
	rec.WallSince(procSim, "cell", catBench, lane, t0)
	return cellResult{
		res:    res,
		memOps: memOps(streams),
		build:  t3.Sub(t0),
		run:    time.Since(t4),
		total:  time.Since(t0),
	}, nil
}

func memOps(streams []trace.Stream) int {
	n := 0
	for _, st := range streams {
		n += st.MemOps()
	}
	return n
}

// sweepResult is one whole sweep.
type sweepResult struct {
	cells []cellResult
	wall  time.Duration
}

func (r sweepResult) memOps() int {
	n := 0
	for _, c := range r.cells {
		n += c.memOps
	}
	return n
}

// sweep runs every cell on simWorkers workers. Each running cell holds a
// lane so a traced sweep's spans nest per worker in the Chrome trace.
func (s simSweep) sweep(rec *obs.Recorder) (sweepResult, error) {
	lanes := make(chan int64, simWorkers)
	for i := 1; i <= simWorkers; i++ {
		lanes <- int64(i)
	}
	start := time.Now()
	cells, err := par.Sweep(context.Background(), simWorkers, s.cells(), func(i int) (cellResult, error) {
		lane := <-lanes
		defer func() { lanes <- lane }()
		return s.runCell(i, rec, lane)
	})
	return sweepResult{cells: cells, wall: time.Since(start)}, err
}

// render lays the cells out as experiments.QueryBench's Figures 18-21,
// without their summary notes (those are derived from the same values).
func (s simSweep) render(cells []cellResult) string {
	nq := len(s.specs)
	exec := experiments.TableData{ID: "Figure 18", Title: "SQL benchmark execution time", Unit: "10^6 CPU cycles"}
	acc := experiments.TableData{ID: "Figure 19", Title: "Number of memory accesses", Unit: "10^3 accesses"}
	buf := experiments.TableData{ID: "Figure 20", Title: "Row-/column-buffer miss rate", Unit: "%"}
	coh := experiments.TableData{ID: "Figure 21", Title: "Cache synonym and coherence overhead (RC-NVM)", Unit: "% of execution time"}
	for _, q := range s.specs {
		exec.XLabels = append(exec.XLabels, q.ID)
	}
	acc.XLabels, buf.XLabels, coh.XLabels = exec.XLabels, exec.XLabels, exec.XLabels
	overhead := experiments.Series{Label: "RC-NVM overhead"}
	for si, sys := range s.systems {
		e := experiments.Series{Label: sys.Name}
		a := experiments.Series{Label: sys.Name}
		b := experiments.Series{Label: sys.Name}
		for qi := 0; qi < nq; qi++ {
			r := cells[si*nq+qi].res
			e.Values = append(e.Values, r.MCycles())
			a.Values = append(a.Values, float64(r.MemAccesses())/1e3)
			b.Values = append(b.Values, r.BufferMissRate()*100)
			if sys.Device.Kind == config.RCNVM().Device.Kind {
				overhead.Values = append(overhead.Values, r.OverheadRatio()*100)
			}
		}
		exec.Series = append(exec.Series, e)
		acc.Series = append(acc.Series, a)
		buf.Series = append(buf.Series, b)
	}
	coh.Series = []experiments.Series{overhead}
	return exec.String() + acc.String() + buf.String() + coh.String()
}

// renderQueryBench renders experiments.QueryBench's own output the same
// way; the golden file is recorded from it.
func renderQueryBench(r experiments.QueryResults) string {
	out := ""
	for _, t := range []experiments.TableData{r.Exec, r.Accesses, r.BufMiss, r.Coherence} {
		t.Notes = nil
		out += t.String()
	}
	return out
}

// cellAnswer is one cell's exact simulated outcome.
type cellAnswer struct {
	Cell     string           `json:"cell"` // query/system
	TimePs   int64            `json:"time_ps"`
	Counters map[string]int64 `json:"counters"`
}

func (a cellAnswer) equal(b cellAnswer) bool {
	return a.Cell == b.Cell && a.TimePs == b.TimePs && maps.Equal(a.Counters, b.Counters)
}

// sweepAnswer is what a sweep must reproduce: the rendered Figures 18-21
// and, exactly, every cell's simulated time and counters. The figures are
// rounded to three decimals, so only the exact cells catch a shift of a
// cycle or a single memory access.
type sweepAnswer struct {
	figures string
	cells   []cellAnswer
}

// answer copies a sweep's outcome (the counter maps too, so a later change
// to the sweep cannot change its answer).
func (s simSweep) answer(r sweepResult) sweepAnswer {
	a := sweepAnswer{figures: s.render(r.cells)}
	nq := len(s.specs)
	for i, c := range r.cells {
		a.cells = append(a.cells, cellAnswer{
			Cell:     s.specs[i%nq].ID + "/" + s.systems[i/nq].Name,
			TimePs:   c.res.TimePs,
			Counters: maps.Clone(c.res.Counters),
		})
	}
	return a
}

// checkSweep returns how many cells of a sweep are wrong, comparing with
// the golden when this seed and size have one and with first, the run's
// first sweep, otherwise. A cell is wrong when its time or any counter
// differs; every cell is wrong when the rendered figures differ.
func (s simSweep) checkSweep(r sweepResult, first sweepAnswer) int {
	want := first
	if s.golden != nil {
		want = *s.golden
	}
	got := s.answer(r)
	if got.figures != want.figures || len(got.cells) != len(want.cells) {
		return len(r.cells)
	}
	wrong := 0
	for i := range got.cells {
		if !got.cells[i].equal(want.cells[i]) {
			wrong++
		}
	}
	return wrong
}

// simPreflight builds every system and its table placement once, the
// checks a reproducer makes before a long sweep. It is the workload's
// set-up.
func (s simSweep) preflight() error {
	for _, sys := range s.systems {
		if _, err := workload.NewEnv(sys, s.params); err != nil {
			return fmt.Errorf("placement on %s: %w", sys.Name, err)
		}
		if _, err := sim.New(sys); err != nil {
			return fmt.Errorf("system %s: %w", sys.Name, err)
		}
	}
	return nil
}

// runSimQueries is the sim-queries workload: whole sweeps until the
// measuring time is spent (at least sz.simMinSweeps).
func runSimQueries(b *bench) (*outcome, error) {
	s := newSimSweep(b.seed, b.sz)
	_, setup, err := setupMedian(b.sz.setups, b.sz.setupBudget,
		func(int) (struct{}, error) { return struct{}{}, s.preflight() },
		func(struct{}) error { return nil })
	if err != nil {
		return nil, err
	}
	out := &outcome{Metrics: metrics{}}
	var rates []float64
	var cellMs latencies
	var first sweepAnswer
	start := time.Now()
	for n := 0; n < b.sz.simMinSweeps || time.Since(start) < b.dur; n++ {
		r, err := s.sweep(nil)
		if err != nil {
			return nil, err
		}
		if n == 0 {
			first = s.answer(r)
		}
		out.Attempted += int64(len(r.cells))
		out.Failed += int64(s.checkSweep(r, first))
		rates = append(rates, float64(r.memOps())/r.wall.Seconds())
		for _, c := range r.cells {
			cellMs.add(c.total)
		}
		b.say("sim-queries sweep %d: %d cells, %d memops in %v (%.0f memops/s)",
			n+1, len(r.cells), r.memOps(), r.wall.Round(time.Millisecond), rates[len(rates)-1])
	}
	heap, err := s.peakCellHeapMB()
	if err != nil {
		return nil, err
	}
	m := out.Metrics
	m.set("setup_s", setup)
	m.set("ops_per_s", quantile(rates, 0.5))
	m.set("op_p50_ms", quantile(cellMs, 0.5))
	m.set("op_tail_ms", quantile(cellMs, 0.9))
	m.set("live_heap_mb", heap)
	b.say("sim-queries: %d sweeps, %d cells (op_tail_ms = p90 over %d cells), %d failed; peak live heap of one cell %.1f MB",
		len(rates), len(cellMs), len(cellMs), out.Failed, heap)
	return out, nil
}

// peakCellHeapMB builds each cell of one sweep in turn, one at a time, and
// returns the largest live heap after a collection while that cell's Env,
// streams and System are referenced: what the program holds to simulate
// one cell. It stops where System.Run would start, because Run adds about
// 1 % to the heap (measured on the largest cells) and would make this
// probe as long as a sweep.
func (s simSweep) peakCellHeapMB() (float64, error) {
	nq := len(s.specs)
	peak := 0.0
	for i := 0; i < s.cells(); i++ {
		sys, spec := s.systems[i/nq], s.specs[i%nq]
		env, err := workload.NewEnv(sys, s.params)
		if err != nil {
			return 0, fmt.Errorf("%s on %s: %w", spec.ID, sys.Name, err)
		}
		if err := spec.Build(env); err != nil {
			return 0, fmt.Errorf("%s on %s: %w", spec.ID, sys.Name, err)
		}
		streams := env.Exec.Streams()
		sm, err := sim.New(sys)
		if err != nil {
			return 0, fmt.Errorf("%s on %s: %w", spec.ID, sys.Name, err)
		}
		peak = max(peak, liveHeapMB())
		runtime.KeepAlive(env)
		runtime.KeepAlive(streams)
		runtime.KeepAlive(sm)
	}
	return peak, nil
}
