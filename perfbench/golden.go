package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"

	"rcnvm/internal/config"
	"rcnvm/internal/experiments"
	"rcnvm/internal/workload"
)

// goldenSimQueries is experiments.QueryBench's Figures 18-21 at
// ScaleMedium and the default seed, rendered without notes.
//
//go:embed testdata/sim_queries_seed42.txt
var goldenSimQueries string

// goldenSimCellsJSON holds every cell's exact time and counters from the
// same sweep, one cell per line.
//
//go:embed testdata/sim_queries_seed42_cells.json
var goldenSimCellsJSON []byte

// goldenSim is the whole sim-queries answer at the default seed and
// ScaleMedium.
var goldenSim = func() sweepAnswer {
	a := sweepAnswer{figures: goldenSimQueries}
	if err := json.Unmarshal(goldenSimCellsJSON, &a.cells); err != nil {
		panic("perfbench: sim-queries golden: " + err.Error())
	}
	return a
}()

// goldenServeTimedJSON holds each serve-timed statement's rows and timing.
//
//go:embed testdata/serve_timed.json
var goldenServeTimedJSON []byte

// queryBenchCells runs the cells of experiments.QueryBench the way it
// does, workload.Run for each (system, query) on experiments.Sweep, and
// returns their exact outcomes in its order.
func queryBenchCells(scale experiments.Scale) ([]cellAnswer, error) {
	p := experiments.ParamsFor(scale)
	systems, queries := config.All(), workload.Queries()
	nq := len(queries)
	return experiments.Sweep(context.Background(), simWorkers, len(systems)*nq, func(i int) (cellAnswer, error) {
		sys, q := systems[i/nq], queries[i%nq]
		res, err := workload.Run(sys, q, p)
		if err != nil {
			return cellAnswer{}, fmt.Errorf("%s on %s: %w", q.ID, sys.Name, err)
		}
		return cellAnswer{Cell: q.ID + "/" + sys.Name, TimePs: res.TimePs, Counters: res.Counters}, nil
	})
}

// writeGoldens records the goldens from the current code into testdata/
// (run from the perfbench directory). The sim goldens come from
// experiments.QueryBench and the workload.Run calls it makes, not from
// this benchmark's own sweep, so the sweep is checked against the
// program's reference entry points.
func writeGoldens() error {
	r, err := experiments.QueryBench(experiments.ScaleMedium, simWorkers)
	if err != nil {
		return err
	}
	if err := os.WriteFile("testdata/sim_queries_seed42.txt", []byte(renderQueryBench(r)), 0o644); err != nil {
		return err
	}
	cells, err := queryBenchCells(experiments.ScaleMedium)
	if err != nil {
		return err
	}
	var c strings.Builder
	c.WriteString("[\n")
	for i, cell := range cells {
		raw, err := json.Marshal(cell)
		if err != nil {
			return err
		}
		c.Write(raw)
		if i < len(cells)-1 {
			c.WriteString(",")
		}
		c.WriteString("\n")
	}
	c.WriteString("]\n")
	if err := os.WriteFile("testdata/sim_queries_seed42_cells.json", []byte(c.String()), 0o644); err != nil {
		return err
	}
	env, err := setupTimed()
	if err != nil {
		return err
	}
	defer env.close()
	g := make(map[string]timedAnswer)
	for _, q := range timedStatements() {
		resp, err := env.client.QueryTimed(q.SQL)
		if err != nil {
			return fmt.Errorf("%s: %w", q.ID, err)
		}
		g[q.ID] = answerOf(resp)
	}
	// One statement per line keeps the file diffable.
	ids := make([]string, 0, len(g))
	for id := range g {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var b strings.Builder
	b.WriteString("{\n")
	for i, id := range ids {
		raw, err := json.Marshal(g[id])
		if err != nil {
			return err
		}
		fmt.Fprintf(&b, "%q: %s", id, raw)
		if i < len(ids)-1 {
			b.WriteString(",")
		}
		b.WriteString("\n")
	}
	b.WriteString("}\n")
	return os.WriteFile("testdata/serve_timed.json", []byte(b.String()), 0o644)
}
