// Command perfbench is the repository's benchmark. One command runs one of
// three closed-loop workloads against the program's public entry points,
// checks every output, and prints each metric by name and unit. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// Workloads (README.md gives sizes and the reason for each):
//
//	sim-queries  Q1-Q13 on the four Table 1 systems (Figures 18-21) at ScaleMedium
//	serve-mixed  2-shard fsync=always server, 2 TCP sessions, point/scan/write mix
//	serve-timed  1-shard server, 1 TCP session, the read-only SQL suite with timing
//
// With -trace 0 the run measures its workload with tracing off and reports
// the end-to-end metrics. With -trace 1 it runs the per-layer ladder
// (ladder.go): every section traced, every per-layer metric reported, the
// spans written once at the end as a Chrome trace.
//
// Run it through run.sh from the repository root, which builds it first:
//
//	bash perfbench/run.sh --workload sim-queries --seed 42 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"rcnvm/internal/experiments"
)

// sizes fixes how much work one run does. The benchmark uses fullSizes;
// the tests shrink everything so a whole run takes a second or two.
type sizes struct {
	simScale     experiments.Scale
	simQueries   int           // Table 2 queries per system (0 = all thirteen)
	simMinSweeps int           // measured sweeps even when -seconds runs out first
	mixedRows    int           // preloaded rows of serve-mixed's table
	setups       int           // fewest set-ups per run; setup_s is their median
	setupBudget  time.Duration // set-ups repeat until they have taken this long
}

func fullSizes() sizes {
	return sizes{
		simScale:     experiments.ScaleMedium,
		simMinSweeps: 2,
		mixedRows:    16384,
		setups:       9,
		setupBudget:  2 * time.Second,
	}
}

// bench is one invocation: the workload seed, the measuring time, the
// sizes, where the human-readable report goes, and where scratch files
// (WAL directories, the Chrome trace) live.
type bench struct {
	seed    int64
	dur     time.Duration
	sz      sizes
	log     io.Writer
	scratch string
}

func (b *bench) say(format string, args ...any) {
	fmt.Fprintf(b.log, format+"\n", args...)
}

// outcome is the final JSON line.
type outcome struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workloads maps each workload name to its untraced run.
var workloads = map[string]func(*bench) (*outcome, error){
	"sim-queries": runSimQueries,
	"serve-mixed": runServeMixed,
	"serve-timed": runServeTimed,
}

// run executes one invocation and checks that it reports exactly the
// metrics BENCHMARK.json declares for its mode.
func run(b *bench, name string, traced bool) (*outcome, error) {
	fn, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (sim-queries | serve-mixed | serve-timed)", name)
	}
	if err := os.MkdirAll(b.scratch, 0o755); err != nil {
		return nil, err
	}
	var out *outcome
	var err error
	if traced {
		out, err = runLadder(b, name)
	} else {
		out, err = fn(b)
	}
	if err != nil {
		return nil, err
	}
	want := endToEnd
	if traced {
		want = perLayer
	}
	if err := checkNames(out.Metrics, want); err != nil {
		return nil, err
	}
	out.Correct = out.Failed == 0
	return out, nil
}

func main() {
	name := flag.String("workload", "", "sim-queries | serve-mixed | serve-timed")
	seed := flag.Int64("seed", defaultSeed, "workload seed (inputs are a pure function of it)")
	seconds := flag.Int("seconds", 30, "measuring time per run")
	traceMode := flag.Int("trace", 0, "0 = end-to-end metrics, tracing off; 1 = traced per-layer ladder")
	updateGolden := flag.Bool("update-golden", false, "rewrite testdata/ goldens from the current code (run from perfbench/)")
	flag.Parse()

	if *updateGolden {
		if err := writeGoldens(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if *traceMode != 0 && *traceMode != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	b := &bench{
		seed:    *seed,
		dur:     time.Duration(*seconds) * time.Second,
		sz:      fullSizes(),
		log:     os.Stdout,
		scratch: filepath.Join(".bench_build", "perfbench"),
	}
	out, err := run(b, *name, *traceMode == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
