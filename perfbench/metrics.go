package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"
)

// metricSpec is one metric as BENCHMARK.json declares it.
type metricSpec struct {
	Name, Unit, Better string
}

// endToEnd are the metrics an untraced run reports, on every workload.
// What an "op" is depends on the workload (README.md): one Q x system
// simulation cell on sim-queries, one statement on serve-mixed and
// serve-timed. ops_per_s on sim-queries counts trace memory ops replayed,
// not cells. op_tail_ms is the highest percentile a run's sample count
// supports with at least ten samples beyond it: p99 on the serve
// workloads, p90 on sim-queries.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"live_heap_mb", "MB", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"op_p50_ms", "ms", "lower"},
	{"op_tail_ms", "ms", "lower"},
}

// perLayer are the metrics the traced ladder reports. README.md maps each
// one to the end-to-end metric and workload it should move.
var perLayer = []metricSpec{
	// sim-queries section: spans around the sweep's public calls, a CPU
	// profile over System.Run, and the exact simulator counters.
	{"workload.build_s", "s", "lower"},
	{"sim.run_s", "s", "lower"},
	{"sim.memops", "count", "lower"},
	{"sim.ns_per_memop", "ns", "lower"},
	{"sim.profile_samples", "count", "higher"},
	{"sim.self_frac.event", "frac", "lower"},
	{"sim.self_frac.cache", "frac", "lower"},
	{"sim.self_frac.memctrl", "frac", "lower"},
	{"sim.self_frac.device", "frac", "lower"},
	{"sim.self_frac.cpu", "frac", "lower"},
	{"sim.self_frac.stats", "frac", "lower"},
	{"sim.self_frac.runtime", "frac", "lower"},
	{"sim.self_frac.other", "frac", "lower"},
	{"par.idle_frac", "frac", "lower"},
	{"core.ops", "count", "lower"},
	{"cache.llc_accesses", "count", "lower"},
	{"cache.llc_misses", "count", "lower"},
	{"cache.llc_miss_ratio", "ratio", "lower"},
	{"mem.reads", "count", "lower"},
	{"mem.writes", "count", "lower"},
	{"mem.writebacks", "count", "lower"},
	{"mem.buffer_accesses", "count", "lower"},
	{"mem.buffer_misses", "count", "lower"},
	{"mem.buffer_miss_rate", "ratio", "lower"},
	{"mem.orientation_switches", "count", "lower"},
	// serve-timed section.
	{"sim.new_ms", "ms", "lower"},
	{"sim.new_alloc_mb", "MB", "lower"},
	{"server.timed_stmts", "count", "higher"},
	{"server.replay_dual_p50_ms", "ms", "lower"},
	{"server.replay_row_p50_ms", "ms", "lower"},
	{"sim.replay_ns_per_memop", "ns", "lower"},
	{"trace.memops_per_stmt", "count", "lower"},
	{"runtime.alloc_mb_per_stmt", "MB", "lower"},
	// serve-mixed section.
	{"point_p50_ms", "ms", "lower"},
	{"scan_p50_ms", "ms", "lower"},
	{"write_p50_ms", "ms", "lower"},
	{"server.traced_stmts", "count", "higher"},
	{"engine.ns_per_row", "ns", "lower"},
	{"funcmem.ns_per_word", "ns", "lower"},
	{"funcmem.words_read_per_stmt", "count", "lower"},
	{"engine.rows_returned", "count", "higher"},
	{"engine.rows_examined_per_row_returned", "ratio", "lower"},
	{"sql.parse_p50_us", "us", "lower"},
	{"sql.plancache_lookups", "count", "higher"},
	{"sql.plancache_hit_ratio", "ratio", "higher"},
	{"sql.exec_point_p50_ms", "ms", "lower"},
	{"sql.exec_scan_p50_ms", "ms", "lower"},
	{"sql.exec_write_p50_ms", "ms", "lower"},
	{"sql.lock_wait_p50_ms", "ms", "lower"},
	{"sql.lock_wait_p99_ms", "ms", "lower"},
	{"durable.wal_wait_p50_ms", "ms", "lower"},
	{"durable.appends", "count", "higher"},
	{"durable.fsyncs_per_append", "ratio", "lower"},
	{"durable.wal_bytes_per_write", "B", "lower"},
	{"shard.read_skew", "ratio", "lower"},
	{"server.wait_p50_ms", "ms", "lower"},
	{"server.rejected", "count", "lower"},
	// Every section: the traced run's slowdown over its untraced twin.
	{"trace.overhead_frac.sim-queries", "frac", "lower"},
	{"trace.overhead_frac.serve-mixed", "frac", "lower"},
	{"trace.overhead_frac.serve-timed", "frac", "lower"},
}

var unitOf = func() map[string]string {
	m := make(map[string]string)
	for _, list := range [][]metricSpec{endToEnd, perLayer} {
		for _, s := range list {
			m[s.Name] = s.Unit
		}
	}
	return m
}()

// metrics collects one run's reported values.
type metrics map[string]metric

// set records a declared metric; an undeclared name is a bug in the
// benchmark.
func (m metrics) set(name string, v float64) {
	unit, ok := unitOf[name]
	if !ok {
		panic("perfbench: undeclared metric " + name)
	}
	m[name] = metric{Value: v, Unit: unit}
}

// checkNames reports a run whose metrics differ from the declared list.
func checkNames(got map[string]metric, want []metricSpec) error {
	if len(got) != len(want) {
		return fmt.Errorf("reported %d metrics, declared %d", len(got), len(want))
	}
	for _, s := range want {
		if _, ok := got[s.Name]; !ok {
			return fmt.Errorf("metric %s not reported", s.Name)
		}
	}
	return nil
}

// quantile returns the q-quantile of xs, interpolating linearly between
// the two nearest ranks (0 for no samples). Interpolation keeps a
// percentile from jumping between two cells of very different size when
// noise swaps their order, which matters for the heterogeneous
// sim-queries cells.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// liveHeapMB is the live heap after a forced collection.
func liveHeapMB() float64 {
	runtime.GC()
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return float64(st.HeapAlloc) / (1 << 20)
}

// totalAllocMB is the cumulative bytes allocated so far, in MiB.
func totalAllocMB() float64 {
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return float64(st.TotalAlloc) / (1 << 20)
}

// latencies gathers one operation class's samples in milliseconds.
type latencies []float64

func (l *latencies) add(d time.Duration) { *l = append(*l, ms(d)) }

// serveWindows is how many equal, back-to-back windows a serve workload's
// measuring time is cut into. Each of its timing metrics is the median of
// that metric over the windows, so a host stall confined to one window
// does not move it. At 30 s a window has over 1,000 statements, so its
// p99 has at least ten samples beyond it.
const serveWindows = 3

// window is one measured window of a serve workload.
type window struct {
	attempted int
	elapsed   time.Duration
	lat       latencies // statements that succeeded
}

// setServeTimings sets ops_per_s, op_p50_ms and op_tail_ms (p99) to their
// medians over the windows.
func setServeTimings(m metrics, ws []window) {
	var rate, p50, p99 []float64
	for _, w := range ws {
		rate = append(rate, float64(w.attempted)/w.elapsed.Seconds())
		p50 = append(p50, quantile(w.lat, 0.5))
		p99 = append(p99, quantile(w.lat, 0.99))
	}
	m.set("ops_per_s", quantile(rate, 0.5))
	m.set("op_p50_ms", quantile(p50, 0.5))
	m.set("op_tail_ms", quantile(p99, 0.5))
}

// setupMedian runs setup at least n times and until the set-ups have
// taken budget in total, keeps the last result and returns the median
// duration in seconds. Every earlier result is torn down first. Each
// set-up starts from a collected heap, so a collection left over from the
// previous one does not land in its time. The budget makes a short set-up
// repeat often enough that its median stays put from run to run.
func setupMedian[T any](n int, budget time.Duration, setup func(i int) (T, error), teardown func(T) error) (T, float64, error) {
	var keep T
	var secs []float64
	var spent time.Duration
	for i := 0; ; i++ {
		runtime.GC()
		t0 := time.Now()
		v, err := setup(i)
		if err != nil {
			return keep, 0, fmt.Errorf("set-up %d: %w", i, err)
		}
		d := time.Since(t0)
		secs = append(secs, d.Seconds())
		spent += d
		if i+1 >= n && spent >= budget {
			keep = v
			break
		}
		if err := teardown(v); err != nil {
			return keep, 0, fmt.Errorf("set-up %d teardown: %w", i, err)
		}
	}
	runtime.GC() // the measured phase starts from a collected heap too
	return keep, quantile(secs, 0.5), nil
}
