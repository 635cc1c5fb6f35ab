package server

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rcnvm/internal/stats"
)

// LoadReport summarizes one load-generation run.
type LoadReport struct {
	Clients int `json:"clients"`
	// Batch is the statements-per-request the run used (0/1 = unbatched).
	// With batching, P50/P99 are per-BATCH round-trip latencies.
	Batch    int           `json:"batch,omitempty"`
	Duration time.Duration `json:"duration_ns"`
	Queries  int64         `json:"queries"`
	Errors   int64         `json:"errors"`
	Rejected int64         `json:"rejected"`
	Timed    int64         `json:"timed"`
	QPS      float64       `json:"qps"`
	P50      time.Duration `json:"p50_ns"`
	P99      time.Duration `json:"p99_ns"`
}

func (r *LoadReport) String() string {
	return fmt.Sprintf(
		"loadgen: %d clients, %.2fs: %d queries (%.0f qps), %d rejected, %d errors, p50 %s p99 %s",
		r.Clients, r.Duration.Seconds(), r.Queries, r.QPS,
		r.Rejected, r.Errors, r.P50, r.P99)
}

// LoadSpec configures RunLoad.
type LoadSpec struct {
	// Addr is the server's TCP front-end address.
	Addr string
	// Clients is the number of concurrent sessions.
	Clients int
	// Duration bounds the run.
	Duration time.Duration
	// TimingEvery asks for RC-NVM timing attribution on every n-th
	// query per client (0 = never). Timed queries are exclusive and
	// expensive; a small sprinkle shows the attribution path under load
	// without serializing the whole run. Ignored when Batch > 1 (batch
	// requests do not support timing).
	TimingEvery int
	// Batch groups each client's statement stream into batch requests of
	// this many statements per round trip (0 or 1 = one statement per
	// request, the classic mode).
	Batch int
	// Table is the target table; it must exist with columns
	// (id, grp, val). Setup is the caller's job (see cmd/rcnvm-serve).
	Table string
}

// RunLoad drives a server with Clients concurrent sessions issuing a
// mixed OLTP+OLAP statement stream (point SELECTs, INSERTs, UPDATEs,
// aggregate scans) until Duration elapses. Overload rejections are
// counted, not retried immediately — the report shows how much the
// admission controller sheds.
func RunLoad(spec LoadSpec) (*LoadReport, error) {
	if spec.Clients < 1 {
		spec.Clients = 1
	}
	if spec.Duration <= 0 {
		spec.Duration = time.Second
	}
	if spec.Table == "" {
		spec.Table = "load"
	}

	var queries, errs, rejected, timed atomic.Int64
	lat := stats.NewHistogram()
	deadline := time.Now().Add(spec.Duration)
	start := time.Now()

	var wg sync.WaitGroup
	dialErr := make([]error, spec.Clients)
	for g := 0; g < spec.Clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := Dial(spec.Addr)
			if err != nil {
				dialErr[g] = err
				return
			}
			defer c.Close()
			// Each client owns a disjoint id range so point queries hit.
			base := uint64(g) * 1_000_000
			stmts := []string{
				fmt.Sprintf("INSERT INTO %s VALUES (%%d, %d, 100)", spec.Table, g%8),
				fmt.Sprintf("SELECT val FROM %s WHERE id = %%d", spec.Table),
				fmt.Sprintf("UPDATE %s SET val = 200 WHERE id = %%d", spec.Table),
				fmt.Sprintf("SELECT SUM(val), COUNT(*) FROM %s WHERE grp = %d", spec.Table, g%8),
			}
			var batch []string
			if spec.Batch > 1 {
				batch = make([]string, 0, spec.Batch)
			}
			for i := 0; time.Now().Before(deadline); i++ {
				q := stmts[i%len(stmts)]
				// The INSERT/point statements cycle through this
				// client's own ids.
				id := base + uint64(i/len(stmts))
				if i%len(stmts) != 3 {
					q = fmt.Sprintf(q, id)
				}
				if batch != nil {
					batch = append(batch, q)
					if len(batch) < spec.Batch {
						continue
					}
				}
				t0 := time.Now()
				n, err := 1, error(nil)
				switch {
				case batch != nil:
					var rs []*Response
					rs, err = c.Batch(batch)
					n, batch = len(batch), batch[:0]
					for _, r := range rs {
						if r.Error != nil {
							errs.Add(1)
						}
					}
				case spec.TimingEvery > 0 && i%spec.TimingEvery == spec.TimingEvery-1:
					timed.Add(1)
					_, err = c.QueryTimed(q)
				default:
					_, err = c.Query(q)
				}
				lat.Observe(time.Since(t0).Nanoseconds())
				queries.Add(int64(n))
				switch {
				case err == nil:
				case errors.Is(err, ErrOverloaded):
					rejected.Add(1)
				case errors.Is(err, ErrShuttingDown):
					return
				default:
					errs.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range dialErr {
		if err != nil {
			return nil, err
		}
	}

	elapsed := time.Since(start)
	rep := &LoadReport{
		Clients:  spec.Clients,
		Batch:    spec.Batch,
		Duration: elapsed,
		Queries:  queries.Load(),
		Errors:   errs.Load(),
		Rejected: rejected.Load(),
		Timed:    timed.Load(),
		P50:      time.Duration(lat.Quantile(0.5)),
		P99:      time.Duration(lat.Quantile(0.99)),
	}
	if elapsed > 0 {
		rep.QPS = float64(rep.Queries) / elapsed.Seconds()
	}
	return rep, nil
}
