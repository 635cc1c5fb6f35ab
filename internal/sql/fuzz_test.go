package sql

import (
	"testing"

	"rcnvm/internal/workload"
)

// FuzzParse checks the parser at the server's untrusted-input boundary.
// Each input is a pair parsed in order through one fresh plan cache, so
// the second statement takes the cache's miss, exact-hit or literal-
// rebinding path depending on its shape. For both: PlanCache.Parse
// accepts exactly what Parse accepts, the two print the same
// StatementText, and that text re-parses to itself.
func FuzzParse(f *testing.F) {
	// SQLSetup's statements at one row per table: the same shapes as its
	// 24-row INSERT batches, short enough that minimizing an interesting
	// mutation of one does not eat the run.
	seeds := workload.SQLSetupRows(1, 1, 1)
	for _, q := range workload.SQLQueries() {
		seeds = append(seeds, q.SQL)
	}
	for _, q := range workload.SQLErrorQueries() {
		seeds = append(seeds, q.SQL)
	}
	for _, s := range seeds {
		f.Add(s, s)
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		pc := NewPlanCache(0)
		for _, src := range []string{a, b} {
			want, werr := Parse(src)
			got, gerr := pc.Parse(src)
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("%q: Parse error %v, PlanCache.Parse error %v", src, werr, gerr)
			}
			if werr != nil {
				continue
			}
			text := StatementText(want)
			if g := StatementText(got); g != text {
				t.Fatalf("%q: Parse prints %q, PlanCache.Parse prints %q", src, text, g)
			}
			back, err := Parse(text)
			if err != nil {
				t.Fatalf("%q prints %q, which does not parse: %v", src, text, err)
			}
			if g := StatementText(back); g != text {
				t.Fatalf("%q prints %q, which re-prints as %q", src, text, g)
			}
		}
	})
}
