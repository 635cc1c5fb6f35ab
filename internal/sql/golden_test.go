package sql

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"rcnvm/internal/shard"
)

// The read golden: a seeded suite of SELECT, JOIN and EXPLAIN [ANALYZE]
// statements over a fixed schema (a WIDE column, tombstoned rows). Each
// line of testdata/select_golden.txt holds the statement, whether it
// failed, a hash of its formatted result or error text, its memory-op
// count and a hash of its recorded access stream. It was recorded on one
// shard by a single-database executor separate from the partial-and-merge
// path, and is the reference that path is held to at every cluster size.

const goldenPath = "testdata/select_golden.txt"

// goldenSetup builds the schema: ga (partition column k, a wide w, a
// low-cardinality c) and gb (join key x), both with deleted rows.
func goldenSetup() []string {
	var a, b []string
	for i := 0; i < 120; i++ {
		a = append(a, fmt.Sprintf("(%d, %d, %d, %d, %d, %d)",
			(i*37)%211, (i*13)%10, (i*29+5)%100, i, i*3, (i*7)%5))
	}
	for i := 0; i < 70; i++ {
		b = append(b, fmt.Sprintf("(%d, %d, %d)", (i*41)%173, (i*11)%12, (i*17+3)%100))
	}
	return []string{
		"CREATE TABLE ga (k, a, b, w WIDE 2, c) CAPACITY 512",
		"CREATE TABLE gb (k, x, y) CAPACITY 512",
		"INSERT INTO ga VALUES " + strings.Join(a[:60], ", "),
		"INSERT INTO gb VALUES " + strings.Join(b, ", "),
		"INSERT INTO ga VALUES " + strings.Join(a[60:], ", "),
		"DELETE FROM ga WHERE b < 12",
		"DELETE FROM gb WHERE y >= 90",
		"DELETE FROM ga WHERE k = 37",
	}
}

// goldenGen draws the suite's statements from a fixed seed.
type goldenGen struct{ r *rand.Rand }

var goldenNarrow = map[string][]string{"ga": {"k", "a", "b", "c"}, "gb": {"k", "x", "y"}}

// col picks a column of table: occasionally the wide w (ga only) or a
// column that does not exist.
func (g goldenGen) col(table string) string {
	switch p := g.r.Intn(100); {
	case p < 4:
		return "nope"
	case p < 12 && table == "ga":
		return "w"
	}
	cols := goldenNarrow[table]
	return cols[g.r.Intn(len(cols))]
}

func (g goldenGen) table() string {
	if g.r.Intn(3) == 0 {
		return "gb"
	}
	return "ga"
}

func (g goldenGen) where(table string) string {
	n := g.r.Intn(3)
	var conds []string
	for i := 0; i < n; i++ {
		col := g.col(table)
		if g.r.Intn(5) == 0 {
			col = "k" // point-routable on N>1 when the op is '='
		}
		ops := []string{"=", "!=", "<", "<=", ">", ">="}
		op := ops[g.r.Intn(len(ops))]
		v := g.r.Intn(220)
		switch {
		case g.r.Intn(12) == 0:
			v = 1000001 // matches nothing
		case col != "k":
			v %= 105
			if col == "a" || col == "c" || col == "x" {
				v %= 12
			}
		}
		conds = append(conds, fmt.Sprintf("%s %s %d", col, op, v))
	}
	if n == 0 {
		return ""
	}
	return " WHERE " + strings.Join(conds, " AND ")
}

func (g goldenGen) orderLimit(table string) string {
	var s string
	if g.r.Intn(3) == 0 {
		s += " ORDER BY " + g.col(table)
		if g.r.Intn(2) == 0 {
			s += " DESC"
		}
	}
	if g.r.Intn(3) == 0 {
		s += fmt.Sprintf(" LIMIT %d", 1+g.r.Intn(30))
	}
	return s
}

func (g goldenGen) plain() string {
	t := g.table()
	proj := "*"
	if g.r.Intn(4) != 0 {
		n := 1 + g.r.Intn(3)
		cols := make([]string, n)
		for i := range cols {
			cols[i] = g.col(t)
		}
		proj = strings.Join(cols, ", ")
	}
	return "SELECT " + proj + " FROM " + t + g.where(t) + g.orderLimit(t)
}

func (g goldenGen) aggItem(t string) string {
	switch g.r.Intn(11) {
	case 0, 1:
		return "COUNT(*)"
	case 2, 3:
		return "SUM(" + g.col(t) + ")"
	case 4, 5:
		return "AVG(" + g.col(t) + ")"
	case 6, 7:
		return "MIN(" + g.col(t) + ")"
	case 8, 9:
		return "MAX(" + g.col(t) + ")"
	default:
		return g.col(t) // mixing a plain column with aggregates fails
	}
}

func (g goldenGen) aggregate() string {
	t := g.table()
	n := 1 + g.r.Intn(3)
	items := make([]string, n)
	for i := range items {
		items[i] = g.aggItem(t)
	}
	if !strings.Contains(items[0], "(") {
		items[0] = "COUNT(*)"
	}
	s := "SELECT " + strings.Join(items, ", ") + " FROM " + t + g.where(t)
	if g.r.Intn(8) == 0 {
		s += " ORDER BY " + g.col(t)
	}
	return s
}

func (g goldenGen) groupBy() string {
	t := g.table()
	key := "c"
	if t == "gb" {
		key = "x"
	}
	if g.r.Intn(8) == 0 {
		key = g.col(t)
	}
	sel := key
	if g.r.Intn(10) == 0 {
		sel = g.col(t) // key mismatch
	}
	aggs := []string{"SUM", "AVG", "COUNT", "MIN"}
	agg := aggs[g.r.Intn(len(aggs))]
	item := agg + "(" + g.col(t) + ")"
	if agg == "COUNT" {
		item = "COUNT(*)"
	}
	s := "SELECT " + sel + ", " + item + " FROM " + t + g.where(t) + " GROUP BY " + key
	if g.r.Intn(3) == 0 {
		order := key
		if g.r.Intn(5) == 0 {
			order = g.col(t)
		}
		s += " ORDER BY " + order
		if g.r.Intn(2) == 0 {
			s += " DESC"
		}
	}
	if g.r.Intn(3) == 0 {
		s += fmt.Sprintf(" LIMIT %d", 1+g.r.Intn(6))
	}
	return s
}

func (g goldenGen) join() string {
	left, right := "a", "x"
	if g.r.Intn(6) == 0 {
		left = g.col("ga")
	}
	if g.r.Intn(8) == 0 {
		right = g.col("gb")
	}
	n := 1 + g.r.Intn(3)
	items := make([]string, n)
	for i := range items {
		t := g.table()
		items[i] = t + "." + g.col(t)
		if g.r.Intn(25) == 0 {
			items[i] = "gc.k" // neither side of the join
		}
	}
	return "SELECT " + strings.Join(items, ", ") + " FROM ga JOIN gb ON ga." + left + " = gb." + right
}

// read draws one non-EXPLAIN read statement.
func (g goldenGen) read() string {
	switch p := g.r.Intn(100); {
	case p < 40:
		return g.plain()
	case p < 68:
		return g.aggregate()
	case p < 86:
		return g.groupBy()
	case p < 98:
		return g.join()
	default:
		return "SELECT * FROM missing" + g.where("ga")
	}
}

// goldenStatements is the suite: mostly reads, some plain EXPLAINs (of
// reads and of mutations, which describe without executing) and a few
// EXPLAIN ANALYZEs of reads.
func goldenStatements() []string {
	g := goldenGen{rand.New(rand.NewSource(13))}
	out := make([]string, 0, 1200)
	for len(out) < 1200 {
		switch p := g.r.Intn(100); {
		case p < 88:
			out = append(out, g.read())
		case p < 92:
			out = append(out, "EXPLAIN "+g.read())
		case p < 95:
			t := g.table()
			out = append(out, "EXPLAIN UPDATE "+t+" SET "+g.col(t)+" = 1"+g.where(t))
		default:
			out = append(out, "EXPLAIN ANALYZE "+g.read())
		}
	}
	return out
}

// goldenCluster is an n-shard cluster loaded with goldenSetup.
func goldenCluster(t *testing.T, n int) *shard.Cluster {
	t.Helper()
	c := openCluster(t, n)
	for _, src := range goldenSetup() {
		if _, err := ExecSharded(c, src); err != nil {
			t.Fatalf("%s: %v", src, err)
		}
	}
	return c
}

// goldenEntry is one golden line past the statement text.
type goldenEntry struct {
	failed bool
	result uint64 // FNV-64a of Format() or of the error text
	memOps int
	stream uint64 // FNV-64a of the recorded access stream
}

// outcome renders the status and result hash: what N>1 must reproduce.
func (e goldenEntry) outcome() string {
	status := "ok"
	if e.failed {
		status = "err"
	}
	return fmt.Sprintf("%s\t%016x", status, e.result)
}

func (e goldenEntry) String() string {
	return fmt.Sprintf("%s\t%d\t%016x", e.outcome(), e.memOps, e.stream)
}

// goldenRun executes src on c, tracing it unless it is an EXPLAIN (which
// times itself and rejects tracing).
func goldenRun(c *shard.Cluster, src string) goldenEntry {
	res, streams, err := Exec(c, src, Opts{Trace: !strings.HasPrefix(src, "EXPLAIN")})
	h := fnv.New64a()
	var e goldenEntry
	if err != nil {
		e.failed = true
		h.Write([]byte(err.Error()))
	} else {
		h.Write([]byte(res.Format()))
	}
	e.result = h.Sum64()
	s := fnv.New64a()
	for _, st := range streams {
		e.memOps += st.MemOps()
		for _, op := range st {
			fmt.Fprintln(s, op)
		}
	}
	e.stream = s.Sum64()
	return e
}

func readGolden(t *testing.T) (stmts, entries []string) {
	t.Helper()
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		stmt, entry, ok := strings.Cut(sc.Text(), "\t")
		if !ok {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		stmts, entries = append(stmts, stmt), append(entries, entry)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return stmts, entries
}

// TestSelectGolden: on 1 shard every statement reproduces its golden
// result or error, memory-op count and access stream; on 2 and 3 shards
// every statement reproduces its golden result or error. EXPLAIN text
// names the shard count, so on N>1 an EXPLAIN is held only to failing
// exactly when the golden failed, and a successful EXPLAIN ANALYZE is
// not re-run.
func TestSelectGolden(t *testing.T) {
	stmts, entries := readGolden(t)
	if !slices.Equal(goldenStatements(), stmts) {
		t.Fatalf("the generator no longer yields the golden's %d statements", len(stmts))
	}
	for _, n := range []int{1, 2, 3} {
		c := goldenCluster(t, n)
		bad := 0
		for i, src := range stmts {
			want := entries[i]
			explain := strings.HasPrefix(src, "EXPLAIN")
			if n > 1 && strings.HasPrefix(src, "EXPLAIN ANALYZE") && strings.HasPrefix(want, "ok") {
				continue
			}
			got := goldenRun(c, src)
			var ok bool
			switch {
			case n == 1:
				ok = got.String() == want
			case explain && !got.failed:
				ok = strings.HasPrefix(want, "ok\t")
			default:
				ok = strings.HasPrefix(want, got.outcome()+"\t")
			}
			if !ok {
				bad++
				if bad <= 10 {
					t.Errorf("%d shards, statement %d %q:\n got  %s\n want %s", n, i, src, got, want)
				}
			}
		}
		if bad > 10 {
			t.Errorf("%d shards: %d statements diverge from the golden", n, bad)
		}
	}
}
