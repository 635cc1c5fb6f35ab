package sql

import (
	"strings"
	"testing"

	"rcnvm/internal/shard"
)

// TestLogCommitNilPathAllocatesNothing pins the volatile-server
// contract: with no commit log installed (-data-dir unset), the
// durability hooks on the write path cost one nil check and zero
// allocations.
func TestLogCommitNilPathAllocatesNothing(t *testing.T) {
	db := newDB(t)
	allocs := testing.AllocsPerRun(200, func() {
		if wait := logShard(db, "UPDATE kv SET val = 1 WHERE k = 2", false, false); wait != nil {
			t.Fatal("nil commit log produced a wait func")
		}
	})
	if allocs != 0 {
		t.Fatalf("volatile logShard path allocates %.1f/op, want 0", allocs)
	}
}

// recordLog is a commit log that keeps the text of every record.
type recordLog struct{ recs []string }

func (l *recordLog) LogStatement(src string, _, _ bool) (func() error, error) {
	l.recs = append(l.recs, src)
	return nil, nil
}

func (l *recordLog) LogInsert(table string, _ [][]uint64, _ []int) (func() error, error) {
	l.recs = append(l.recs, "insert into "+table)
	return nil, nil
}

// TestMutatesRecursesIntoExplainAnalyze: a statement reaches the WAL
// exactly when it changes state recovery must reproduce. EXPLAIN ANALYZE
// executes its inner statement, so it is logged exactly when the inner
// statement mutates, under the inner statement's text.
func TestMutatesRecursesIntoExplainAnalyze(t *testing.T) {
	cases := []struct{ src, want string }{
		{"SELECT COUNT(*) FROM kv", ""},
		{"EXPLAIN SELECT * FROM kv", ""},
		{"EXPLAIN ANALYZE SELECT * FROM kv", ""},
		{"INSERT INTO kv VALUES (1, 2)", "INSERT INTO kv VALUES (1, 2)"},
		{"EXPLAIN INSERT INTO kv VALUES (1, 2)", ""}, // plan only, never executed
		{"EXPLAIN ANALYZE INSERT INTO kv VALUES (1, 2)", "INSERT INTO kv VALUES (1, 2)"},
		{"EXPLAIN ANALYZE DELETE FROM kv WHERE k = 1", "DELETE FROM kv WHERE k = 1"},
	}
	db := newDB(t)
	c := shard.Wrap(db)
	if _, err := ExecSharded(c, "CREATE TABLE kv (k, v)"); err != nil {
		t.Fatal(err)
	}
	log := &recordLog{}
	db.SetCommitLog(log)
	for _, tc := range cases {
		log.recs = nil
		if _, err := ExecSharded(c, tc.src); err != nil {
			t.Fatalf("%s: %v", tc.src, err)
		}
		if got := strings.Join(log.recs, "; "); got != tc.want {
			t.Fatalf("%s: logged %q, want %q", tc.src, got, tc.want)
		}
	}
}

// TestExplainAnalyzeLogsInnerStatement: the WAL must log the mutation
// inside EXPLAIN ANALYZE, not the EXPLAIN itself, so replay re-executes
// without re-timing. The inner text comes from the already-parsed AST via
// the String() round-trip property — no re-lexing of the source.
func TestExplainAnalyzeLogsInnerStatement(t *testing.T) {
	cases := []struct{ in, want string }{
		{"EXPLAIN ANALYZE INSERT INTO kv VALUES (1)", "INSERT INTO kv VALUES (1)"},
		{"explain analyze delete from kv", "DELETE FROM kv"},
		{"  EXPLAIN   ANALYZE  UPDATE kv SET a = 1", "UPDATE kv SET a = 1"},
		{"EXPLAIN ANALYZE UPDATE kv SET a=1 WHERE k>=2", "UPDATE kv SET a = 1 WHERE k >= 2"},
	}
	for _, tc := range cases {
		st, err := Parse(tc.in)
		if err != nil {
			t.Fatalf("%s: %v", tc.in, err)
		}
		ex, ok := st.(*Explain)
		if !ok || !ex.Analyze {
			t.Fatalf("%s: not EXPLAIN ANALYZE", tc.in)
		}
		got := StatementText(ex.Stmt)
		if got != tc.want {
			t.Fatalf("StatementText(inner(%q)) = %q, want %q", tc.in, got, tc.want)
		}
		// The logged text must replay to the identical statement.
		back, err := Parse(got)
		if err != nil {
			t.Fatalf("reparse %q: %v", got, err)
		}
		if StatementText(back) != got {
			t.Fatalf("round trip of %q drifted to %q", got, StatementText(back))
		}
	}
}
