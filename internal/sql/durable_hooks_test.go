package sql

import (
	"testing"

	"rcnvm/internal/engine"
)

// TestLogCommitNilPathAllocatesNothing pins the volatile-server
// contract: with no commit log installed (-data-dir unset), the
// durability hooks on the write path cost one nil check and zero
// allocations.
func TestLogCommitNilPathAllocatesNothing(t *testing.T) {
	db, err := engine.Open(engine.DualAddress)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Parse("UPDATE kv SET val = 1 WHERE k = 2")
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if wait := logCommit(db, st, "UPDATE kv SET val = 1 WHERE k = 2", nil); wait != nil {
			t.Fatal("nil commit log produced a wait func")
		}
	})
	if allocs != 0 {
		t.Fatalf("volatile logCommit path allocates %.1f/op, want 0", allocs)
	}
}

func TestMutatesRecursesIntoExplainAnalyze(t *testing.T) {
	cases := []struct {
		src  string
		want bool
	}{
		{"SELECT COUNT(*) FROM kv", false},
		{"EXPLAIN SELECT * FROM kv", false},
		{"EXPLAIN ANALYZE SELECT * FROM kv", false},
		{"INSERT INTO kv VALUES (1, 2)", true},
		{"EXPLAIN INSERT INTO kv VALUES (1, 2)", false}, // plan only, never executed
		{"EXPLAIN ANALYZE INSERT INTO kv VALUES (1, 2)", true},
		{"EXPLAIN ANALYZE DELETE FROM kv WHERE k = 1", true},
	}
	for _, tc := range cases {
		st, err := Parse(tc.src)
		if err != nil {
			t.Fatalf("%s: %v", tc.src, err)
		}
		if got := mutates(st); got != tc.want {
			t.Fatalf("mutates(%q) = %v, want %v", tc.src, got, tc.want)
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
