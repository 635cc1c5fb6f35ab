package sql

// The read executor: every SELECT, JOIN and EXPLAIN runs here, on one
// shard or many. A SELECT runs as one partial per target shard
// (selectOnShard) plus a merge (mergeSelect). Each partial follows the
// statement's step order (WHERE, ORDER BY key gathering, GROUP BY,
// aggregates item by item, projection validation) so that errors surface
// where one database would raise them, and the merge reproduces the
// answer — error values included — of running the statement on one
// database holding every row.
//
// A single partial (a 1-shard cluster, or a point-routed statement) is
// already in merge order: its rows are local row ids in final order and
// its groups are key-sorted, so the merge uses it as it is — no row
// references, no registry lookups, no re-sort.

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"rcnvm/internal/config"
	"rcnvm/internal/engine"
	"rcnvm/internal/par"
	"rcnvm/internal/shard"
	"rcnvm/internal/sim"
	"rcnvm/internal/trace"
)

// aggCell is one SELECT item's partial aggregate on one shard.
type aggCell struct {
	kind   AggKind
	col    string // resolved column name (output header)
	sum    uint64 // SUM/AVG partial (wraps like a single uint64 sum)
	lo, hi uint64 // MIN/MAX partial
	n      int    // contributing rows (COUNT, AVG divisor, MIN/MAX emptiness)
	err    error  // this item failed on this shard; later items did not run
}

// selPartial is one shard's contribution to a SELECT.
type selPartial struct {
	shard int
	err   error // a failure before the SELECT items
	// rows are the plain projection's matched local row ids in merge
	// order (ORDER BY applied, then LIMIT); keys are their ORDER BY keys.
	rows   []int
	keys   []uint64
	fields []string  // the plain projection's resolved fields
	aggs   []aggCell // one per SELECT item, through the first failing one
	// groups are GROUP BY's key-sorted groups over the resolved key and
	// aggregate columns.
	groups      []engine.GroupRow
	key, aggCol string
}

// keyedRows stable-sorts rows by their ORDER BY keys.
type keyedRows struct {
	rows []int
	keys []uint64
	desc bool
}

func (k keyedRows) Len() int { return len(k.rows) }
func (k keyedRows) Less(a, b int) bool {
	if k.desc {
		return k.keys[a] > k.keys[b]
	}
	return k.keys[a] < k.keys[b]
}
func (k keyedRows) Swap(a, b int) {
	k.rows[a], k.rows[b] = k.rows[b], k.rows[a]
	k.keys[a], k.keys[b] = k.keys[b], k.keys[a]
}

// selectOnShard runs shard i's sub-plan.
func selectOnShard(c *shard.Cluster, i int, s *Select) selPartial {
	p := selPartial{shard: i}
	t, err := lookup(c.Shard(i), s.Table)
	if err != nil {
		p.err = err
		return p
	}
	// nil rows = every live row, the engine's all-rows form (evalConds
	// never returns nil).
	var rows []int
	if len(s.Where) > 0 {
		if rows, err = evalConds(t, s.Where); err != nil {
			p.err = err
			return p
		}
	}

	ordered := s.OrderBy != "" && s.GroupBy == ""
	if ordered {
		if rows == nil {
			rows = t.LiveRows()
		}
		col, err := resolveColumn(t, s.OrderBy)
		if err != nil {
			p.err = err
			return p
		}
		_, words, err := t.Schema().FieldOffset(col)
		if err != nil {
			p.err = err
			return p
		}
		if words != 1 {
			p.err = fmt.Errorf("sql: ORDER BY on wide field %q", col)
			return p
		}
		p.keys = make([]uint64, len(rows))
		for j, row := range rows {
			vals, err := t.Field(row, col)
			if err != nil {
				p.err = err
				return p
			}
			p.keys[j] = vals[0]
		}
		// Stable: ties keep local order, which is global order within a
		// shard. Aggregates below then read in sorted order too.
		sort.Stable(keyedRows{rows, p.keys, s.Desc})
	}

	if s.GroupBy != "" {
		if p.key, p.aggCol, _, p.err = groupBySpec(t, s); p.err != nil {
			return p
		}
		p.groups, p.err = t.GroupSum(p.key, p.aggCol, rows)
		return p
	}

	if hasAggregates(s) {
		n := len(rows)
		if rows == nil {
			n = t.Live()
		}
		p.aggs = make([]aggCell, 0, len(s.Items))
		for _, it := range s.Items {
			cell := aggOnShard(t, it, rows, n)
			p.aggs = append(p.aggs, cell)
			if cell.err != nil {
				break
			}
		}
		return p
	}

	// Plain projection: validate the field list here (its error position)
	// but project at merge time, in global-row order.
	if p.fields, err = selectFields(t, s); err != nil {
		p.err = err
		return p
	}
	if rows == nil {
		rows = t.LiveRows()
	}
	// LIMIT can truncate per shard: local order is merge order within a
	// shard, and the merge keeps the first rows overall.
	if s.Limit > 0 && s.Limit < len(rows) {
		rows = rows[:s.Limit]
		if ordered {
			p.keys = p.keys[:s.Limit]
		}
	}
	p.rows = rows
	return p
}

// aggOnShard computes one aggregate item over rows (nil = all n live rows).
func aggOnShard(t *engine.Table, it SelectItem, rows []int, n int) aggCell {
	cell := aggCell{kind: it.Agg, n: n}
	switch it.Agg {
	case AggNone:
		cell.err = fmt.Errorf("sql: cannot mix plain columns with aggregates")
		return cell
	case AggCount:
		return cell
	}
	if cell.col, cell.err = resolveColumn(t, it.Column); cell.err != nil {
		return cell
	}
	switch it.Agg {
	case AggSum:
		cell.sum, cell.err = t.SumField(cell.col, rows)
	case AggAvg:
		// Partial = raw sum + count; the merge divides once. Over no rows
		// AVG is 0 and never reads (or width-checks) the column.
		if n > 0 {
			cell.sum, cell.err = t.SumField(cell.col, rows)
		}
	case AggMin, AggMax:
		// Width is checked even on a shard with no matches: MIN/MAX
		// rejects a wide field before it notices emptiness.
		if _, words, _ := t.Schema().FieldOffset(cell.col); words != 1 {
			cell.err = fmt.Errorf("engine: MIN/MAX over multi-word field %s", cell.col)
		} else if n > 0 {
			cell.lo, cell.hi, cell.err = t.MinMaxField(cell.col, rows)
		}
	}
	return cell
}

// mergeSelect combines per-shard partials, in ascending shard order, into
// the final Result (locks must still be held: merging projects rows out
// of shard memory). The lowest shard's error wins.
func mergeSelect(c *shard.Cluster, s *Select, parts []selPartial) (*Result, error) {
	for i := range parts {
		if parts[i].err != nil {
			return nil, parts[i].err
		}
	}
	if s.GroupBy != "" {
		return mergeGroups(s, parts)
	}
	if hasAggregates(s) {
		return mergeAggregates(parts, s)
	}
	return mergeRows(c, s, parts)
}

// mergeGroups re-merges per-shard GroupSum partials by key.
func mergeGroups(s *Select, parts []selPartial) (*Result, error) {
	groups := parts[0].groups
	if len(parts) > 1 {
		acc := make(map[uint64]*engine.GroupRow)
		for _, p := range parts {
			for _, g := range p.groups {
				m, ok := acc[g.Key]
				if !ok {
					m = &engine.GroupRow{Key: g.Key}
					acc[g.Key] = m
				}
				m.Sum += g.Sum
				m.Count += g.Count
			}
		}
		groups = make([]engine.GroupRow, 0, len(acc))
		for _, g := range acc {
			groups = append(groups, *g)
		}
		sort.Slice(groups, func(a, b int) bool { return groups[a].Key < groups[b].Key })
	}
	res, err := renderGroups(groups, parts[0].key, parts[0].aggCol, s.Items[1].Agg)
	if err != nil {
		return nil, err
	}
	if s.OrderBy != "" {
		if !strings.EqualFold(s.OrderBy, s.GroupBy) {
			return nil, fmt.Errorf("sql: GROUP BY results can only be ordered by the group key")
		}
		if s.Desc {
			for i, j := 0, len(res.Rows)-1; i < j; i, j = i+1, j-1 {
				res.Rows[i], res.Rows[j] = res.Rows[j], res.Rows[i]
			}
		}
	}
	if s.Limit > 0 && s.Limit < len(res.Rows) {
		res.Rows = res.Rows[:s.Limit]
	}
	return res, nil
}

// mergeAggregates combines per-shard aggregate cells item by item. The
// items run in order, so the first item at which any shard failed
// decides the error (lowest shard first), and MIN/MAX over zero rows in
// total fails at its own item — where one database running the items in
// order would stop.
func mergeAggregates(parts []selPartial, s *Select) (*Result, error) {
	res := &Result{Rows: [][]uint64{nil}}
	res.Floats = make([]float64, 0, len(s.Items))
	for k := range s.Items {
		for _, p := range parts {
			if err := p.aggs[k].err; err != nil {
				return nil, err
			}
		}
		cell := parts[0].aggs[k]
		for _, p := range parts[1:] {
			o := p.aggs[k]
			switch cell.kind {
			case AggSum, AggAvg:
				cell.sum += o.sum
				cell.n += o.n
			case AggCount:
				cell.n += o.n
			case AggMin, AggMax:
				if o.n > 0 {
					if cell.n == 0 {
						cell.lo, cell.hi = o.lo, o.hi
					} else {
						if o.lo < cell.lo {
							cell.lo = o.lo
						}
						if o.hi > cell.hi {
							cell.hi = o.hi
						}
					}
					cell.n += o.n
				}
			}
		}
		switch cell.kind {
		case AggSum:
			res.Columns = append(res.Columns, "SUM("+cell.col+")")
			res.Rows[0] = append(res.Rows[0], cell.sum)
			res.Floats = append(res.Floats, 0)
		case AggAvg:
			res.Columns = append(res.Columns, "AVG("+cell.col+")")
			if cell.n == 0 {
				res.Rows[0] = append(res.Rows[0], 0)
				res.Floats = append(res.Floats, 0)
			} else {
				v := float64(cell.sum) / float64(cell.n)
				res.Rows[0] = append(res.Rows[0], uint64(v))
				res.Floats = append(res.Floats, v)
			}
		case AggCount:
			res.Columns = append(res.Columns, "COUNT(*)")
			res.Rows[0] = append(res.Rows[0], uint64(cell.n))
			res.Floats = append(res.Floats, 0)
		case AggMin, AggMax:
			if cell.n == 0 {
				return nil, fmt.Errorf("engine: MIN/MAX over zero rows")
			}
			if cell.kind == AggMin {
				res.Columns = append(res.Columns, "MIN("+cell.col+")")
				res.Rows[0] = append(res.Rows[0], cell.lo)
			} else {
				res.Columns = append(res.Columns, "MAX("+cell.col+")")
				res.Rows[0] = append(res.Rows[0], cell.hi)
			}
			res.Floats = append(res.Floats, 0)
		}
	}
	return res, nil
}

// rowRef locates one matched row of a multi-shard merge: merges order by
// global id.
type rowRef struct {
	global int
	shard  int
	local  int
	key    uint64 // ORDER BY sort key (unused otherwise)
}

// mergeRows projects the matched rows in merge order. Several partials
// are interleaved by (sort key when ordering, then) global id, truncated,
// and projected row by row on each owner shard.
func mergeRows(c *shard.Cluster, s *Select, parts []selPartial) (*Result, error) {
	fields := parts[0].fields
	if len(parts) == 1 {
		p := parts[0]
		t, err := lookup(c.Shard(p.shard), s.Table)
		if err != nil {
			return nil, err
		}
		out, err := t.Project(p.rows, fields)
		if err != nil {
			return nil, err
		}
		return &Result{Columns: fields, Rows: out}, nil
	}
	var refs []rowRef
	for _, p := range parts {
		for j, row := range p.rows {
			g, ok := c.Global(s.Table, p.shard, row)
			if !ok {
				return nil, errUnmanaged(s.Table)
			}
			r := rowRef{global: g, shard: p.shard, local: row}
			if p.keys != nil {
				r.key = p.keys[j]
			}
			refs = append(refs, r)
		}
	}
	if s.OrderBy != "" {
		desc := s.Desc
		sort.Slice(refs, func(a, b int) bool {
			ka, kb := refs[a].key, refs[b].key
			if ka != kb {
				if desc {
					return ka > kb
				}
				return ka < kb
			}
			return refs[a].global < refs[b].global
		})
	} else {
		sort.Slice(refs, func(a, b int) bool { return refs[a].global < refs[b].global })
	}
	if s.Limit > 0 && s.Limit < len(refs) {
		refs = refs[:s.Limit]
	}
	out := make([][]uint64, 0, len(refs))
	for _, r := range refs {
		t, err := lookup(c.Shard(r.shard), s.Table)
		if err != nil {
			return nil, err
		}
		vals, err := t.Project([]int{r.local}, fields)
		if err != nil {
			return nil, err
		}
		out = append(out, vals[0])
	}
	return &Result{Columns: fields, Rows: out}, nil
}

// keyedRow is one live row of a join side: its key value plus location.
type keyedRow struct {
	global int
	shard  int
	local  int
	key    uint64
}

// joinKeysOnShard gathers (global id, key) for every live row of table on
// shard i, reading the key column in scan orientation like engine.Join.
func joinKeysOnShard(c *shard.Cluster, i int, table, col string) ([]keyedRow, error) {
	t, err := lookup(c.Shard(i), table)
	if err != nil {
		return nil, err
	}
	live := t.LiveRows()
	keys := make([]uint64, 0, len(live))
	// ScanWhere visits exactly the live rows in ascending order; a
	// never-matching predicate turns it into a pure column scan.
	if _, err := t.ScanWhere(col, func(vals []uint64) bool {
		keys = append(keys, vals[0])
		return false
	}); err != nil {
		return nil, err
	}
	out := make([]keyedRow, len(live))
	for j, row := range live {
		g, ok := c.Global(table, i, row)
		if !ok {
			return nil, errUnmanaged(table)
		}
		out[j] = keyedRow{global: g, shard: i, local: row, key: keys[j]}
	}
	return out, nil
}

// gatherJoinKeys fans joinKeysOnShard over the cluster and returns the
// rows merged into ascending global order — one database's scan order.
func gatherJoinKeys(c *shard.Cluster, table, col string) ([]keyedRow, error) {
	type slot struct {
		rows []keyedRow
		err  error
	}
	out := make([]slot, c.N())
	_ = par.RunCells(context.Background(), c.Workers(), c.N(), func(i int) error {
		out[i].rows, out[i].err = joinKeysOnShard(c, i, table, col)
		return nil
	})
	var all []keyedRow
	for i := range out {
		if out[i].err != nil {
			return nil, out[i].err
		}
		all = append(all, out[i].rows...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a].global < all[b].global })
	return all, nil
}

// scatterJoin gathers both sides' keys shard by shard, then builds and
// probes in global-row order exactly as engine.Join does in storage
// order, projecting each output row from its owner shard.
func scatterJoin(c *shard.Cluster, s *Select) (*Result, error) {
	a0, err := lookup(c.Shard(0), s.Table)
	if err != nil {
		return nil, err
	}
	b0, err := lookup(c.Shard(0), s.JoinTable)
	if err != nil {
		return nil, err
	}
	left, err := resolveColumn(a0, s.JoinLeft)
	if err != nil {
		return nil, err
	}
	right, err := resolveColumn(b0, s.JoinRight)
	if err != nil {
		return nil, err
	}
	_, wa, err := a0.Schema().FieldOffset(left)
	if err != nil {
		return nil, err
	}
	_, wb, err := b0.Schema().FieldOffset(right)
	if err != nil {
		return nil, err
	}
	if wa != 1 || wb != 1 {
		return nil, fmt.Errorf("engine: join keys must be single-word fields")
	}

	as, err := gatherJoinKeys(c, s.Table, left)
	if err != nil {
		return nil, err
	}
	bs, err := gatherJoinKeys(c, s.JoinTable, right)
	if err != nil {
		return nil, err
	}
	build := make(map[uint64][]keyedRow)
	for _, ar := range as {
		build[ar.key] = append(build[ar.key], ar)
	}
	var pairs [][2]keyedRow
	for _, br := range bs {
		for _, ar := range build[br.key] {
			pairs = append(pairs, [2]keyedRow{ar, br})
		}
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i][0].global != pairs[j][0].global {
			return pairs[i][0].global < pairs[j][0].global
		}
		return pairs[i][1].global < pairs[j][1].global
	})

	res := &Result{}
	for _, q := range s.JoinItems {
		res.Columns = append(res.Columns, q.Table+"."+q.Column)
	}
	for _, pr := range pairs {
		var row []uint64
		for _, q := range s.JoinItems {
			var kr keyedRow
			var table string
			switch {
			case strings.EqualFold(q.Table, s.Table):
				kr, table = pr[0], s.Table
			case strings.EqualFold(q.Table, s.JoinTable):
				kr, table = pr[1], s.JoinTable
			default:
				return nil, fmt.Errorf("sql: projection table %q not in FROM/JOIN", q.Table)
			}
			t, err := lookup(c.Shard(kr.shard), table)
			if err != nil {
				return nil, err
			}
			col, err := resolveColumn(t, q.Column)
			if err != nil {
				return nil, err
			}
			vals, err := t.Field(kr.local, col)
			if err != nil {
				return nil, err
			}
			row = append(row, vals...)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// scatterExplain describes the plan once (schemas are identical on every
// shard). ANALYZE executes the inner statement with per-shard tracing,
// then replays each shard's stream on its own simulated channel: the
// statement finishes when its slowest shard does, so the estimate is the
// max over shards. Only a multi-shard cluster prints the scatter header
// and the per-shard wording.
func scatterExplain(c *shard.Cluster, ex *Explain) (*Result, []func() error, error) {
	var b strings.Builder
	if c.N() > 1 {
		fmt.Fprintf(&b, "scatter over %d shards\n", c.N())
	}
	describe(c.Shard(0), ex.Stmt, &b)

	if !ex.Analyze {
		return &Result{Message: strings.TrimRight(b.String(), "\n")}, nil, nil
	}

	targets := allShards(c)
	for _, i := range targets {
		c.Shard(i).StartTrace()
	}
	// The inner dispatch logs any mutation under the inner statement's own
	// text, printed from the parsed AST (round-trip property): replay must
	// re-execute the mutation, not re-time it.
	_, waits, runErr := dispatchSharded(c, ex.Stmt, StatementText(ex.Stmt), targets)
	streams := make([]trace.Stream, c.N())
	for _, i := range targets {
		streams[i] = c.Shard(i).StopTrace()
	}
	if runErr != nil {
		return nil, waits, runErr
	}
	total := 0
	for _, st := range streams {
		total += st.MemOps()
	}
	fmt.Fprintf(&b, "actual: %d memory ops", total)
	if c.N() > 1 {
		fmt.Fprintf(&b, " across %d shards", c.N())
	}
	if total > 0 {
		var dualMax, rowMax int64
		for _, st := range streams {
			if st.MemOps() == 0 {
				continue
			}
			dual, err := sim.RunOn(config.RCNVM(), []trace.Stream{st})
			if err != nil {
				return nil, waits, err
			}
			row, err := sim.RunOn(config.RCNVM(), []trace.Stream{engine.RowOnlyStream(st)})
			if err != nil {
				return nil, waits, err
			}
			if dual.TimePs > dualMax {
				dualMax = dual.TimePs
			}
			if row.TimePs > rowMax {
				rowMax = row.TimePs
			}
		}
		fmt.Fprintf(&b, "; est. %.1f us with column accesses, %.1f us row-only (%.2fx)",
			float64(dualMax)/1e6, float64(rowMax)/1e6, float64(rowMax)/float64(dualMax))
		if c.N() > 1 {
			b.WriteString(", slowest shard")
		}
	}
	return &Result{Message: b.String()}, waits, nil
}
