package exec

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datum"
	"repro/internal/plan"
	"repro/internal/schema"
	"repro/internal/sqlparse"
	"repro/internal/storage"
)

// localRuntime binds scans to in-memory tables keyed "source.table".
type localRuntime struct {
	tables map[string]*storage.Table
}

func (rt *localRuntime) ScanTable(_ context.Context, source, table string) (Iterator, error) {
	t, ok := rt.tables[source+"."+table]
	if !ok {
		return nil, fmt.Errorf("no table %s.%s", source, table)
	}
	return NewSliceIterator(t.Snapshot()), nil
}

func (rt *localRuntime) RunRemote(ctx context.Context, source string, subtree plan.Node) (Iterator, error) {
	it, err := BuildBatch(ctx, subtree, rt, Options{})
	if err != nil {
		return nil, err
	}
	rows, err := DrainBatches(it)
	if err != nil {
		return nil, err
	}
	return NewSliceIterator(rows), nil
}

// fixture builds a two-source catalog with data: crm.customers and
// billing.invoices.
func fixture(t *testing.T) (*catalog.Global, *localRuntime) {
	t.Helper()
	g := catalog.NewGlobal()
	rt := &localRuntime{tables: map[string]*storage.Table{}}

	custSchema := schema.MustTable("customers", []schema.Column{
		{Name: "id", Kind: datum.KindInt},
		{Name: "name", Kind: datum.KindString},
		{Name: "region", Kind: datum.KindString, Nullable: true},
	}, 0)
	invSchema := schema.MustTable("invoices", []schema.Column{
		{Name: "cust_id", Kind: datum.KindInt},
		{Name: "amount", Kind: datum.KindFloat},
	})

	crm := catalog.NewSourceCatalog("crm")
	crm.AddTable(custSchema, nil)
	billing := catalog.NewSourceCatalog("billing")
	billing.AddTable(invSchema, nil)
	if err := g.AddSource(crm); err != nil {
		t.Fatal(err)
	}
	if err := g.AddSource(billing); err != nil {
		t.Fatal(err)
	}

	ct := storage.NewTable(custSchema)
	for _, r := range []struct {
		id           int64
		name, region string
	}{
		{1, "Ann", "west"}, {2, "Bob", "east"}, {3, "Cal", "east"}, {4, "Dee", "west"},
	} {
		if err := ct.Insert(datum.Row{datum.NewInt(r.id), datum.NewString(r.name), datum.NewString(r.region)}); err != nil {
			t.Fatal(err)
		}
	}
	// A customer with NULL region.
	if err := ct.Insert(datum.Row{datum.NewInt(5), datum.NewString("Eve"), datum.Null}); err != nil {
		t.Fatal(err)
	}
	it := storage.NewTable(invSchema)
	for _, r := range [][2]float64{{1, 100}, {1, 50}, {2, 75}, {3, 20}, {9, 999}} {
		if err := it.Insert(datum.Row{datum.NewInt(int64(r[0])), datum.NewFloat(r[1])}); err != nil {
			t.Fatal(err)
		}
	}
	rt.tables["crm.customers"] = ct
	rt.tables["billing.invoices"] = it
	return g, rt
}

// run parses, plans and executes a query against the fixture.
func run(t *testing.T, g *catalog.Global, rt Runtime, sql string) []datum.Row {
	t.Helper()
	sel, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	p, err := plan.Build(g, sel)
	if err != nil {
		t.Fatalf("plan %q: %v", sql, err)
	}
	it, err := BuildBatch(context.Background(), p, rt, Options{})
	if err != nil {
		t.Fatalf("build %q: %v", sql, err)
	}
	rows, err := DrainBatches(it)
	if err != nil {
		t.Fatalf("run %q: %v", sql, err)
	}
	return rows
}

func rowsToString(rows []datum.Row) string {
	var b strings.Builder
	for i, r := range rows {
		if i > 0 {
			b.WriteByte('|')
		}
		for j, d := range r {
			if j > 0 {
				b.WriteByte(',')
			}
			b.WriteString(d.Display())
		}
	}
	return b.String()
}

func TestScanFilterProject(t *testing.T) {
	g, rt := fixture(t)
	rows := run(t, g, rt, "SELECT name FROM crm.customers WHERE region = 'east' ORDER BY name")
	if got := rowsToString(rows); got != "Bob|Cal" {
		t.Errorf("got %q", got)
	}
}

func TestNullFilterSemantics(t *testing.T) {
	g, rt := fixture(t)
	// Eve has NULL region: excluded by both = and <>.
	eq := run(t, g, rt, "SELECT COUNT(*) FROM crm.customers WHERE region = 'west'")
	ne := run(t, g, rt, "SELECT COUNT(*) FROM crm.customers WHERE region <> 'west'")
	if eq[0][0].Int() != 2 || ne[0][0].Int() != 2 {
		t.Errorf("eq=%v ne=%v; NULL region must match neither", eq[0][0], ne[0][0])
	}
	isnull := run(t, g, rt, "SELECT name FROM crm.customers WHERE region IS NULL")
	if rowsToString(isnull) != "Eve" {
		t.Errorf("IS NULL got %q", rowsToString(isnull))
	}
}

func TestHashJoin(t *testing.T) {
	g, rt := fixture(t)
	rows := run(t, g, rt, `SELECT c.name, i.amount FROM crm.customers c
		JOIN billing.invoices i ON c.id = i.cust_id ORDER BY c.name, i.amount`)
	want := "Ann,50|Ann,100|Bob,75|Cal,20"
	if got := rowsToString(rows); got != want {
		t.Errorf("got %q want %q", got, want)
	}
}

func TestLeftJoinPadding(t *testing.T) {
	g, rt := fixture(t)
	rows := run(t, g, rt, `SELECT c.name, i.amount FROM crm.customers c
		LEFT JOIN billing.invoices i ON c.id = i.cust_id
		WHERE i.amount IS NULL ORDER BY c.name`)
	if got := rowsToString(rows); got != "Dee,NULL|Eve,NULL" {
		t.Errorf("got %q", got)
	}
}

func TestJoinWithResidualPredicate(t *testing.T) {
	g, rt := fixture(t)
	rows := run(t, g, rt, `SELECT c.name, i.amount FROM crm.customers c
		JOIN billing.invoices i ON c.id = i.cust_id AND i.amount > 60 ORDER BY i.amount`)
	if got := rowsToString(rows); got != "Bob,75|Ann,100" {
		t.Errorf("got %q", got)
	}
}

func TestNestedLoopCrossAndThetaJoin(t *testing.T) {
	g, rt := fixture(t)
	rows := run(t, g, rt, `SELECT COUNT(*) FROM crm.customers c, billing.invoices i`)
	if rows[0][0].Int() != 25 {
		t.Errorf("cross join count = %v", rows[0][0])
	}
	rows = run(t, g, rt, `SELECT COUNT(*) FROM crm.customers c JOIN billing.invoices i ON c.id < i.cust_id`)
	// cust_id values 1,1,2,3,9: pairs where id < cust_id:
	// id=1: cust_id 2,3,9 → 3; id=2: 3,9 → 2; id=3: 9; id=4: 9; id=5: 9 → total 8
	if rows[0][0].Int() != 8 {
		t.Errorf("theta join count = %v", rows[0][0])
	}
}

func TestLeftJoinNestedLoop(t *testing.T) {
	g, rt := fixture(t)
	rows := run(t, g, rt, `SELECT c.name FROM crm.customers c
		LEFT JOIN billing.invoices i ON c.id > 100 AND i.amount > 100000
		WHERE i.cust_id IS NULL ORDER BY c.name`)
	if len(rows) != 5 {
		t.Errorf("all left rows must survive with padding, got %d", len(rows))
	}
}

func TestAggregates(t *testing.T) {
	g, rt := fixture(t)
	rows := run(t, g, rt, `SELECT region, COUNT(*) AS n, SUM(id) AS s
		FROM crm.customers GROUP BY region ORDER BY region`)
	// NULL group first (Eve), then east (Bob,Cal), then west (Ann,Dee).
	want := "NULL,1,5|east,2,5|west,2,5"
	if got := rowsToString(rows); got != want {
		t.Errorf("got %q want %q", got, want)
	}
}

func TestAggregateFunctions(t *testing.T) {
	g, rt := fixture(t)
	rows := run(t, g, rt, `SELECT COUNT(*), COUNT(region), MIN(amount), MAX(amount), AVG(amount), SUM(amount)
		FROM crm.customers c JOIN billing.invoices i ON c.id = i.cust_id`)
	r := rows[0]
	if r[0].Int() != 4 || r[1].Int() != 4 {
		t.Errorf("counts = %v %v", r[0], r[1])
	}
	if r[2].Float() != 20 || r[3].Float() != 100 {
		t.Errorf("min/max = %v %v", r[2], r[3])
	}
	if r[4].Float() != 61.25 || r[5].Float() != 245 {
		t.Errorf("avg/sum = %v %v", r[4], r[5])
	}
}

func TestCountDistinctAndSumInt(t *testing.T) {
	g, rt := fixture(t)
	rows := run(t, g, rt, "SELECT COUNT(DISTINCT region), SUM(id) FROM crm.customers")
	if rows[0][0].Int() != 2 {
		t.Errorf("count distinct regions = %v", rows[0][0])
	}
	if rows[0][1].Kind() != datum.KindInt || rows[0][1].Int() != 15 {
		t.Errorf("SUM over ints must stay INT: %v (%v)", rows[0][1], rows[0][1].Kind())
	}
}

func TestEmptyAggregate(t *testing.T) {
	g, rt := fixture(t)
	rows := run(t, g, rt, "SELECT COUNT(*), SUM(id), MIN(id) FROM crm.customers WHERE id > 1000")
	if len(rows) != 1 {
		t.Fatalf("scalar aggregate over empty input must give 1 row, got %d", len(rows))
	}
	if rows[0][0].Int() != 0 || !rows[0][1].IsNull() || !rows[0][2].IsNull() {
		t.Errorf("empty agg = %v", rows[0])
	}
}

func TestHaving(t *testing.T) {
	g, rt := fixture(t)
	rows := run(t, g, rt, `SELECT cust_id, SUM(amount) FROM billing.invoices
		GROUP BY cust_id HAVING SUM(amount) > 70 ORDER BY cust_id`)
	if got := rowsToString(rows); got != "1,150|2,75|9,999" {
		t.Errorf("got %q", got)
	}
}

func TestDistinct(t *testing.T) {
	g, rt := fixture(t)
	rows := run(t, g, rt, "SELECT DISTINCT region FROM crm.customers ORDER BY region")
	if got := rowsToString(rows); got != "NULL|east|west" {
		t.Errorf("got %q", got)
	}
}

func TestOrderByDescAndLimit(t *testing.T) {
	g, rt := fixture(t)
	rows := run(t, g, rt, "SELECT id FROM crm.customers ORDER BY id DESC LIMIT 2 OFFSET 1")
	if got := rowsToString(rows); got != "4|3" {
		t.Errorf("got %q", got)
	}
}

func TestUnionAll(t *testing.T) {
	g, rt := fixture(t)
	rows := run(t, g, rt, `SELECT id FROM crm.customers WHERE id <= 2
		UNION ALL SELECT cust_id FROM billing.invoices WHERE cust_id = 9`)
	if got := rowsToString(rows); got != "1|2|9" {
		t.Errorf("got %q", got)
	}
}

func TestScalarExpressions(t *testing.T) {
	g, rt := fixture(t)
	rows := run(t, g, rt, `SELECT UPPER(name) || '-' || CAST(id AS STRING),
		CASE WHEN id % 2 = 0 THEN 'even' ELSE 'odd' END,
		SUBSTR(name, 1, 2), LENGTH(name), ABS(0 - id), COALESCE(region, 'unknown')
		FROM crm.customers WHERE id = 5`)
	r := rows[0]
	if r[0].Str() != "EVE-5" || r[1].Str() != "odd" || r[2].Str() != "Ev" {
		t.Errorf("exprs = %v", r)
	}
	if r[3].Int() != 3 || r[4].Int() != 5 || r[5].Str() != "unknown" {
		t.Errorf("exprs = %v", r)
	}
}

func TestLikeAndIn(t *testing.T) {
	g, rt := fixture(t)
	rows := run(t, g, rt, "SELECT name FROM crm.customers WHERE name LIKE 'A%' OR name LIKE '_ob'")
	if got := rowsToString(rows); got != "Ann|Bob" {
		t.Errorf("got %q", got)
	}
	rows = run(t, g, rt, "SELECT name FROM crm.customers WHERE id IN (1, 3) ORDER BY name")
	if got := rowsToString(rows); got != "Ann|Cal" {
		t.Errorf("got %q", got)
	}
	rows = run(t, g, rt, "SELECT name FROM crm.customers WHERE id NOT IN (1, 2, 3, 4) ORDER BY name")
	if got := rowsToString(rows); got != "Eve" {
		t.Errorf("got %q", got)
	}
}

func TestBetween(t *testing.T) {
	g, rt := fixture(t)
	rows := run(t, g, rt, "SELECT id FROM crm.customers WHERE id BETWEEN 2 AND 4 ORDER BY id")
	if got := rowsToString(rows); got != "2|3|4" {
		t.Errorf("got %q", got)
	}
}

func TestArithmeticErrors(t *testing.T) {
	g, rt := fixture(t)
	sel, _ := sqlparse.Parse("SELECT 1 / (id - id) FROM crm.customers")
	p, err := plan.Build(g, sel)
	if err != nil {
		t.Fatal(err)
	}
	it, err := BuildBatch(context.Background(), p, rt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DrainBatches(it); err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Errorf("division by zero must surface: %v", err)
	}
}

func TestViewUnfoldingEndToEnd(t *testing.T) {
	g, rt := fixture(t)
	if err := g.DefineView("customer360",
		`SELECT c.id AS id, c.name AS name, i.amount AS amount
		 FROM crm.customers c JOIN billing.invoices i ON c.id = i.cust_id`); err != nil {
		t.Fatal(err)
	}
	rows := run(t, g, rt, "SELECT name, SUM(amount) AS total FROM customer360 GROUP BY name ORDER BY total DESC")
	if got := rowsToString(rows); got != "Ann,150|Bob,75|Cal,20" {
		t.Errorf("got %q", got)
	}
}

func TestParallelExecutionMatchesSequential(t *testing.T) {
	g, rt := fixture(t)
	sql := `SELECT c.name, i.amount FROM crm.customers c
		JOIN billing.invoices i ON c.id = i.cust_id ORDER BY c.name, i.amount`
	sel, _ := sqlparse.Parse(sql)
	p, err := plan.Build(g, sel)
	if err != nil {
		t.Fatal(err)
	}
	// Wrap scans in Remote nodes to exercise the parallel path.
	p = plan.Transform(p, func(n plan.Node) plan.Node {
		if s, ok := n.(*plan.Scan); ok {
			return &plan.Remote{Source: s.Source, Child: s}
		}
		return n
	})
	seq, err := BuildBatch(context.Background(), p, rt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	seqRows, err := DrainBatches(seq)
	if err != nil {
		t.Fatal(err)
	}
	par, err := BuildBatch(context.Background(), p, rt, Options{Parallel: true})
	if err != nil {
		t.Fatal(err)
	}
	parRows, err := DrainBatches(par)
	if err != nil {
		t.Fatal(err)
	}
	if rowsToString(seqRows) != rowsToString(parRows) {
		t.Errorf("parallel execution diverged:\nseq: %s\npar: %s", rowsToString(seqRows), rowsToString(parRows))
	}
}

func TestCompileErrors(t *testing.T) {
	cols := []plan.ColMeta{{Table: "t", Name: "a", Kind: datum.KindInt}}
	bad := []string{
		"nope",
		"UNKNOWNFN(a)",
		"SUBSTR(a)",
		"UPPER(a, a)",
	}
	for _, s := range bad {
		e, err := sqlparse.ParseExpr(s)
		if err != nil {
			t.Fatalf("parse %q: %v", s, err)
		}
		if _, err := Compile(e, cols); err == nil {
			t.Errorf("Compile(%q) should fail", s)
		}
	}
}

func TestCastBehaviour(t *testing.T) {
	cases := []struct {
		in     datum.Datum
		target datum.Kind
		want   string
		err    bool
	}{
		{datum.NewString("42"), datum.KindInt, "42", false},
		{datum.NewString(" 2.5 "), datum.KindFloat, "2.5", false},
		{datum.NewFloat(3.9), datum.KindInt, "3", false},
		{datum.NewBool(true), datum.KindInt, "1", false},
		{datum.NewString("true"), datum.KindBool, "TRUE", false},
		{datum.NewString("xyz"), datum.KindInt, "", true},
		{datum.Null, datum.KindInt, "NULL", false},
	}
	for _, c := range cases {
		got, err := castDatum(c.in, c.target)
		if c.err {
			if err == nil {
				t.Errorf("cast %v→%v should fail", c.in, c.target)
			}
			continue
		}
		if err != nil {
			t.Errorf("cast %v→%v: %v", c.in, c.target, err)
			continue
		}
		if got.Display() != c.want {
			t.Errorf("cast %v→%v = %v, want %v", c.in, c.target, got.Display(), c.want)
		}
	}
}

func TestSplitCombineConjuncts(t *testing.T) {
	e, _ := sqlparse.ParseExpr("a = 1 AND b = 2 AND c = 3")
	parts := SplitConjuncts(e)
	if len(parts) != 3 {
		t.Fatalf("split = %d parts", len(parts))
	}
	back := CombineConjuncts(parts)
	if back.SQL() != e.SQL() {
		t.Errorf("recombined = %s", back.SQL())
	}
	if CombineConjuncts(nil) != nil {
		t.Error("empty combine must be nil")
	}
	if got := SplitConjuncts(nil); got != nil {
		t.Error("nil split must be nil")
	}
}
