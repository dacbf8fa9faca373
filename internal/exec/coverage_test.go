package exec

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/datum"
	"repro/internal/plan"
	"repro/internal/sqlparse"
)

func compile(t *testing.T, exprSQL string, cols []plan.ColMeta) EvalFunc {
	t.Helper()
	e, err := sqlparse.ParseExpr(exprSQL)
	if err != nil {
		t.Fatalf("parse %q: %v", exprSQL, err)
	}
	f, err := Compile(e, cols)
	if err != nil {
		t.Fatalf("compile %q: %v", exprSQL, err)
	}
	return f
}

func evalOne(t *testing.T, exprSQL string, cols []plan.ColMeta, row datum.Row) datum.Datum {
	t.Helper()
	f := compile(t, exprSQL, cols)
	v, err := f(row)
	if err != nil {
		t.Fatalf("eval %q: %v", exprSQL, err)
	}
	return v
}

var icols = []plan.ColMeta{
	{Table: "t", Name: "i", Kind: datum.KindInt},
	{Table: "t", Name: "f", Kind: datum.KindFloat},
	{Table: "t", Name: "s", Kind: datum.KindString},
	{Table: "t", Name: "b", Kind: datum.KindBool},
	{Table: "t", Name: "n", Kind: datum.KindInt},
}

func irow() datum.Row {
	return datum.Row{
		datum.NewInt(6), datum.NewFloat(2.5), datum.NewString("  Mixed Case  "),
		datum.NewBool(true), datum.Null,
	}
}

func TestExpressionCoverageMatrix(t *testing.T) {
	cases := []struct {
		expr string
		want string
	}{
		{"i % 4", "2"},
		{"-f", "-2.5"},
		{"-i", "-6"},
		{"i * f", "15"},
		{"i - f", "3.5"},
		{"f / 2", "1.25"},
		{"TRIM(s)", "Mixed Case"},
		{"LOWER(TRIM(s))", "mixed case"},
		{"i || '!'", "6!"},
		{"CONCAT('a', NULL, 'b', i)", "ab6"},
		{"COALESCE(n, i)", "6"},
		{"ABS(-2.5)", "2.5"},
		{"SUBSTR(TRIM(s), 7)", "Case"},
		{"SUBSTR(TRIM(s), 99)", ""},
		{"CASE WHEN i > 100 THEN 'big' END", "NULL"},
		{"CAST(b AS INT)", "1"},
		{"CAST(i AS FLOAT) / 4", "1.5"},
		{"NOT b", "FALSE"},
		{"n IS NULL AND b", "TRUE"},
		{"n + 1", "NULL"},
		{"NOT n > 1", "NULL"},
		{"n > 1 OR b", "TRUE"},
		{"n > 1 AND NOT b", "FALSE"},
	}
	for _, c := range cases {
		got := evalOne(t, c.expr, icols, irow())
		if got.Display() != c.want {
			t.Errorf("%s = %s, want %s", c.expr, got.Display(), c.want)
		}
	}
}

func TestDynamicLikePattern(t *testing.T) {
	// Non-literal pattern exercises the cached-compile path.
	cols := []plan.ColMeta{
		{Table: "t", Name: "s", Kind: datum.KindString},
		{Table: "t", Name: "p", Kind: datum.KindString},
	}
	f := compile(t, "s LIKE p", cols)
	v, err := f(datum.Row{datum.NewString("hello"), datum.NewString("h_llo")})
	if err != nil || !v.Bool() {
		t.Errorf("dynamic LIKE = %v %v", v, err)
	}
	v, err = f(datum.Row{datum.NewString("hello"), datum.NewString("x%")})
	if err != nil || v.Bool() {
		t.Errorf("dynamic LIKE negative = %v %v", v, err)
	}
}

func TestRuntimeTypeErrors(t *testing.T) {
	cases := []string{
		"s + 1",
		"i AND b",
		"b || b AND i", // concat yields string; AND over non-bool
		"UPPER(i)",
		"LENGTH(i)",
		"ABS(s)",
		"SUBSTR(i, 1)",
		"i LIKE 'x'",
		"s BETWEEN 1 AND 2",
		"i % f",
	}
	for _, c := range cases {
		e, err := sqlparse.ParseExpr(c)
		if err != nil {
			t.Fatalf("parse %q: %v", c, err)
		}
		f, err := Compile(e, icols)
		if err != nil {
			continue // compile-time rejection also acceptable
		}
		if _, err := f(irow()); err == nil {
			t.Errorf("%q must fail at runtime", c)
		}
	}
}

func TestPrefetchPropagatesErrors(t *testing.T) {
	it := prefetchBatches(context.Background(), 2, func() (BatchIterator, error) {
		return nil, errors.New("remote down")
	})
	if _, err := it.NextBatch(); err == nil || !strings.Contains(err.Error(), "remote down") {
		t.Errorf("prefetch error = %v", err)
	}
	it.Close()
}

func TestPrefetchDeliversRows(t *testing.T) {
	it := prefetchBatches(context.Background(), 2, func() (BatchIterator, error) {
		return newSliceBatchIter([]datum.Row{{datum.NewInt(1)}, {datum.NewInt(2)}}, 2), nil
	})
	rows, err := DrainBatches(it)
	if err != nil || len(rows) != 2 {
		t.Errorf("prefetch rows = %d err = %v", len(rows), err)
	}
}

func TestLimitOffsetOnly(t *testing.T) {
	rows := []datum.Row{{datum.NewInt(1)}, {datum.NewInt(2)}, {datum.NewInt(3)}}
	it := &limitBatchIter{in: newSliceBatchIter(rows, 2), count: -1, offset: 2}
	out, err := DrainBatches(it)
	if err != nil || len(out) != 1 || out[0][0].Int() != 3 {
		t.Errorf("offset-only limit = %v %v", out, err)
	}
}

func TestCardLedgerCountsRows(t *testing.T) {
	led := GetCardLedger()
	defer PutCardLedger(led)
	node := remoteScan()
	rt := &flakyRuntime{rows: []datum.Row{{}, {}, {}}}
	it, err := BuildBatch(context.Background(), node, rt, Options{BatchSize: 2, Cards: led})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DrainBatches(it); err != nil {
		t.Fatal(err)
	}
	cards := led.ByNode()
	if c := cards[node]; c.Rows != 3 || c.Batches != 2 {
		t.Errorf("ledger rows = %d batches = %d, want 3 and 2", c.Rows, c.Batches)
	}
	if out := led.Spans(node, 0).Render(); !strings.Contains(out, "rows=3 batches=2") {
		t.Errorf("render = %q", out)
	}
	other := &plan.Scan{Source: "x", Table: "y", Alias: "z"}
	if c, ok := cards[other]; ok && c.Rows != 0 {
		t.Error("unexecuted node must be absent or report 0")
	}
}

func TestEvalPredicateRejectsNonBool(t *testing.T) {
	f := compile(t, "i + 1", icols)
	if _, err := EvalPredicate(f, irow()); err == nil {
		t.Error("non-bool predicate must error")
	}
	g := compile(t, "n IS NULL", icols)
	ok, err := EvalPredicate(g, irow())
	if err != nil || !ok {
		t.Errorf("predicate = %v %v", ok, err)
	}
}

func TestSortMultiKeyMixedDirections(t *testing.T) {
	cols := []plan.ColMeta{
		{Table: "t", Name: "a", Kind: datum.KindInt},
		{Table: "t", Name: "b", Kind: datum.KindInt},
	}
	rows := []datum.Row{
		{datum.NewInt(1), datum.NewInt(1)},
		{datum.NewInt(1), datum.NewInt(2)},
		{datum.NewInt(2), datum.NewInt(1)},
	}
	keyA := compile(t, "a", cols)
	keyB := compile(t, "b", cols)
	it := &sortBatchIter{in: newSliceBatchIter(rows, 2), keys: []EvalFunc{keyA, keyB}, desc: []bool{false, true}}
	out, err := DrainBatches(it)
	if err != nil {
		t.Fatal(err)
	}
	// a asc, b desc: (1,2), (1,1), (2,1)
	if out[0][1].Int() != 2 || out[1][1].Int() != 1 || out[2][0].Int() != 2 {
		t.Errorf("sorted = %v", out)
	}
}
