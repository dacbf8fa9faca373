package exec

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/datum"
	"repro/internal/plan"
	"repro/internal/sqlparse"
)

// inListPool is the value pool the differential test draws children and
// list members from: the cases where a hash probe could diverge from a
// linear scan of Equal — NULL, INT vs FLOAT, integers past 2^53 next to
// the float they round to, signed zeros, NaNs with different bits,
// infinities — plus strings, bools and times.
func inListPool() []datum.Datum {
	inf := math.Inf(1)
	t0 := time.Date(2005, 6, 14, 10, 30, 0, 0, time.UTC)
	return []datum.Datum{
		datum.Null,
		datum.NewInt(0), datum.NewInt(1), datum.NewInt(2), datum.NewInt(-1),
		datum.NewInt(1 << 53), datum.NewInt(1<<53 + 1), datum.NewInt(1<<53 - 1),
		datum.NewInt(math.MaxInt64),
		datum.NewFloat(0), datum.NewFloat(math.Copysign(0, -1)),
		datum.NewFloat(1), datum.NewFloat(2.5), datum.NewFloat(-1),
		datum.NewFloat(1 << 53), datum.NewFloat(1<<53 + 2),
		datum.NewFloat(math.NaN()), datum.NewFloat(inf - inf),
		datum.NewFloat(inf), datum.NewFloat(-inf),
		datum.NewFloat(math.MaxInt64),
		datum.NewString(""), datum.NewString("a"), datum.NewString("b"),
		datum.NewBool(true), datum.NewBool(false),
		datum.NewTime(t0), datum.NewTime(t0.Add(time.Microsecond)),
		datum.NewTime(t0.In(time.FixedZone("X", 3600))),
	}
}

// inListCols describes a row laid out as (c, m0, m1, ...): the probed
// child followed by one column per list member.
func inListCols(n int) []plan.ColMeta {
	cols := []plan.ColMeta{{Table: "t", Name: "c"}}
	for i := 0; i < n; i++ {
		cols = append(cols, plan.ColMeta{Table: "t", Name: fmt.Sprintf("m%d", i)})
	}
	return cols
}

func TestLiteralSetOnlyForConstantLists(t *testing.T) {
	lit := &sqlparse.Literal{Value: datum.NewInt(1)}
	null := &sqlparse.Literal{Value: datum.Null}
	if _, _, ok := literalSet([]sqlparse.Expr{lit, null}); !ok {
		t.Error("an all-literal list must compile to a set probe")
	}
	if _, sawNull, _ := literalSet([]sqlparse.Expr{lit, null}); !sawNull {
		t.Error("a NULL member must be remembered")
	}
	ref := &sqlparse.ColumnRef{Table: "t", Column: "c"}
	if _, _, ok := literalSet([]sqlparse.Expr{lit, ref}); ok {
		t.Error("a list with a column reference must stay a linear scan")
	}
}

// TestInListSetMatchesLinear is the differential check of the set probe:
// every `c [NOT] IN (literals)` must give exactly the three-valued answer
// of the linear evaluator over the same values, which it runs here by
// reading the members from columns (a non-literal list).
func TestInListSetMatchesLinear(t *testing.T) {
	pool := inListPool()
	rng := rand.New(rand.NewSource(12))
	for iter := 0; iter < 5000; iter++ {
		n := rng.Intn(7)
		members := make([]datum.Datum, n)
		for i := range members {
			members[i] = pool[rng.Intn(len(pool))]
		}
		if n > 1 && rng.Intn(4) == 0 {
			members[n-1] = members[0] // an explicit duplicate
		}
		child := pool[rng.Intn(len(pool))]
		not := rng.Intn(2) == 0

		cols := inListCols(n)
		ref := &sqlparse.ColumnRef{Table: "t", Column: "c"}
		lits := make([]sqlparse.Expr, n)
		refs := make([]sqlparse.Expr, n)
		for i, m := range members {
			lits[i] = &sqlparse.Literal{Value: m}
			refs[i] = &sqlparse.ColumnRef{Table: "t", Column: cols[i+1].Name}
		}
		setF, err := Compile(&sqlparse.InExpr{Child: ref, List: lits, Not: not}, cols)
		if err != nil {
			t.Fatal(err)
		}
		linF, err := Compile(&sqlparse.InExpr{Child: ref, List: refs, Not: not}, cols)
		if err != nil {
			t.Fatal(err)
		}
		row := append(datum.Row{child}, members...)
		got, err := setF(row)
		if err != nil {
			t.Fatal(err)
		}
		want, err := linF(row)
		if err != nil {
			t.Fatal(err)
		}
		if got.Kind() != want.Kind() || (!got.IsNull() && got.Bool() != want.Bool()) {
			t.Fatalf("%v NOT=%v IN %v: set probe %v, linear %v", child, not, members, got, want)
		}
	}
}

func TestInListNullSemantics(t *testing.T) {
	cols := inListCols(0)
	ref := &sqlparse.ColumnRef{Table: "t", Column: "c"}
	lit := func(v datum.Datum) sqlparse.Expr { return &sqlparse.Literal{Value: v} }
	one, two := datum.NewInt(1), datum.NewInt(2)
	cases := []struct {
		child datum.Datum
		list  []sqlparse.Expr
		not   bool
		want  string
	}{
		{datum.Null, []sqlparse.Expr{lit(one)}, false, "NULL"},
		{datum.Null, []sqlparse.Expr{lit(one)}, true, "NULL"},
		{one, []sqlparse.Expr{lit(datum.Null), lit(one)}, false, "TRUE"},
		{one, []sqlparse.Expr{lit(datum.Null), lit(one)}, true, "FALSE"},
		{two, []sqlparse.Expr{lit(datum.Null), lit(one)}, false, "NULL"},
		{two, []sqlparse.Expr{lit(datum.Null), lit(one)}, true, "NULL"},
		{two, []sqlparse.Expr{lit(one)}, true, "TRUE"},
		{one, []sqlparse.Expr{lit(datum.NewFloat(1))}, false, "TRUE"},
		{datum.NewInt(1<<53 + 1), []sqlparse.Expr{lit(datum.NewFloat(1 << 53))}, false, "TRUE"},
		{datum.NewInt(1 << 53), []sqlparse.Expr{lit(datum.NewInt(1<<53 + 1)), lit(datum.NewFloat(1 << 53))}, false, "TRUE"},
	}
	for _, c := range cases {
		f, err := Compile(&sqlparse.InExpr{Child: ref, List: c.list, Not: c.not}, cols)
		if err != nil {
			t.Fatal(err)
		}
		got, err := f(datum.Row{c.child})
		if err != nil {
			t.Fatal(err)
		}
		if got.String() != c.want {
			t.Errorf("%v NOT=%v IN %d members = %v, want %s", c.child, c.not, len(c.list), got, c.want)
		}
	}
}

// inListProbe compiles `c IN (0, 7, 14, ...)` over an INT column and a
// batch of rows of which about one in fourteen hits.
func inListProbe(tb testing.TB, members int) (EvalFunc, Batch) {
	tb.Helper()
	list := make([]sqlparse.Expr, members)
	for i := range list {
		list[i] = &sqlparse.Literal{Value: datum.NewInt(int64(i * 7))}
	}
	cols := []plan.ColMeta{{Table: "t", Name: "c"}, {Table: "t", Name: "s"}}
	f, err := Compile(&sqlparse.InExpr{Child: &sqlparse.ColumnRef{Table: "t", Column: "c"}, List: list}, cols)
	if err != nil {
		tb.Fatal(err)
	}
	rows := make(Batch, 1024)
	for i := range rows {
		rows[i] = datum.Row{datum.NewInt(int64(i % (members * 14))), datum.NewString("payload")}
	}
	return f, rows
}

// TestInListProbeZeroAllocs fences the per-row cost of the compiled
// constant IN predicate: probing a whole batch allocates nothing.
func TestInListProbeZeroAllocs(t *testing.T) {
	for _, members := range []int{1, 8, 512} {
		f, rows := inListProbe(t, members)
		hits := 0
		allocs := testing.AllocsPerRun(20, func() {
			hits = 0
			for _, r := range rows {
				if ok, err := EvalPredicate(f, r); err == nil && ok {
					hits++
				}
			}
		})
		if allocs != 0 {
			t.Errorf("%d members: %.1f allocs per batch probe, want 0", members, allocs)
		}
		if hits == 0 || hits == len(rows) {
			t.Errorf("%d members: %d of %d rows hit; the fixture should mix hits and misses", members, hits, len(rows))
		}
	}
}

// TestInListProbeConcurrent probes one compiled predicate from several
// goroutines at once, as exchange workers do: the set is read-only after
// Compile, so every worker must see the sequential answer (run under
// -race).
func TestInListProbeConcurrent(t *testing.T) {
	f, rows := inListProbe(t, 512)
	count := func() int {
		n := 0
		for _, r := range rows {
			if ok, err := EvalPredicate(f, r); err == nil && ok {
				n++
			}
		}
		return n
	}
	want := count()
	got := make([]int, 4)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = count()
		}(w)
	}
	wg.Wait()
	for w, n := range got {
		if n != want {
			t.Errorf("worker %d: %d hits, want %d", w, n, want)
		}
	}
}

// BenchmarkInListProbe times one probed row of a compiled constant IN
// predicate over lists of 1, 8 and 512 members.
func BenchmarkInListProbe(b *testing.B) {
	for _, members := range []int{1, 8, 512} {
		b.Run(fmt.Sprintf("members=%d", members), func(b *testing.B) {
			f, rows := inListProbe(b, members)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := f(rows[i%len(rows)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
