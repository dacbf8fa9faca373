package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
)

func TestExplainAnalyzeShowsActualRows(t *testing.T) {
	e := newFederation(t)
	out, err := e.ExplainAnalyze(context.Background(),
		"SELECT name FROM crm.customers WHERE region = 'east'", QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Two east customers exist; the top operator must report actual=2.
	lines := strings.Split(out, "\n")
	if !strings.Contains(lines[0], "actual=2") {
		t.Errorf("top operator line = %q", lines[0])
	}
	if !strings.Contains(out, "-- actual:") || !strings.Contains(out, "-- estimated:") {
		t.Errorf("missing actual/estimated footer:\n%s", out)
	}
	if !strings.Contains(out, "shipped=") {
		t.Errorf("missing network accounting:\n%s", out)
	}
}

func TestExplainAnalyzeJoinOperatorRows(t *testing.T) {
	e := newFederation(t)
	out, err := e.ExplainAnalyze(context.Background(), `SELECT c.name, i.amount FROM crm.customers c
		JOIN billing.invoices i ON c.id = i.cust_id`, QueryOptions{NoSemiJoin: true})
	if err != nil {
		t.Fatal(err)
	}
	// 4 invoices join 4 customers by cust_id: the join emits 4 rows.
	found := false
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "JOIN") && strings.Contains(line, "actual=4") {
			found = true
		}
	}
	if !found {
		t.Errorf("join row count missing:\n%s", out)
	}
}

func TestExplainAnalyzeErrors(t *testing.T) {
	e := newFederation(t)
	if _, err := e.ExplainAnalyze(context.Background(), "SELEKT", QueryOptions{}); err == nil {
		t.Error("parse error must surface")
	}
	if _, err := e.ExplainAnalyze(context.Background(), "SELECT 1/0", QueryOptions{}); err == nil {
		t.Error("runtime error must surface")
	}
}

// TestExplainAnalyzeRunsEngineQueryPath pins that EXPLAIN ANALYZE reports
// on the query the engine actually runs: it observes the caller's
// context, feeds runtime feedback like any other execution, and its
// observed counts are the rows a plain query returns.
func TestExplainAnalyzeRunsEngineQueryPath(t *testing.T) {
	e := newFederation(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.ExplainAnalyze(ctx, "SELECT name FROM crm.customers", QueryOptions{}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled ExplainAnalyze error = %v, want context.Canceled", err)
	}

	stale := staleStatsFixture(t, 4000)
	if _, err := stale.ExplainAnalyze(context.Background(), staleStatsQuery, QueryOptions{Parallel: true}); err != nil {
		t.Fatal(err)
	}
	if stale.Feedback().Len() == 0 {
		t.Error("ExplainAnalyze left no observation in the feedback store")
	}

	const q = "SELECT name FROM crm.customers WHERE region = 'west'"
	res, err := e.QueryOpts(q, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.ExplainAnalyze(context.Background(), q, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	top := strings.Split(out, "\n")[0]
	if want := fmt.Sprintf("actual=%d)", len(res.Rows)); !strings.Contains(top, want) {
		t.Errorf("top operator line = %q, want %s", top, want)
	}
}
