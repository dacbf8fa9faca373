package core

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/datum"
	"repro/internal/exec"
	"repro/internal/federation"
	"repro/internal/feedback"
	"repro/internal/netsim"
	"repro/internal/plan"
	"repro/internal/schema"
)

// staleStatsFixture builds the adversarial adaptive-query federation: a
// users table with accurate statistics and an events table whose published
// statistics are wildly stale — they were computed over the first 50 rows,
// after which the table grew 80x without a stats refresh. The static
// optimizer therefore sees no point in semi-join reduction (the "whole
// table" looks smaller than the probe's key set) and ships the full table;
// runtime feedback corrects this after one observation.
func staleStatsFixture(t *testing.T, eventRows int) *Engine {
	t.Helper()
	e := New()

	crm := federation.NewRelationalSource("crm", federation.FullSQL(), netsim.NewLink(2e6, 1e6, 1))
	users, err := crm.CreateTable(schema.MustTable("users", []schema.Column{
		{Name: "id", Kind: datum.KindInt},
		{Name: "name", Kind: datum.KindString},
		{Name: "tier", Kind: datum.KindString},
	}, 0))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5000; i++ {
		if err := users.Insert(datum.Row{
			datum.NewInt(int64(i)),
			datum.NewString(fmt.Sprintf("user-%04d", i)),
			datum.NewString(fmt.Sprintf("t%d", i%50)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	crm.RefreshStats() // accurate: 5000 rows, 50 distinct tiers

	logs := federation.NewRelationalSource("logs", federation.FullSQL(), netsim.NewLink(2e6, 1e6, 1))
	events, err := logs.CreateTable(schema.MustTable("events", []schema.Column{
		{Name: "user_id", Kind: datum.KindInt},
		{Name: "action", Kind: datum.KindString},
	}))
	if err != nil {
		t.Fatal(err)
	}
	insert := func(i int, userID int64) {
		t.Helper()
		if err := events.Insert(datum.Row{
			datum.NewInt(userID),
			datum.NewString(fmt.Sprintf("action-%05d-payload-payload-payload", i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		insert(i, int64(i+1))
	}
	logs.RefreshStats() // stale from here on: claims 50 rows, 50 distinct user_ids
	for i := 50; i < eventRows; i++ {
		insert(i, int64(i%5000)+1)
	}

	for _, s := range []federation.Source{crm, logs} {
		if err := e.Register(s); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

const staleStatsQuery = `SELECT u.name, e.action FROM crm.users u
	JOIN logs.events e ON u.id = e.user_id
	WHERE u.tier = 't7' ORDER BY u.name, e.action`

func TestAdaptiveReplanFiresAndMatchesStatic(t *testing.T) {
	const queries = 4
	run := func(adaptive bool) (rows [][]datum.Row, bytes int64, replans int) {
		e := staleStatsFixture(t, 4000)
		e.ResetMetrics()
		qo := QueryOptions{Parallel: true, Adaptive: adaptive}
		for i := 0; i < queries; i++ {
			res, err := e.QueryOpts(staleStatsQuery, qo)
			if err != nil {
				t.Fatal(err)
			}
			rows = append(rows, res.Rows)
			replans += res.ReplanCount
		}
		return rows, e.NetworkTotals().BytesShipped, replans
	}

	staticRows, staticBytes, staticReplans := run(false)
	adaptiveRows, adaptiveBytes, adaptiveReplans := run(true)

	if staticReplans != 0 {
		t.Errorf("static run replanned %d times", staticReplans)
	}
	if adaptiveReplans < 1 {
		t.Errorf("adaptive run never replanned (stale stats must trip the cardinality tripwire)")
	}
	// Byte-identical results, query by query.
	for q := range staticRows {
		if len(staticRows[q]) != len(adaptiveRows[q]) {
			t.Fatalf("query %d: static %d rows, adaptive %d rows", q, len(staticRows[q]), len(adaptiveRows[q]))
		}
		for i := range staticRows[q] {
			for c := range staticRows[q][i] {
				if datum.Compare(staticRows[q][i][c], adaptiveRows[q][i][c]) != 0 {
					t.Fatalf("query %d row %d col %d: static %v, adaptive %v",
						q, i, c, staticRows[q][i][c], adaptiveRows[q][i][c])
				}
			}
		}
	}
	// The adaptive run pays one full fetch plus the replanned reduced
	// fetch on query 1, then semi-join-reduced fetches after; the static
	// run ships the whole stale-stats table every time.
	if staticBytes < 2*adaptiveBytes {
		t.Errorf("adaptive shipped %d bytes, static %d — expected static >= 2x", adaptiveBytes, staticBytes)
	}
}

// TestAdaptiveOffReproducesStaticPlans pins the gate: with Adaptive off,
// planning must ignore the feedback store entirely, even after adaptive
// traffic has filled it — a fresh engine with no feedback produces the
// same plan text.
func TestAdaptiveOffReproducesStaticPlans(t *testing.T) {
	warmed := staleStatsFixture(t, 4000)
	for i := 0; i < 2; i++ {
		if _, err := warmed.QueryOpts(staleStatsQuery, QueryOptions{Parallel: true, Adaptive: true}); err != nil {
			t.Fatal(err)
		}
	}
	if warmed.Feedback().Len() == 0 {
		t.Fatal("adaptive queries recorded no feedback")
	}

	fresh := staleStatsFixture(t, 4000)
	pWarm, err := warmed.Plan(staleStatsQuery, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pFresh, err := fresh.Plan(staleStatsQuery, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := plan.Explain(pWarm), plan.Explain(pFresh); got != want {
		t.Errorf("static plan drifted after feedback:\n--- with feedback ---\n%s--- fresh ---\n%s", got, want)
	}

	// Sanity: the adaptive plan on the warmed engine DOES differ — the
	// static-identity check above would be vacuous otherwise.
	pAdaptive, err := warmed.Plan(staleStatsQuery, QueryOptions{Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Explain(pAdaptive) == plan.Explain(pFresh) {
		t.Errorf("adaptive plan ignored feedback (expected semi-join after observed blowup):\n%s", plan.Explain(pAdaptive))
	}
}

// TestAdaptiveFeedbackIgnoresFailedAttempts is the retry-accounting
// regression test: under injected transfer failures with retry enabled,
// only the successful attempt's rows may land in the feedback store, while
// the failed attempts stay visible as numbered trace spans.
func TestAdaptiveFeedbackIgnoresFailedAttempts(t *testing.T) {
	e := New()
	src := federation.NewRelationalSource("s", federation.FullSQL(), netsim.NewLink(0, 1e6, 1))
	tab, err := src.CreateTable(schema.MustTable("t", []schema.Column{
		{Name: "id", Kind: datum.KindInt},
	}, 0))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 700; i++ {
		if err := tab.Insert(datum.Row{datum.NewInt(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	src.RefreshStats()
	if err := e.Register(src); err != nil {
		t.Fatal(err)
	}
	src.Link().SetFaultProfile(&netsim.FaultProfile{FailFirst: 2})

	res, err := e.QueryOpts("SELECT id FROM s.t", QueryOptions{
		Parallel: true, Adaptive: true, Trace: true,
		Retry: exec.RetryPolicy{Attempts: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 700 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Retries["s"] != 2 {
		t.Errorf("retries = %v, want 2 for s", res.Retries)
	}
	if res.Trace == nil || !strings.Contains(res.Trace.Render(), "(attempt 3)") {
		t.Error("failed attempts must stay visible as numbered trace spans")
	}

	est, ok := e.Feedback().Lookup(feedback.Key{Source: "s", Table: "t"})
	if !ok {
		t.Fatal("no feedback recorded for s.t")
	}
	if est.Observations != 1 {
		t.Errorf("observations = %d, want 1 (failed attempts must not contribute)", est.Observations)
	}
	if est.Rows < 650 || est.Rows > 750 {
		t.Errorf("observed rows = %.0f, want ~700 (the successful attempt's count)", est.Rows)
	}
}

// TestReplanTraceKeepsAbortedAttemptFetches reconciles a re-planned
// query's trace with its network accounting: the aborted attempt's fetch
// still happened, so its span stays in the trace, and the fetch spans'
// wire bytes sum to exactly the query's. Feedback absorbs each attempt
// once — the aborted full fetch is observed once, not again when the
// re-planned attempt completes.
func TestReplanTraceKeepsAbortedAttemptFetches(t *testing.T) {
	e := staleStatsFixture(t, 4000)
	res, err := e.QueryOpts(staleStatsQuery, QueryOptions{Parallel: true, Adaptive: true, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.ReplanCount != 1 {
		t.Fatalf("replans = %d, want 1", res.ReplanCount)
	}
	fetches := res.Trace.Fetches()
	want := []struct {
		source string
		rows   int64
	}{{"logs", 4000}, {"crm", 100}, {"logs", 80}}
	if len(fetches) != len(want) {
		t.Fatalf("trace has %d fetch spans, want %d:\n%s", len(fetches), len(want), res.Trace.Render())
	}
	var bytes int64
	for i, f := range fetches {
		if f.Source != want[i].source || f.Rows != want[i].rows {
			t.Errorf("fetch %d = %s rows=%d, want %s rows=%d", i, f.Source, f.Rows, want[i].source, want[i].rows)
		}
		bytes += f.Bytes
	}
	if bytes != res.Network.WireBytes {
		t.Errorf("fetch spans carry %d wire bytes, query shipped %d:\n%s", bytes, res.Network.WireBytes, res.Trace.Render())
	}
	est, ok := e.Feedback().Lookup(feedback.Key{Source: "logs", Table: "events"})
	if !ok || est.Observations != 1 {
		t.Errorf("aborted full fetch observed %d times, want 1", est.Observations)
	}
	if n := e.Feedback().Len(); n != len(want) {
		t.Errorf("feedback holds %d keys, want one per successful fetch (%d)", n, len(want))
	}
}

// TestExplainReportsEstimatedVsObserved covers the post-execution explain
// surface: per-operator estimated and actual row counts.
func TestExplainReportsEstimatedVsObserved(t *testing.T) {
	e := staleStatsFixture(t, 4000)
	res, err := e.QueryOpts(staleStatsQuery, QueryOptions{Parallel: true, Adaptive: true, Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	out := res.ExplainOutput
	if out == "" {
		t.Fatal("no explain output")
	}
	if !strings.Contains(out, "est=") || !strings.Contains(out, "actual=") {
		t.Errorf("explain output missing est/actual annotations:\n%s", out)
	}
	if res.ReplanCount > 0 && !strings.Contains(out, "re-planned") {
		t.Errorf("explain output must note the mid-query replan:\n%s", out)
	}
	if res.EstimateErrors == 0 {
		t.Error("stale-stats query reported no estimate errors")
	}

	// Explain works without Adaptive too (ledger only, no replanning).
	res2, err := e.QueryOpts("SELECT COUNT(*) FROM crm.users", QueryOptions{Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res2.ExplainOutput, "actual=") {
		t.Errorf("non-adaptive explain missing observed counts:\n%s", res2.ExplainOutput)
	}
	if res2.ReplanCount != 0 {
		t.Errorf("non-adaptive query replanned %d times", res2.ReplanCount)
	}
}

// TestPlanCacheDriftInvalidation covers satellite 3: cached adaptive plans
// survive small feedback drift but are invalidated once the store's
// generation bumps, with the churn visible in the drift counter.
func TestPlanCacheDriftInvalidation(t *testing.T) {
	e := staleStatsFixture(t, 4000)
	qo := QueryOptions{Parallel: true, Adaptive: true}
	const q = "SELECT name FROM crm.users WHERE tier = 't3' ORDER BY name"

	if _, err := e.QueryOpts(q, qo); err != nil {
		t.Fatal(err)
	}
	res, err := e.QueryOpts(q, qo)
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit {
		t.Fatal("second identical query must hit the plan cache")
	}

	// Small drift: an observation close to its prediction must not bump
	// the generation or evict the plan.
	k := feedback.Key{Source: "x", Table: "y"}
	e.Feedback().Observe(k, 100, 98)
	res, err = e.QueryOpts(q, qo)
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit {
		t.Error("small feedback drift must not invalidate cached plans")
	}
	if n := e.PlanCacheStats().DriftInvalidations; n != 0 {
		t.Errorf("driftInvalidations = %d after small drift", n)
	}

	// Large drift: a wildly mispredicted observation bumps the generation;
	// the next adaptive lookup must recompile.
	e.Feedback().Observe(feedback.Key{Source: "x", Table: "z"}, 100000, 10)
	res, err = e.QueryOpts(q, qo)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHit {
		t.Error("generation bump must invalidate the cached adaptive plan")
	}
	if n := e.PlanCacheStats().DriftInvalidations; n < 1 {
		t.Errorf("driftInvalidations = %d, want >= 1", n)
	}

	// Static plans are immune: prime one, bump again, still a hit.
	static := QueryOptions{Parallel: true}
	if _, err := e.QueryOpts(q, static); err != nil {
		t.Fatal(err)
	}
	e.Feedback().Observe(feedback.Key{Source: "x", Table: "w"}, 100000, 10)
	res, err = e.QueryOpts(q, static)
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit {
		t.Error("feedback drift must not touch non-adaptive cache entries")
	}
}

// TestE20AdaptiveReplanStorm races concurrent adaptive queries — feedback
// writes, mid-query replans, drift invalidations — and asserts every
// worker goroutine drains. This is the -race stress target of
// `make race-adaptive`.
func TestE20AdaptiveReplanStorm(t *testing.T) {
	e := staleStatsFixture(t, 4000)
	base := runtime.NumGoroutine()

	const workers = 8
	queries := []string{
		staleStatsQuery,
		"SELECT COUNT(*) FROM logs.events",
		"SELECT name FROM crm.users WHERE tier = 't11' ORDER BY name",
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			qo := QueryOptions{Parallel: true, Adaptive: true, Explain: w%2 == 0}
			for i := 0; i < 6; i++ {
				if _, err := e.QueryOpts(queries[(w+i)%len(queries)], qo); err != nil {
					errs <- fmt.Errorf("worker %d query %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	waitGoroutineBaseline(t, base)
}
