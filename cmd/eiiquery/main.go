// Command eiiquery loads the demo CRM federation (three heterogeneous
// sources plus the customer360 mediated view) and runs federated SQL
// against it — either the statements given as arguments, or an interactive
// prompt on stdin.
//
// Prefix a statement with "explain " to print the optimized plan, the SQL
// pushed to each source, and the cost estimate instead of rows; prefix it
// with "analyze " to run it and print each operator's estimated vs actual
// rows plus the network accounting against the prediction.
//
// Fault-tolerance flags inject failures and exercise the degradation path:
//
//	--fail-rate 0.2      every source link drops ~20% of transfers
//	--retries 4          attempts per remote fetch (capped backoff)
//	--deadline 100ms     per-query deadline
//	--partial            answer from the surviving sources, with a warning
//	--trace              print the query's span tree (plan / fetch / operator spans)
//	--tenant gold        run queries under the named admission tenant
//	--explain            print estimated-vs-observed rows per operator after execution
//	--no-adaptive        turn off cardinality feedback and mid-query re-planning
//
// Statements may contain ? or $n placeholders; bind values with repeated
// --param flags (typed: integers, floats, and strings are recognized), or
// interactively with \prepare and \exec:
//
//	eiiquery --param west --param 800 "SELECT name FROM customer360 WHERE region = ? AND amount > ?"
//	eii> \prepare SELECT name FROM customer360 WHERE region = $1
//	eii> \exec west
//
// Usage:
//
//	eiiquery "SELECT region, COUNT(*) FROM customer360 GROUP BY region"
//	eiiquery --fail-rate 0.3 --partial --retries 3 "SELECT * FROM customer360"
//	eiiquery            # interactive
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/datum"
	"repro/internal/exec"
	"repro/internal/netsim"
	"repro/internal/workload"
)

func main() {
	customers := flag.Int("customers", 500, "customers in the demo federation")
	failRate := flag.Float64("fail-rate", 0, "injected per-transfer failure probability on every source link (0..1)")
	retries := flag.Int("retries", 1, "attempts per remote fetch (>1 enables capped-backoff retry)")
	deadline := flag.Duration("deadline", 0, "per-query deadline (0: none)")
	partial := flag.Bool("partial", false, "tolerate source failures: answer from the surviving sources")
	trace := flag.Bool("trace", false, "print the query-scoped span tree after each result")
	explain := flag.Bool("explain", false, "print the executed plan with estimated-vs-observed rows per operator")
	noAdaptive := flag.Bool("no-adaptive", false, "disable adaptive query processing (cardinality feedback + mid-query re-planning)")
	parallelism := flag.Int("parallelism", 0, "intra-query worker cap (0: GOMAXPROCS, 1: sequential)")
	batchSize := flag.Int("batch", 0, "rows per execution batch (0: default 1024, 1: row-at-a-time)")
	tenant := flag.String("tenant", "", `admission tenant to run queries under (default: the "default" tenant)`)
	var params []datum.Datum
	flag.Func("param", "bind a placeholder value, in order (repeatable)", func(s string) error {
		params = append(params, parseParam(s))
		return nil
	})
	flag.Parse()

	cfg := workload.DefaultCRM()
	cfg.Customers = *customers
	fed, err := workload.BuildCRM(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "eiiquery: building federation: %v\n", err)
		os.Exit(1)
	}
	engine := fed.Engine

	if *failRate > 0 {
		for i, name := range engine.Sources() {
			src, _ := engine.Source(name)
			src.Link().SetFaultProfile(&netsim.FaultProfile{
				Seed:        int64(i + 1),
				FailureRate: *failRate,
			})
		}
		fmt.Fprintf(os.Stderr, "eiiquery: injecting %.0f%% transfer failures on every source link\n", *failRate*100)
	}
	qo := core.QueryOptions{
		AllowPartial: *partial, Deadline: *deadline,
		Parallelism: *parallelism, BatchSize: *batchSize,
		Trace: *trace, Tenant: *tenant,
		Adaptive: !*noAdaptive, Explain: *explain,
	}
	if *retries > 1 {
		qo.Retry = exec.RetryPolicy{Attempts: *retries}
	}

	if flag.NArg() > 0 {
		for _, sql := range flag.Args() {
			if err := runOne(engine, sql, qo, params); err != nil {
				fmt.Fprintf(os.Stderr, "eiiquery: %v\n", err)
				os.Exit(1)
			}
		}
		return
	}

	fmt.Println("eiiquery — federated SQL over the demo CRM federation")
	fmt.Printf("sources: %s; mediated views: %s\n",
		strings.Join(engine.Sources(), ", "), strings.Join(engine.Catalog().ViewNames(), ", "))
	fmt.Println(`type SQL (or "explain <sql>", "\prepare <sql>", "\exec <values...>", "\q" to quit)`)
	var prepared *core.PreparedStatement
	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("eii> ")
		if !sc.Scan() {
			break
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if line == `\q` || strings.EqualFold(line, "quit") || strings.EqualFold(line, "exit") {
			break
		}
		if rest, ok := cutPrefixFold(line, `\prepare `); ok {
			ps, err := engine.PrepareOpts(rest, qo)
			if err != nil {
				fmt.Fprintf(os.Stderr, "error: %v\n", err)
				continue
			}
			prepared = ps
			fmt.Printf("prepared (%d params): %s\n", ps.NumParams(), ps.SQL())
			continue
		}
		if rest, ok := cutPrefixFold(line, `\exec`); ok {
			if prepared == nil {
				fmt.Fprintln(os.Stderr, `error: no prepared statement (use \prepare first)`)
				continue
			}
			var vals []datum.Datum
			for _, f := range strings.Fields(rest) {
				vals = append(vals, parseParam(f))
			}
			engine.ResetMetrics()
			res, err := prepared.Execute(vals...)
			if err != nil {
				fmt.Fprintf(os.Stderr, "error: %v\n", err)
				continue
			}
			printResult(res)
			continue
		}
		if err := runOne(engine, line, qo, nil); err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
		}
	}
}

// parseParam types a command-line parameter: integer, then float, then
// bare string.
func parseParam(s string) datum.Datum {
	if n, err := strconv.ParseInt(s, 10, 64); err == nil {
		return datum.NewInt(n)
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return datum.NewFloat(f)
	}
	return datum.NewString(strings.Trim(s, `'"`))
}

func runOne(engine *core.Engine, sql string, qo core.QueryOptions, params []datum.Datum) error {
	if rest, ok := cutPrefixFold(sql, "analyze "); ok {
		out, err := engine.ExplainAnalyze(context.Background(), rest, qo)
		if err != nil {
			return err
		}
		fmt.Println(out)
		return nil
	}
	if rest, ok := cutPrefixFold(sql, "explain "); ok {
		out, err := engine.Explain(rest, core.QueryOptions{})
		if err != nil {
			return err
		}
		fmt.Println(out)
		return nil
	}
	engine.ResetMetrics()
	var res *core.Result
	if len(params) > 0 {
		ps, err := engine.PrepareOpts(sql, qo)
		if err != nil {
			return err
		}
		res, err = ps.Execute(params...)
		if err != nil {
			return err
		}
	} else {
		var err error
		res, err = engine.QueryOpts(sql, qo)
		if err != nil {
			return err
		}
	}
	printResult(res)
	return nil
}

func cutPrefixFold(s, prefix string) (string, bool) {
	if len(s) >= len(prefix) && strings.EqualFold(s[:len(prefix)], prefix) {
		return s[len(prefix):], true
	}
	return s, false
}

func printResult(res *core.Result) {
	widths := make([]int, len(res.Columns))
	for i, c := range res.Columns {
		widths[i] = len(c)
	}
	cells := make([][]string, len(res.Rows))
	for r, row := range res.Rows {
		cells[r] = make([]string, len(row))
		for c, d := range row {
			cells[r][c] = d.Display()
			if c < len(widths) && len(cells[r][c]) > widths[c] {
				widths[c] = len(cells[r][c])
			}
		}
	}
	line := func(parts []string) {
		for i, p := range parts {
			if i > 0 {
				fmt.Print(" | ")
			}
			fmt.Printf("%-*s", widths[i], p)
		}
		fmt.Println()
	}
	line(res.Columns)
	sep := make([]string, len(res.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range cells {
		line(row)
	}
	cache := "plan compiled"
	if res.CacheHit {
		cache = "plan cached"
	}
	fmt.Printf("(%d rows; plan %s [%s]; exec %s [%d batches, parallelism %d]; network: %s)\n",
		len(res.Rows), res.PlanTime.Round(time.Microsecond), cache,
		res.Elapsed.Round(time.Microsecond), res.BatchesProcessed, res.ExecParallelism,
		res.Network)
	if res.ExplainOutput != "" {
		fmt.Print(res.ExplainOutput)
	}
	if res.ReplanCount > 0 || res.EstimateErrors > 0 {
		fmt.Printf("note: adaptive: %d mid-query replans, %d operators misestimated ≥10x\n",
			res.ReplanCount, res.EstimateErrors)
	}
	if res.Trace != nil {
		fmt.Print(res.Trace.Render())
	}
	if res.Partial {
		fmt.Printf("WARNING: partial result — sources skipped after failures: %s\n",
			strings.Join(res.SkippedSources, ", "))
	}
	if len(res.ReplicaSources) > 0 {
		fmt.Printf("note: served from warehouse replica for: %s\n",
			strings.Join(res.ReplicaSources, ", "))
	}
	if len(res.Retries) > 0 {
		var parts []string
		for src, n := range res.Retries {
			parts = append(parts, fmt.Sprintf("%s=%d", src, n))
		}
		fmt.Printf("note: retries per source: %s\n", strings.Join(parts, ", "))
	}
}
