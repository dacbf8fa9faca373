package main

// portal: interactive traffic through the HTTP API. An open-loop
// generator offers Poisson arrivals at a fixed rate to two client
// connections; each op is timed from its due time, so a stall also
// charges the ops queued behind it. Reads go to the httpapi handler on a
// loopback listener with admission control on; writes are invoice inserts
// the billing source's own applications make (Updatable.Insert on the
// source), since the mediator itself is read-only.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/datum"
	"repro/internal/httpapi"
	"repro/internal/plan"
	"repro/internal/workload"
)

const (
	portalClients = 2 // client connections (one per CPU of the reference box)
	// Op mix, by position in each run of ten arrivals: eight templated
	// lookups, one ad-hoc lookup, one write.
	portalMixLen   = 10
	portalAdhocPos = 8
	portalWritePos = 9
	// portalProbeOps is how many generated ops the wrapper probe runs.
	portalProbeOps = 60
	// portalDrainLimit bounds how long a backlog may drain after the
	// arrival window before the remaining ops count as failed.
	portalDrainLimit = 60 * time.Second
)

// portalStmt is one distinct read request.
type portalStmt struct {
	sql    string
	params []any // bound with ?; nil sends inline literals
	tenant string
	want   func() []datum.Row
	body   []byte
}

// arrival is one op of the open loop.
type arrival struct {
	due  time.Duration
	stmt int       // index into portalFixture.stmts; -1 for a write
	row  datum.Row // the invoice a write inserts
}

type portalFixture struct {
	fed     *workload.CRMFederation
	ct      *crmTables
	rate    float64
	rng     *rand.Rand
	nextInv int64
	nextPos int // position of the next op in the mix

	stmts  []portalStmt
	byText map[string]int

	srv    *http.Server
	served chan struct{}
	url    string
	client *http.Client
}

func setupPortal(seed int64, sc scale, tr *tracer) (fixture, error) {
	cfg := workload.DefaultCRM()
	cfg.Customers = sc.portalCustomers
	cfg.Seed = seed
	fed, err := workload.BuildCRM(cfg)
	if err != nil {
		return nil, err
	}
	ct, err := loadCRM(fed)
	if err != nil {
		return nil, err
	}
	eng := fed.Engine
	// Admission as in E16: an interactive tenant and a lower-priority one.
	eng.EnableAdmission(core.AdmissionConfig{RetryAfter: 20 * time.Millisecond})
	for _, tc := range []core.TenantConfig{
		{Name: "gold", Priority: 3, MaxConcurrent: 4, MaxQueueDepth: 8},
		{Name: "bronze", Priority: 1, MaxConcurrent: 2, MaxQueueDepth: 4},
	} {
		if err := eng.DefineTenant(tc); err != nil {
			return nil, err
		}
	}
	var h http.Handler = httpapi.NewHandler(eng)
	if tr != nil {
		if err := wrapSources(eng, tr); err != nil {
			return nil, err
		}
		h = &tracedHandler{inner: h, tr: tr}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f := &portalFixture{
		fed:     fed,
		ct:      ct,
		rate:    sc.portalRate,
		rng:     rand.New(rand.NewSource(seed)),
		nextInv: int64(len(ct.invoices)) + 1,
		byText:  map[string]int{},
		srv:     &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		served:  make(chan struct{}),
		url:     "http://" + ln.Addr().String() + "/query",
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     portalClients,
			MaxIdleConnsPerHost: portalClients,
			DisableCompression:  true,
		}},
	}
	go func() {
		defer close(f.served)
		_ = f.srv.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	if err := f.warmUp(); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// warmUp opens both client connections and caches the templated plans:
// every lookup template in both forms, from two goroutines at once.
func (f *portalFixture) warmUp() error {
	var idx []int
	for i := 0; i < 10; i++ {
		id := f.ct.ids[i*len(f.ct.ids)/10]
		for t := 0; t < 2; t++ {
			for _, params := range []bool{false, true} {
				idx = append(idx, f.lookup(t, id, params))
			}
		}
	}
	errs := make([]error, portalClients)
	var wg sync.WaitGroup
	for w := 0; w < portalClients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := w; j < len(idx); j += portalClients {
				if _, err := f.send(f.stmts[idx[j]], 0); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (f *portalFixture) engine() *core.Engine { return f.fed.Engine }

func (f *portalFixture) close() {
	f.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = f.srv.Shutdown(ctx) // a timeout here leaves nothing to clean up: Serve still returns
	<-f.served
}

func (f *portalFixture) statements() []string {
	out := make([]string, len(f.stmts))
	for i, s := range f.stmts {
		out[i] = s.sql
	}
	return out
}

// register interns a read request and returns its statement index.
func (f *portalFixture) register(sql string, params []any, tenant string, want func() []datum.Row) int {
	key := sql + "\x00" + fmt.Sprint(params)
	if i, ok := f.byText[key]; ok {
		return i
	}
	body, err := json.Marshal(httpapi.QueryRequest{SQL: sql, Params: params})
	if err != nil {
		panic(err) // strings and ints always marshal
	}
	f.stmts = append(f.stmts, portalStmt{sql: sql, params: params, tenant: tenant, want: want, body: body})
	f.byText[key] = len(f.stmts) - 1
	return len(f.stmts) - 1
}

// lookup registers a templated point lookup of customer id: template 0
// reads the customer360 view, template 1 the support tickets. With
// params the constant is sent as a bound parameter (the handler prepares
// the statement per request); otherwise inline (the plan cache's
// transparent normalization).
func (f *portalFixture) lookup(template int, id int64, params bool) int {
	ct := f.ct
	var text string
	var want func() []datum.Row
	switch template {
	case 0:
		text = "SELECT name, amount, status FROM customer360 WHERE id = %s"
		want = func() []datum.Row {
			var out []datum.Row
			c := ct.customers[id]
			for _, i := range ct.invByCust[id] {
				out = append(out, datum.Row{c[custName], i[invAmount], i[invStatus]})
			}
			return out
		}
	default:
		text = "SELECT ticket_id, severity, opened_by FROM support.tickets WHERE cust_id = %s"
		want = func() []datum.Row {
			var out []datum.Row
			for _, t := range ct.tickByCust[id] {
				out = append(out, datum.Row{t[tkID], t[tkSeverity], t[tkOpenedBy]})
			}
			return out
		}
	}
	if params {
		return f.register(fmt.Sprintf(text, "?"), []any{id}, "gold", want)
	}
	return f.register(fmt.Sprintf(text, strconv.FormatInt(id, 10)), nil, "gold", want)
}

// adhoc registers an ad-hoc lookup. Its shape — the projected column
// subset (127), an optional extra predicate (6) and view vs base-table
// join (2) — is drawn from 1524 shapes, more than the plan cache's 1024
// entries, so most ad-hoc ops compile.
func (f *portalFixture) adhoc() int {
	ct, rng := f.ct, f.rng
	mask := 1 + rng.Intn(1<<len(c360Cols)-1)
	extra := rng.Intn(6)
	base := rng.Intn(2) == 1
	id := ct.ids[rng.Intn(len(ct.ids))]
	region, segment, status := crmRegions[rng.Intn(4)], crmSegments[rng.Intn(3)], crmStatuses[rng.Intn(3)]
	amount := float64(50 + rng.Intn(900))

	qual := func(col int) string {
		if !base {
			return c360Cols[col]
		}
		if col < 4 {
			return "c." + c360Cols[col]
		}
		return "i." + c360Cols[col]
	}
	var cols []string
	var proj []int
	for c := range c360Cols {
		if mask&(1<<c) != 0 {
			proj = append(proj, c)
			cols = append(cols, qual(c))
		}
	}
	from := "customer360"
	if base {
		from = "crm.customers c JOIN billing.invoices i ON c.id = i.cust_id"
	}
	where := fmt.Sprintf("%s = %d", qual(0), id)
	keep := func(r datum.Row) bool { return true }
	switch extra {
	case 1:
		where += fmt.Sprintf(" AND %s = '%s'", qual(2), region)
		keep = func(r datum.Row) bool { return r[2].Str() == region }
	case 2:
		where += fmt.Sprintf(" AND %s = '%s'", qual(3), segment)
		keep = func(r datum.Row) bool { return r[3].Str() == segment }
	case 3:
		where += fmt.Sprintf(" AND %s = '%s'", qual(6), status)
		keep = func(r datum.Row) bool { return r[6].Str() == status }
	case 4:
		where += fmt.Sprintf(" AND %s > %d", qual(5), int(amount))
		keep = func(r datum.Row) bool { return r[5].Float() > amount }
	case 5:
		where += fmt.Sprintf(" AND %s < %d", qual(5), int(amount))
		keep = func(r datum.Row) bool { return r[5].Float() < amount }
	}
	sql := fmt.Sprintf("SELECT %s FROM %s WHERE %s", strings.Join(cols, ", "), from, where)
	return f.register(sql, nil, "bronze", func() []datum.Row {
		var out []datum.Row
		c := ct.customers[id]
		for _, i := range ct.invByCust[id] {
			r := c360(c, i)
			if !keep(r) {
				continue
			}
			p := make(datum.Row, len(proj))
			for k, col := range proj {
				p[k] = r[col]
			}
			out = append(out, p)
		}
		return out
	})
}

// nextOp draws the next op of the mix. The mix is fixed per ten ops so
// that its shares do not vary with the seed; the constants are random.
// Templated lookups alternate between the two templates and, every
// other pair, between inline and bound constants.
func (f *portalFixture) nextOp() arrival {
	rng := f.rng
	pos := f.nextPos % portalMixLen
	f.nextPos++
	switch pos {
	default:
		id := f.ct.ids[rng.Intn(len(f.ct.ids))]
		return arrival{stmt: f.lookup(pos%2, id, pos/2%2 == 1)}
	case portalAdhocPos:
		return arrival{stmt: f.adhoc()}
	case portalWritePos:
		row := datum.Row{
			datum.NewInt(f.nextInv),
			datum.NewInt(f.ct.ids[rng.Intn(len(f.ct.ids))]),
			datum.NewFloat(float64(10 + rng.Intn(990))),
			datum.NewString(crmStatuses[rng.Intn(3)]),
		}
		f.nextInv++
		return arrival{stmt: -1, row: row}
	}
}

// arrivals draws the Poisson schedule for a window of length d.
func (f *portalFixture) arrivals(d time.Duration) []arrival {
	var out []arrival
	due := time.Duration(0)
	for {
		due += time.Duration(f.rng.ExpFloat64() / f.rate * float64(time.Second))
		if due >= d {
			return out
		}
		a := f.nextOp()
		a.due = due
		out = append(out, a)
	}
}

// reply is a decoded /query response.
type reply struct {
	resp              httpapi.QueryResponse
	bytes             int
	plan, exec, queue time.Duration
}

// send posts one read and decodes the answer; op is the traced op ID
// (0 when untraced).
func (f *portalFixture) send(st portalStmt, op uint64) (*reply, error) {
	req, err := http.NewRequest(http.MethodPost, f.url, bytes.NewReader(st.body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(httpapi.TenantHeader, st.tenant)
	if op != 0 {
		req.Header.Set(opHeader, strconv.FormatUint(op, 10))
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d for %s: %s", resp.StatusCode, oneLine(st.sql), bytes.TrimSpace(body))
	}
	r := &reply{bytes: len(body)}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	if err := dec.Decode(&r.resp); err != nil {
		return nil, fmt.Errorf("decode answer to %s: %w", oneLine(st.sql), err)
	}
	for _, f := range []struct {
		text string
		d    *time.Duration
	}{{r.resp.PlanTime, &r.plan}, {r.resp.Elapsed, &r.exec}, {r.resp.QueueTime, &r.queue}} {
		if f.text == "" {
			continue // queueTime is absent when the query did not wait
		}
		if *f.d, err = time.ParseDuration(f.text); err != nil {
			return nil, fmt.Errorf("answer to %s: %w", oneLine(st.sql), err)
		}
	}
	return r, nil
}

// run offers the arrivals of a window of length d to portalClients
// client goroutines, each taking the next arrival, waiting for its due
// time and issuing it. Outstanding ops drain after the window.
func (f *portalFixture) run(d time.Duration, tr *tracer) (*phase, error) {
	arr := f.arrivals(d)
	samples := make([]sample, len(arr))
	var next atomic.Int64
	eng := f.fed.Engine
	net0, cache0 := eng.NetworkTotals(), eng.PlanCacheStats()
	res0 := snapResources()
	epoch := time.Now()
	marks := markSlices(epoch, d)
	var wg sync.WaitGroup
	for w := 0; w < portalClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(arr) {
					return
				}
				// An idle runtime can wake up to a millisecond late; the
				// lateness counts as latency and is reported (loadgen.*).
				// Spinning would bill the generator's waiting to the CPU
				// figures.
				time.Sleep(time.Until(epoch.Add(arr[i].due)))
				samples[i] = f.do(epoch, arr[i], d, tr)
			}
		}()
	}
	wg.Wait()
	p := &phase{samples: samples, window: d, wall: time.Since(epoch)}
	p.res = snapResources().since(res0)
	p.marks = marks()
	p.net = eng.NetworkTotals()
	p.net.Sub(net0)
	p.netReads = len(p.reads())
	p.cache = cacheDelta(eng.PlanCacheStats(), cache0)
	return p, nil
}

// do issues one op and times it from its due time.
func (f *portalFixture) do(epoch time.Time, a arrival, window time.Duration, tr *tracer) sample {
	s := sample{write: a.stmt < 0, stmt: a.stmt, due: a.due}
	if tr != nil {
		s.op = tr.newID()
	}
	t0 := time.Now()
	s.start = t0.Sub(epoch)
	switch {
	case s.start > window+portalDrainLimit:
		s.err = fmt.Errorf("op not issued: backlog still draining %v after the window", portalDrainLimit)
	case s.write:
		s.err = f.fed.Billing.Insert("invoices", a.row)
		if tr != nil {
			t1 := time.Now()
			tr.add(span{ID: tr.newID(), Parent: s.op, Name: "write", Source: "billing", Start: tr.since(t0), End: tr.since(t1)})
		}
	default:
		r, err := f.send(f.stmts[a.stmt], s.op)
		s.err = err
		if r != nil {
			q := &r.resp
			s.rows = len(q.Rows)
			s.plan, s.exec, s.queue = r.plan, r.exec, r.queue
			s.cacheHit = q.CacheHit
			s.parallelism = q.ExecParallelism
			s.batches = q.BatchesProcessed
			s.replans, s.estErrors = q.ReplanCount, q.EstimateErrors
			s.respBytes = r.bytes
		}
	}
	t1 := time.Now()
	s.end = t1.Sub(epoch)
	if tr != nil {
		tr.add(span{ID: s.op, Name: "op", Start: tr.since(t0), End: tr.since(t1)})
	}
	return s
}

// check re-reads the invoices (the writes changed them) and sends every
// distinct read statement of the run once more, comparing each answer
// with the one computed from the final table state. Ops whose statement
// answers wrongly count as failed.
func (f *portalFixture) check(p *phase) (failedOps int, problems []string, err error) {
	if err := f.ct.reloadInvoices(f.fed); err != nil {
		return 0, nil, err
	}
	wrong := make([]bool, len(f.stmts))
	for i, st := range f.stmts {
		r, err := f.send(st, 0)
		if err != nil {
			return 0, nil, fmt.Errorf("check: %w", err)
		}
		if d := sameAnswer(canonJSONRows(r.resp.Rows), canonRows(st.want()), false); d != nil {
			wrong[i] = true
			problems = append(problems, fmt.Sprintf("%s %v: %v", oneLine(st.sql), st.params, d))
		}
	}
	for _, s := range p.samples {
		if !s.write && s.err == nil && wrong[s.stmt] {
			failedOps++
		}
	}
	return failedOps, problems, nil
}

// probe runs the reads of the next portalProbeOps generated ops straight
// through the engine, as the handler would (a prepared statement per
// request for bound parameters).
func (f *portalFixture) probe() ([]probeOut, error) {
	eng := f.fed.Engine
	var out []probeOut
	for i := 0; i < portalProbeOps; i++ {
		a := f.nextOp()
		if a.stmt < 0 {
			continue // writes would change what later probes see
		}
		st := f.stmts[a.stmt]
		qo := core.QueryOptions{Parallel: true, Adaptive: true, Tenant: st.tenant}
		var r *core.Result
		var err error
		if st.params != nil {
			var ps *core.PreparedStatement
			if ps, err = eng.PrepareOpts(st.sql, qo); err == nil {
				r, err = ps.ExecuteCtx(context.Background(), datum.NewInt(st.params[0].(int64)))
			}
		} else {
			r, err = eng.QueryOptsCtx(context.Background(), st.sql, qo)
		}
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", oneLine(st.sql), err)
		}
		out = append(out, probeOut{sql: st.sql, rows: canonRows(r.Rows), net: r.Network, plan: plan.Explain(r.Plan)})
	}
	return out, nil
}
