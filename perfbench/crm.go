package main

// The CRM federation (workload.BuildCRM) as the benchmark sees it: the
// source tables read back row by row, so expected answers are computed
// without the engine.

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/datum"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/workload"
)

// Column positions in the CRM source tables.
const (
	custID, custName, custRegion, custSegment = 0, 1, 2, 3
	invID, invCust, invAmount, invStatus      = 0, 1, 2, 3
	tkID, tkCust, tkSeverity, tkOpenedBy      = 0, 1, 2, 3
)

var (
	crmRegions  = []string{"west", "east", "north", "south"}
	crmSegments = []string{"enterprise", "midmarket", "smb"}
	crmStatuses = []string{"paid", "open", "overdue"}
)

// crmTables is a read-back copy of the CRM sources' rows.
type crmTables struct {
	customers  map[int64]datum.Row
	ids        []int64 // customer IDs, ascending
	invoices   []datum.Row
	invByCust  map[int64][]datum.Row
	tickByCust map[int64][]datum.Row
}

func scanAll(t *storage.Table) []datum.Row {
	var out []datum.Row
	t.Scan(func(r datum.Row) bool {
		out = append(out, datum.CloneRow(r))
		return true
	})
	return out
}

// loadCRM reads the three CRM sources. Customers and invoices come from
// storage.Table.Scan. The support source is a CSV wrapper that exposes no
// table handle, so its tickets are read with a bare whole-table scan
// through the wrapper (which charges its link once, during set-up).
func loadCRM(f *workload.CRMFederation) (*crmTables, error) {
	ct := &crmTables{customers: map[int64]datum.Row{}, tickByCust: map[int64][]datum.Row{}}
	cust, ok := f.CRM.Table("customers")
	if !ok {
		return nil, fmt.Errorf("crm source has no customers table")
	}
	for _, r := range scanAll(cust) {
		id := r[custID].Int()
		ct.customers[id] = r
		ct.ids = append(ct.ids, id)
	}
	sort.Slice(ct.ids, func(i, j int) bool { return ct.ids[i] < ct.ids[j] })
	if err := ct.reloadInvoices(f); err != nil {
		return nil, err
	}
	tickets, err := f.Support.ExecuteCtx(context.Background(),
		&plan.Scan{Source: "support", Table: "tickets", Alias: "tickets"})
	if err != nil {
		return nil, fmt.Errorf("read support.tickets: %w", err)
	}
	for _, r := range tickets {
		c := r[tkCust].Int()
		ct.tickByCust[c] = append(ct.tickByCust[c], datum.CloneRow(r))
	}
	return ct, nil
}

// reloadInvoices re-reads billing.invoices (after writes).
func (ct *crmTables) reloadInvoices(f *workload.CRMFederation) error {
	inv, ok := f.Billing.Table("invoices")
	if !ok {
		return fmt.Errorf("billing source has no invoices table")
	}
	ct.invoices = scanAll(inv)
	ct.invByCust = map[int64][]datum.Row{}
	for _, r := range ct.invoices {
		c := r[invCust].Int()
		ct.invByCust[c] = append(ct.invByCust[c], r)
	}
	return nil
}

// c360 is one row of the customer360 view: customer columns then
// invoice columns, in the view's column order.
func c360(c, i datum.Row) datum.Row {
	return datum.Row{c[custID], c[custName], c[custRegion], c[custSegment], i[invID], i[invAmount], i[invStatus]}
}

// c360Cols names customer360's columns in order.
var c360Cols = []string{"id", "name", "region", "segment", "inv_id", "amount", "status"}

// groupKey groups rows for the reference aggregates.
type groupAgg struct {
	key   datum.Row
	count int64
	sum   float64
}

type grouper struct {
	order  []string
	groups map[string]*groupAgg
}

func newGrouper() *grouper { return &grouper{groups: map[string]*groupAgg{}} }

func (g *grouper) add(key datum.Row, amount float64) {
	k := fmt.Sprint(canonRows([]datum.Row{key}))
	a := g.groups[k]
	if a == nil {
		a = &groupAgg{key: key}
		g.groups[k] = a
		g.order = append(g.order, k)
	}
	a.count++
	a.sum += amount
}

// rows renders each group as key columns, COUNT, SUM.
func (g *grouper) rows() []datum.Row {
	out := make([]datum.Row, 0, len(g.order))
	for _, k := range g.order {
		a := g.groups[k]
		r := append(datum.Row{}, a.key...)
		out = append(out, append(r, datum.NewInt(a.count), datum.NewFloat(a.sum)))
	}
	return out
}
