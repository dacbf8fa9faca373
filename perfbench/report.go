package main

// report: analytic statements over the CRM federation, one closed-loop
// client calling core.Engine.QueryCtx. Most of the time is spent in
// mediator operators (joins, aggregation, sort) and in materializing
// large answers.

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/datum"
	"repro/internal/workload"
)

// reportVariants is how many constants each template rotates through.
const reportVariants = 8

func setupReport(seed int64, sc scale, tr *tracer) (fixture, error) {
	cfg := workload.DefaultCRM()
	cfg.Customers = sc.reportCustomers
	cfg.Seed = seed
	f, err := workload.BuildCRM(cfg)
	if err != nil {
		return nil, err
	}
	ct, err := loadCRM(f)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		if err := wrapSources(f.Engine, tr); err != nil {
			return nil, err
		}
	}
	return newClosedFixture(f.Engine, reportStatements(ct, seed))
}

// reportStatements interleaves five templates, each with its own
// rotating constants: op i runs template i%5 with variant
// (i/5)%reportVariants. Constants are stratified — variant v draws from
// its own slice of each range, categorical values rotate from a seeded
// offset — so every seed's mix does about the same work.
func reportStatements(ct *crmTables, seed int64) []stmt {
	rng := rand.New(rand.NewSource(seed))
	// stratum draws variant v's value from the v-th of reportVariants
	// equal slices of [lo, hi).
	stratum := func(v, lo, hi int) int {
		w := (hi - lo) / reportVariants
		return lo + v*w + rng.Intn(w)
	}
	off := rng.Intn(12)
	var templates [5][]stmt
	for v := 0; v < reportVariants; v++ {
		k := v + off
		templates[0] = append(templates[0], reportJoin(ct, stratum(v, 50, 950)))
		templates[1] = append(templates[1], reportGroupBy(ct, stratum(v, 50, 950)))
		templates[2] = append(templates[2], reportFanOut(ct, 1+k%4, crmSegments[k%3]))
		templates[3] = append(templates[3], reportSelective(ct, crmRegions[k%4], crmStatuses[k%3], stratum(v, 200, 950)))
		templates[4] = append(templates[4], reportTopN(ct, crmSegments[k%3], stratum(v, 0, 560)))
	}
	var out []stmt
	for v := 0; v < reportVariants; v++ {
		for t := range templates {
			out = append(out, templates[t][v])
		}
	}
	return out
}

// reportJoin is the E14 filter join: a large answer, materialized.
func reportJoin(ct *crmTables, minAmount int) stmt {
	return stmt{
		sql: fmt.Sprintf(`SELECT c.region, c.name, i.amount FROM crm.customers c
			JOIN billing.invoices i ON c.id = i.cust_id WHERE i.amount > %d`, minAmount),
		want: func() []datum.Row {
			var out []datum.Row
			for _, i := range ct.invoices {
				if i[invAmount].Float() > float64(minAmount) {
					c := ct.customers[i[invCust].Int()]
					out = append(out, datum.Row{c[custRegion], c[custName], i[invAmount]})
				}
			}
			return out
		},
	}
}

// reportGroupBy aggregates the customer360 mediated view.
func reportGroupBy(ct *crmTables, minAmount int) stmt {
	return stmt{
		sql: fmt.Sprintf(`SELECT region, status, COUNT(*) AS n, SUM(amount) AS total
			FROM customer360 WHERE amount > %d GROUP BY region, status`, minAmount),
		want: func() []datum.Row {
			g := newGrouper()
			for _, i := range ct.invoices {
				if i[invAmount].Float() > float64(minAmount) {
					c := ct.customers[i[invCust].Int()]
					g.add(datum.Row{c[custRegion], i[invStatus]}, i[invAmount].Float())
				}
			}
			return g.rows()
		},
	}
}

// reportFanOut is the E7 three-source fan-out aggregate.
func reportFanOut(ct *crmTables, severity int, segment string) stmt {
	return stmt{
		sql: fmt.Sprintf(`SELECT c.region, COUNT(*) AS n, SUM(i.amount) AS total
			FROM crm.customers c
			JOIN billing.invoices i ON c.id = i.cust_id
			JOIN support.tickets tk ON tk.cust_id = c.id
			WHERE tk.severity = %d AND c.segment = '%s'
			GROUP BY c.region`, severity, segment),
		want: func() []datum.Row {
			g := newGrouper()
			for _, id := range ct.ids {
				c := ct.customers[id]
				if c[custSegment].Str() != segment {
					continue
				}
				for _, tk := range ct.tickByCust[id] {
					if tk[tkSeverity].Int() != int64(severity) {
						continue
					}
					for _, i := range ct.invByCust[id] {
						g.add(datum.Row{c[custRegion]}, i[invAmount].Float())
					}
				}
			}
			return g.rows()
		},
	}
}

// reportSelective is the E1 selective join.
func reportSelective(ct *crmTables, region, status string, minAmount int) stmt {
	return stmt{
		sql: fmt.Sprintf(`SELECT c.name, i.amount FROM crm.customers c
			JOIN billing.invoices i ON c.id = i.cust_id
			WHERE c.region = '%s' AND i.status = '%s' AND i.amount > %d`, region, status, minAmount),
		want: func() []datum.Row {
			var out []datum.Row
			for _, i := range ct.invoices {
				c := ct.customers[i[invCust].Int()]
				if c[custRegion].Str() == region && i[invStatus].Str() == status && i[invAmount].Float() > float64(minAmount) {
					out = append(out, datum.Row{c[custName], i[invAmount]})
				}
			}
			return out
		},
	}
}

// reportTopN is an ORDER BY ... LIMIT over a join; inv_id breaks ties so
// the top rows are unique.
func reportTopN(ct *crmTables, segment string, minAmount int) stmt {
	const limit = 20
	return stmt{
		sql: fmt.Sprintf(`SELECT c.name, i.inv_id, i.amount FROM crm.customers c
			JOIN billing.invoices i ON c.id = i.cust_id
			WHERE c.segment = '%s' AND i.amount > %d
			ORDER BY i.amount DESC, i.inv_id LIMIT %d`, segment, minAmount, limit),
		ordered: true,
		want: func() []datum.Row {
			var hits []datum.Row
			for _, i := range ct.invoices {
				c := ct.customers[i[invCust].Int()]
				if c[custSegment].Str() == segment && i[invAmount].Float() > float64(minAmount) {
					hits = append(hits, datum.Row{c[custName], i[invID], i[invAmount]})
				}
			}
			sort.Slice(hits, func(a, b int) bool {
				x, y := hits[a][2].Float(), hits[b][2].Float()
				if x != y {
					return x > y
				}
				return hits[a][1].Int() < hits[b][1].Int()
			})
			if len(hits) > limit {
				hits = hits[:limit]
			}
			return hits
		},
	}
}
