package main

// semijoin: the E20 stale-statistics federation, rebuilt here through the
// public federation and storage APIs. events published its statistics at
// 50 rows and then grew; the adaptive entry point learns the real
// cardinality during warm-up and settles on shipping the probe side's
// join keys as an IN-list into the events source.

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/datum"
	"repro/internal/federation"
	"repro/internal/netsim"
	"repro/internal/schema"
	"repro/internal/storage"
)

const (
	semiTiers      = 50
	semiStaleStats = 50 // events rows when its statistics froze
)

func setupSemijoin(seed int64, sc scale, tr *tracer) (fixture, error) {
	rng := rand.New(rand.NewSource(seed))
	crm := federation.NewRelationalSource("crm", federation.FullSQL(),
		netsim.NewLink(2*time.Millisecond, 1e6, 1))
	users, err := crm.CreateTable(schema.MustTable("users", []schema.Column{
		{Name: "id", Kind: datum.KindInt},
		{Name: "name", Kind: datum.KindString},
		{Name: "tier", Kind: datum.KindString},
	}, 0))
	if err != nil {
		return nil, err
	}
	for i := 1; i <= sc.semiUsers; i++ {
		if err := users.Insert(datum.Row{
			datum.NewInt(int64(i)),
			datum.NewString(fmt.Sprintf("user-%04d", i)),
			datum.NewString(fmt.Sprintf("t%d", i%semiTiers)),
		}); err != nil {
			return nil, err
		}
	}
	crm.RefreshStats()

	logs := federation.NewRelationalSource("logs", federation.FullSQL(),
		netsim.NewLink(2*time.Millisecond, 1e6, 1))
	events, err := logs.CreateTable(schema.MustTable("events", []schema.Column{
		{Name: "user_id", Kind: datum.KindInt},
		{Name: "action", Kind: datum.KindString},
	}))
	if err != nil {
		return nil, err
	}
	// Actions carry a payload of seeded length (E20 uses a fixed 24
	// bytes), so the bytes a query ships depend on the seed.
	insert := func(i int, userID int64) error {
		return events.Insert(datum.Row{
			datum.NewInt(userID),
			datum.NewString(fmt.Sprintf("action-%05d-%s", i, strings.Repeat("p", 16+rng.Intn(17)))),
		})
	}
	for i := 0; i < semiStaleStats; i++ {
		if err := insert(i, int64(i+1)); err != nil {
			return nil, err
		}
	}
	logs.RefreshStats() // statistics freeze here
	for i := semiStaleStats; i < sc.semiEvents; i++ {
		if err := insert(i, 1+rng.Int63n(int64(sc.semiUsers))); err != nil {
			return nil, err
		}
	}

	e := core.New()
	for _, s := range []federation.Source{crm, logs} {
		if tr != nil {
			s = &tracedSource{Source: s, tr: tr}
		}
		if err := e.Register(s); err != nil {
			return nil, err
		}
	}
	var stmts []stmt
	for _, t := range rng.Perm(semiTiers) {
		stmts = append(stmts, semiStatement(users, events, fmt.Sprintf("t%d", t)))
	}
	return newClosedFixture(e, stmts)
}

// semiStatement is the E20 join for one tier.
func semiStatement(users, events *storage.Table, tier string) stmt {
	return stmt{
		sql: fmt.Sprintf(`SELECT u.name, e.action FROM crm.users u
			JOIN logs.events e ON u.id = e.user_id
			WHERE u.tier = '%s' ORDER BY u.name, e.action`, tier),
		ordered: true,
		want: func() []datum.Row {
			names := map[int64]datum.Datum{}
			for _, u := range scanAll(users) {
				if u[2].Str() == tier {
					names[u[0].Int()] = u[1]
				}
			}
			var out []datum.Row
			for _, ev := range scanAll(events) {
				if n, ok := names[ev[0].Int()]; ok {
					out = append(out, datum.Row{n, ev[1]})
				}
			}
			sort.Slice(out, func(a, b int) bool {
				if x, y := out[a][0].Str(), out[b][0].Str(); x != y {
					return x < y
				}
				return out[a][1].Str() < out[b][1].Str()
			})
			return out
		},
	}
}
