package core

import (
	"strings"
	"testing"
)

func TestInSubqueryBasic(t *testing.T) {
	e := newFederation(t)
	r, err := e.Query(`SELECT name FROM crm.customers
		WHERE id IN (SELECT cust_id FROM billing.invoices WHERE amount > 60)
		ORDER BY name`)
	if err != nil {
		t.Fatal(err)
	}
	// Invoices > 60: cust 1 (100), cust 2 (75) → Ann, Bob.
	if got := results(t, r); got != "Ann|Bob" {
		t.Errorf("got %q", got)
	}
}

func TestNotInSubquery(t *testing.T) {
	e := newFederation(t)
	r, err := e.Query(`SELECT name FROM crm.customers
		WHERE id NOT IN (SELECT cust_id FROM billing.invoices)
		ORDER BY name`)
	if err != nil {
		t.Fatal(err)
	}
	// Customers 1,2,3 have invoices; 4 (Dee) does not.
	if got := results(t, r); got != "Dee" {
		t.Errorf("got %q", got)
	}
}

func TestInSubqueryEmptyResult(t *testing.T) {
	e := newFederation(t)
	r, err := e.Query(`SELECT COUNT(*) FROM crm.customers
		WHERE id IN (SELECT cust_id FROM billing.invoices WHERE amount > 1e9)`)
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows[0][0].Int() != 0 {
		t.Errorf("empty IN must match nothing, got %v", r.Rows[0][0])
	}
	r, err = e.Query(`SELECT COUNT(*) FROM crm.customers
		WHERE id NOT IN (SELECT cust_id FROM billing.invoices WHERE amount > 1e9)`)
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows[0][0].Int() != 4 {
		t.Errorf("empty NOT IN must match everything, got %v", r.Rows[0][0])
	}
}

func TestInSubqueryOverMediatedView(t *testing.T) {
	e := newFederation(t)
	r, err := e.Query(`SELECT COUNT(*) FROM crm.customers
		WHERE id IN (SELECT id FROM customer360 WHERE amount >= 75)`)
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows[0][0].Int() != 2 {
		t.Errorf("count = %v", r.Rows[0][0])
	}
}

func TestInSubqueryColumnArityError(t *testing.T) {
	e := newFederation(t)
	_, err := e.Query(`SELECT name FROM crm.customers
		WHERE id IN (SELECT cust_id, amount FROM billing.invoices)`)
	if err == nil || !strings.Contains(err.Error(), "one column") {
		t.Fatalf("multi-column IN subquery must error, got %v", err)
	}
}

func TestInSubqueryRoundTripSQL(t *testing.T) {
	// The AST rendering of IN-subqueries must re-parse.
	e := newFederation(t)
	q := "SELECT name FROM crm.customers WHERE (id IN (SELECT cust_id FROM billing.invoices))"
	if _, err := e.Query(q); err != nil {
		t.Fatal(err)
	}
}

func TestNotInSubqueryWithNullIsEmpty(t *testing.T) {
	e := newFederation(t)
	// Without a NULL the subquery leaves Cal (3) and Dee (4) outside it.
	r, err := e.Query(`SELECT name FROM crm.customers
		WHERE id NOT IN (SELECT cust_id FROM billing.invoices WHERE cust_id <> 3)
		ORDER BY name`)
	if err != nil {
		t.Fatal(err)
	}
	if got := results(t, r); got != "Cal|Dee" {
		t.Fatalf("got %q", got)
	}
	// Turning customer 3's key into a NULL makes every NOT IN answer
	// NULL (x <> NULL is unknown), so nothing qualifies.
	r, err = e.Query(`SELECT name FROM crm.customers
		WHERE id NOT IN (SELECT CASE WHEN cust_id = 3 THEN NULL ELSE cust_id END
		                 FROM billing.invoices)
		ORDER BY name`)
	if err != nil {
		t.Fatal(err)
	}
	if got := results(t, r); got != "" {
		t.Errorf("NOT IN over a list holding NULL must be empty, got %q", got)
	}
}

func TestInListWithNullAndMatch(t *testing.T) {
	e := newFederation(t)
	r, err := e.Query(`SELECT name FROM crm.customers WHERE id IN (NULL, 2) ORDER BY name`)
	if err != nil {
		t.Fatal(err)
	}
	if got := results(t, r); got != "Bob" {
		t.Errorf("IN (NULL, 2): got %q", got)
	}
	r, err = e.Query(`SELECT name FROM crm.customers WHERE id NOT IN (NULL, 2) ORDER BY name`)
	if err != nil {
		t.Fatal(err)
	}
	if got := results(t, r); got != "" {
		t.Errorf("NOT IN (NULL, 2) must be empty, got %q", got)
	}
}

func TestInListIntColumnFloatLiterals(t *testing.T) {
	e := newFederation(t)
	r, err := e.Query(`SELECT name FROM crm.customers WHERE id IN (1.0, 2.5, 3) ORDER BY name`)
	if err != nil {
		t.Fatal(err)
	}
	if got := results(t, r); got != "Ann|Cal" {
		t.Errorf("IN (1.0, 2.5, 3): got %q", got)
	}
	r, err = e.Query(`SELECT name FROM crm.customers WHERE id NOT IN (1.0, 2.5) ORDER BY name`)
	if err != nil {
		t.Fatal(err)
	}
	if got := results(t, r); got != "Bob|Cal|Dee" {
		t.Errorf("NOT IN (1.0, 2.5): got %q", got)
	}
}
