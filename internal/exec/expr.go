// Package exec implements the physical execution layer: a compiled
// expression evaluator, Volcano-style row operators, and a compiler from
// logical plans to operator trees. Both the mediator and the source
// wrappers execute plans through this package; the wrappers simply bind
// Scan leaves to their own local tables.
package exec

import (
	"fmt"
	"math"
	"regexp"
	"strings"
	"sync"

	"repro/internal/datum"
	"repro/internal/plan"
	"repro/internal/sqlparse"
)

// EvalFunc evaluates a compiled expression against an input row.
type EvalFunc func(datum.Row) (datum.Datum, error)

// Compile resolves and compiles an expression against the input columns.
// Column references become direct offsets, so per-row evaluation does no
// name resolution.
func Compile(e sqlparse.Expr, cols []plan.ColMeta) (EvalFunc, error) {
	switch x := e.(type) {
	case *sqlparse.Literal:
		v := x.Value
		return func(datum.Row) (datum.Datum, error) { return v, nil }, nil

	case *sqlparse.Param:
		// Parameters must be bound (plan.BindParams) before execution;
		// reaching one here means a prepared plan was executed raw.
		return nil, fmt.Errorf("exec: unbound parameter $%d; bind values before executing", x.Index)

	case *sqlparse.ColumnRef:
		idx, err := plan.ResolveColumn(cols, x)
		if err != nil {
			return nil, err
		}
		return func(r datum.Row) (datum.Datum, error) {
			if idx >= len(r) {
				return datum.Null, fmt.Errorf("exec: row too short for column %s", x.SQL())
			}
			return r[idx], nil
		}, nil

	case *sqlparse.BinaryExpr:
		return compileBinary(x, cols)

	case *sqlparse.UnaryExpr:
		child, err := Compile(x.Child, cols)
		if err != nil {
			return nil, err
		}
		if x.Op == "NOT" {
			return func(r datum.Row) (datum.Datum, error) {
				v, err := child(r)
				if err != nil || v.IsNull() {
					return datum.Null, err
				}
				if v.Kind() != datum.KindBool {
					return datum.Null, fmt.Errorf("exec: NOT requires BOOL, got %s", v.Kind())
				}
				return datum.NewBool(!v.Bool()), nil
			}, nil
		}
		return func(r datum.Row) (datum.Datum, error) {
			v, err := child(r)
			if err != nil || v.IsNull() {
				return datum.Null, err
			}
			switch v.Kind() {
			case datum.KindInt:
				return datum.NewInt(-v.Int()), nil
			case datum.KindFloat:
				return datum.NewFloat(-v.Float()), nil
			default:
				return datum.Null, fmt.Errorf("exec: unary minus requires a number, got %s", v.Kind())
			}
		}, nil

	case *sqlparse.IsNullExpr:
		child, err := Compile(x.Child, cols)
		if err != nil {
			return nil, err
		}
		not := x.Not
		return func(r datum.Row) (datum.Datum, error) {
			v, err := child(r)
			if err != nil {
				return datum.Null, err
			}
			return datum.NewBool(v.IsNull() != not), nil
		}, nil

	case *sqlparse.InExpr:
		child, err := Compile(x.Child, cols)
		if err != nil {
			return nil, err
		}
		not := x.Not
		if set, sawNull, ok := literalSet(x.List); ok {
			// Constant list (bound params are literals by now): one hash
			// probe per row instead of a scan of the list.
			return func(r datum.Row) (datum.Datum, error) {
				v, err := child(r)
				if err != nil || v.IsNull() {
					return datum.Null, err
				}
				if set.contains(v) {
					return datum.NewBool(!not), nil
				}
				if sawNull {
					return datum.Null, nil
				}
				return datum.NewBool(not), nil
			}, nil
		}
		list := make([]EvalFunc, len(x.List))
		for i, a := range x.List {
			if list[i], err = Compile(a, cols); err != nil {
				return nil, err
			}
		}
		return func(r datum.Row) (datum.Datum, error) {
			v, err := child(r)
			if err != nil {
				return datum.Null, err
			}
			if v.IsNull() {
				return datum.Null, nil
			}
			sawNull := false
			for _, f := range list {
				c, err := f(r)
				if err != nil {
					return datum.Null, err
				}
				if c.IsNull() {
					sawNull = true
					continue
				}
				if datum.Equal(v, c) {
					return datum.NewBool(!not), nil
				}
			}
			if sawNull {
				return datum.Null, nil
			}
			return datum.NewBool(not), nil
		}, nil

	case *sqlparse.KeyFilterExpr:
		// Synthesized by semi-join reduction when the probe-side key set
		// is too large to ship as an IN-list: membership is tested
		// against a shipped key-set summary (a bloom filter). TRUE may be
		// a false positive — the mediator's join re-checks real equality
		// — but FALSE is definitive, so rows it rejects are never needed.
		child, err := Compile(x.Child, cols)
		if err != nil {
			return nil, err
		}
		set := x.Set
		if set == nil {
			return nil, fmt.Errorf("exec: KEY_FILTER without a key set")
		}
		return func(r datum.Row) (datum.Datum, error) {
			v, err := child(r)
			if err != nil || v.IsNull() {
				return datum.Null, err
			}
			return datum.NewBool(set.ContainsHash(v.Hash())), nil
		}, nil

	case *sqlparse.BetweenExpr:
		child, err := Compile(x.Child, cols)
		if err != nil {
			return nil, err
		}
		lo, err := Compile(x.Lo, cols)
		if err != nil {
			return nil, err
		}
		hi, err := Compile(x.Hi, cols)
		if err != nil {
			return nil, err
		}
		not := x.Not
		return func(r datum.Row) (datum.Datum, error) {
			v, err := child(r)
			if err != nil {
				return datum.Null, err
			}
			l, err := lo(r)
			if err != nil {
				return datum.Null, err
			}
			h, err := hi(r)
			if err != nil {
				return datum.Null, err
			}
			if v.IsNull() || l.IsNull() || h.IsNull() {
				return datum.Null, nil
			}
			if !datum.Comparable(v.Kind(), l.Kind()) || !datum.Comparable(v.Kind(), h.Kind()) {
				return datum.Null, fmt.Errorf("exec: BETWEEN over incomparable kinds %s, %s, %s", v.Kind(), l.Kind(), h.Kind())
			}
			in := datum.Compare(v, l) >= 0 && datum.Compare(v, h) <= 0
			return datum.NewBool(in != not), nil
		}, nil

	case *sqlparse.FuncExpr:
		if x.IsAggregate() {
			return nil, fmt.Errorf("exec: aggregate %s outside Aggregate operator", x.Name)
		}
		return compileScalarFunc(x, cols)

	case *sqlparse.CaseExpr:
		type arm struct{ cond, result EvalFunc }
		arms := make([]arm, len(x.Whens))
		for i, w := range x.Whens {
			c, err := Compile(w.Cond, cols)
			if err != nil {
				return nil, err
			}
			res, err := Compile(w.Result, cols)
			if err != nil {
				return nil, err
			}
			arms[i] = arm{c, res}
		}
		var elseF EvalFunc
		if x.Else != nil {
			var err error
			if elseF, err = Compile(x.Else, cols); err != nil {
				return nil, err
			}
		}
		return func(r datum.Row) (datum.Datum, error) {
			for _, a := range arms {
				c, err := a.cond(r)
				if err != nil {
					return datum.Null, err
				}
				if !c.IsNull() && c.Kind() == datum.KindBool && c.Bool() {
					return a.result(r)
				}
			}
			if elseF != nil {
				return elseF(r)
			}
			return datum.Null, nil
		}, nil

	case *sqlparse.CastExpr:
		child, err := Compile(x.Child, cols)
		if err != nil {
			return nil, err
		}
		target := x.Type
		return func(r datum.Row) (datum.Datum, error) {
			v, err := child(r)
			if err != nil {
				return datum.Null, err
			}
			return castDatum(v, target)
		}, nil

	case *sqlparse.ExistsExpr:
		return nil, fmt.Errorf("exec: EXISTS must be pre-evaluated by the mediator")

	default:
		return nil, fmt.Errorf("exec: unsupported expression %T", e)
	}
}

// castDatum implements CAST semantics, which are more permissive than
// datum.Coerce: strings parse into numbers, numbers truncate, anything
// renders to string.
func castDatum(v datum.Datum, target datum.Kind) (datum.Datum, error) {
	if v.IsNull() || v.Kind() == target {
		return v, nil
	}
	switch target {
	case datum.KindString:
		return datum.NewString(v.Display()), nil
	case datum.KindInt:
		switch v.Kind() {
		case datum.KindFloat:
			return datum.NewInt(int64(v.Float())), nil
		case datum.KindString:
			var i int64
			if _, err := fmt.Sscanf(strings.TrimSpace(v.Str()), "%d", &i); err != nil {
				return datum.Null, fmt.Errorf("exec: cannot cast %q to INT", v.Str())
			}
			return datum.NewInt(i), nil
		case datum.KindBool:
			if v.Bool() {
				return datum.NewInt(1), nil
			}
			return datum.NewInt(0), nil
		}
	case datum.KindFloat:
		switch v.Kind() {
		case datum.KindInt:
			return datum.NewFloat(float64(v.Int())), nil
		case datum.KindString:
			var f float64
			if _, err := fmt.Sscanf(strings.TrimSpace(v.Str()), "%g", &f); err != nil {
				return datum.Null, fmt.Errorf("exec: cannot cast %q to FLOAT", v.Str())
			}
			return datum.NewFloat(f), nil
		}
	case datum.KindBool:
		if v.Kind() == datum.KindString {
			switch strings.ToLower(strings.TrimSpace(v.Str())) {
			case "true", "t", "1":
				return datum.NewBool(true), nil
			case "false", "f", "0":
				return datum.NewBool(false), nil
			}
		}
	}
	return datum.Null, fmt.Errorf("exec: cannot cast %s to %s", v.Kind(), target)
}

func compileBinary(x *sqlparse.BinaryExpr, cols []plan.ColMeta) (EvalFunc, error) {
	left, err := Compile(x.Left, cols)
	if err != nil {
		return nil, err
	}
	right, err := Compile(x.Right, cols)
	if err != nil {
		return nil, err
	}
	op := x.Op
	switch op {
	case sqlparse.OpAnd:
		return func(r datum.Row) (datum.Datum, error) {
			l, err := left(r)
			if err != nil {
				return datum.Null, err
			}
			// Three-valued AND with short circuit on FALSE.
			if !l.IsNull() && l.Kind() == datum.KindBool && !l.Bool() {
				return datum.NewBool(false), nil
			}
			rr, err := right(r)
			if err != nil {
				return datum.Null, err
			}
			if !rr.IsNull() && rr.Kind() == datum.KindBool && !rr.Bool() {
				return datum.NewBool(false), nil
			}
			if l.IsNull() || rr.IsNull() {
				return datum.Null, nil
			}
			if l.Kind() != datum.KindBool || rr.Kind() != datum.KindBool {
				return datum.Null, fmt.Errorf("exec: AND requires BOOL operands")
			}
			return datum.NewBool(l.Bool() && rr.Bool()), nil
		}, nil
	case sqlparse.OpOr:
		return func(r datum.Row) (datum.Datum, error) {
			l, err := left(r)
			if err != nil {
				return datum.Null, err
			}
			if !l.IsNull() && l.Kind() == datum.KindBool && l.Bool() {
				return datum.NewBool(true), nil
			}
			rr, err := right(r)
			if err != nil {
				return datum.Null, err
			}
			if !rr.IsNull() && rr.Kind() == datum.KindBool && rr.Bool() {
				return datum.NewBool(true), nil
			}
			if l.IsNull() || rr.IsNull() {
				return datum.Null, nil
			}
			if l.Kind() != datum.KindBool || rr.Kind() != datum.KindBool {
				return datum.Null, fmt.Errorf("exec: OR requires BOOL operands")
			}
			return datum.NewBool(l.Bool() || rr.Bool()), nil
		}, nil
	case sqlparse.OpEq, sqlparse.OpNe, sqlparse.OpLt, sqlparse.OpLe, sqlparse.OpGt, sqlparse.OpGe:
		return func(r datum.Row) (datum.Datum, error) {
			l, err := left(r)
			if err != nil {
				return datum.Null, err
			}
			rr, err := right(r)
			if err != nil {
				return datum.Null, err
			}
			if l.IsNull() || rr.IsNull() {
				return datum.Null, nil
			}
			if !datum.Comparable(l.Kind(), rr.Kind()) {
				return datum.Null, fmt.Errorf("exec: cannot compare %s with %s", l.Kind(), rr.Kind())
			}
			c := datum.Compare(l, rr)
			var out bool
			switch op {
			case sqlparse.OpEq:
				out = c == 0
			case sqlparse.OpNe:
				out = c != 0
			case sqlparse.OpLt:
				out = c < 0
			case sqlparse.OpLe:
				out = c <= 0
			case sqlparse.OpGt:
				out = c > 0
			case sqlparse.OpGe:
				out = c >= 0
			}
			return datum.NewBool(out), nil
		}, nil
	case sqlparse.OpAdd, sqlparse.OpSub, sqlparse.OpMul, sqlparse.OpDiv, sqlparse.OpMod:
		return func(r datum.Row) (datum.Datum, error) {
			l, err := left(r)
			if err != nil {
				return datum.Null, err
			}
			rr, err := right(r)
			if err != nil {
				return datum.Null, err
			}
			if l.IsNull() || rr.IsNull() {
				return datum.Null, nil
			}
			return arith(op, l, rr)
		}, nil
	case sqlparse.OpConcat:
		return func(r datum.Row) (datum.Datum, error) {
			l, err := left(r)
			if err != nil {
				return datum.Null, err
			}
			rr, err := right(r)
			if err != nil {
				return datum.Null, err
			}
			if l.IsNull() || rr.IsNull() {
				return datum.Null, nil
			}
			return datum.NewString(l.Display() + rr.Display()), nil
		}, nil
	case sqlparse.OpLike:
		// Compile the pattern once when it is a literal.
		if lit, ok := x.Right.(*sqlparse.Literal); ok && lit.Value.Kind() == datum.KindString {
			re, err := likeRegexp(lit.Value.Str())
			if err != nil {
				return nil, err
			}
			return func(r datum.Row) (datum.Datum, error) {
				l, err := left(r)
				if err != nil {
					return datum.Null, err
				}
				if l.IsNull() {
					return datum.Null, nil
				}
				if l.Kind() != datum.KindString {
					return datum.Null, fmt.Errorf("exec: LIKE requires STRING, got %s", l.Kind())
				}
				return datum.NewBool(re.MatchString(l.Str())), nil
			}, nil
		}
		return func(r datum.Row) (datum.Datum, error) {
			l, err := left(r)
			if err != nil {
				return datum.Null, err
			}
			p, err := right(r)
			if err != nil {
				return datum.Null, err
			}
			if l.IsNull() || p.IsNull() {
				return datum.Null, nil
			}
			if l.Kind() != datum.KindString || p.Kind() != datum.KindString {
				return datum.Null, fmt.Errorf("exec: LIKE requires STRING operands")
			}
			re, err := likeCache(p.Str())
			if err != nil {
				return datum.Null, err
			}
			return datum.NewBool(re.MatchString(l.Str())), nil
		}, nil
	default:
		return nil, fmt.Errorf("exec: unsupported binary operator %v", op)
	}
}

func arith(op sqlparse.BinOp, l, r datum.Datum) (datum.Datum, error) {
	lf, lok := l.AsFloat()
	rf, rok := r.AsFloat()
	if !lok || !rok {
		return datum.Null, fmt.Errorf("exec: %s requires numeric operands, got %s and %s", op, l.Kind(), r.Kind())
	}
	bothInt := l.Kind() == datum.KindInt && r.Kind() == datum.KindInt
	switch op {
	case sqlparse.OpAdd:
		if bothInt {
			return datum.NewInt(l.Int() + r.Int()), nil
		}
		return datum.NewFloat(lf + rf), nil
	case sqlparse.OpSub:
		if bothInt {
			return datum.NewInt(l.Int() - r.Int()), nil
		}
		return datum.NewFloat(lf - rf), nil
	case sqlparse.OpMul:
		if bothInt {
			return datum.NewInt(l.Int() * r.Int()), nil
		}
		return datum.NewFloat(lf * rf), nil
	case sqlparse.OpDiv:
		if rf == 0 {
			return datum.Null, fmt.Errorf("exec: division by zero")
		}
		return datum.NewFloat(lf / rf), nil
	case sqlparse.OpMod:
		if !bothInt {
			return datum.Null, fmt.Errorf("exec: %% requires INT operands")
		}
		if r.Int() == 0 {
			return datum.Null, fmt.Errorf("exec: modulo by zero")
		}
		return datum.NewInt(l.Int() % r.Int()), nil
	}
	return datum.Null, fmt.Errorf("exec: unreachable arithmetic op %v", op)
}

// likeRegexp converts a SQL LIKE pattern to a compiled regexp: % matches
// any sequence, _ matches one character; everything else is literal.
func likeRegexp(pattern string) (*regexp.Regexp, error) {
	var b strings.Builder
	b.WriteString("(?s)^")
	for _, r := range pattern {
		switch r {
		case '%':
			b.WriteString(".*")
		case '_':
			b.WriteString(".")
		default:
			b.WriteString(regexp.QuoteMeta(string(r)))
		}
	}
	b.WriteString("$")
	return regexp.Compile(b.String())
}

// likeEntry is one memoized LIKE compilation (pattern -> regexp or error).
type likeEntry struct {
	re  *regexp.Regexp
	err error
}

// likeMap memoizes dynamic LIKE patterns. A sync.Map (instead of a
// mutex-guarded map) keeps the hot read path lock-free: exchange workers
// evaluating LIKE concurrently would otherwise serialize on every row.
var likeMap sync.Map // string -> likeEntry

// likeCache memoizes dynamic LIKE patterns.
func likeCache(pattern string) (*regexp.Regexp, error) {
	if v, ok := likeMap.Load(pattern); ok {
		e := v.(likeEntry)
		return e.re, e.err
	}
	re, err := likeRegexp(pattern)
	v, _ := likeMap.LoadOrStore(pattern, likeEntry{re: re, err: err})
	e := v.(likeEntry)
	return e.re, e.err
}

func compileScalarFunc(x *sqlparse.FuncExpr, cols []plan.ColMeta) (EvalFunc, error) {
	args := make([]EvalFunc, len(x.Args))
	for i, a := range x.Args {
		f, err := Compile(a, cols)
		if err != nil {
			return nil, err
		}
		args[i] = f
	}
	wantArgs := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("exec: %s takes %d argument(s), got %d", x.Name, n, len(args))
		}
		return nil
	}
	evalArgs := func(r datum.Row) ([]datum.Datum, error) {
		out := make([]datum.Datum, len(args))
		for i, f := range args {
			v, err := f(r)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}
	switch x.Name {
	case "UPPER", "LOWER", "TRIM", "LENGTH":
		if err := wantArgs(1); err != nil {
			return nil, err
		}
		name := x.Name
		return func(r datum.Row) (datum.Datum, error) {
			v, err := args[0](r)
			if err != nil || v.IsNull() {
				return datum.Null, err
			}
			if v.Kind() != datum.KindString {
				return datum.Null, fmt.Errorf("exec: %s requires STRING, got %s", name, v.Kind())
			}
			switch name {
			case "UPPER":
				return datum.NewString(strings.ToUpper(v.Str())), nil
			case "LOWER":
				return datum.NewString(strings.ToLower(v.Str())), nil
			case "TRIM":
				return datum.NewString(strings.TrimSpace(v.Str())), nil
			default:
				return datum.NewInt(int64(len(v.Str()))), nil
			}
		}, nil
	case "ABS":
		if err := wantArgs(1); err != nil {
			return nil, err
		}
		return func(r datum.Row) (datum.Datum, error) {
			v, err := args[0](r)
			if err != nil || v.IsNull() {
				return datum.Null, err
			}
			switch v.Kind() {
			case datum.KindInt:
				if v.Int() < 0 {
					return datum.NewInt(-v.Int()), nil
				}
				return v, nil
			case datum.KindFloat:
				return datum.NewFloat(math.Abs(v.Float())), nil
			default:
				return datum.Null, fmt.Errorf("exec: ABS requires a number, got %s", v.Kind())
			}
		}, nil
	case "SUBSTR":
		if len(args) != 2 && len(args) != 3 {
			return nil, fmt.Errorf("exec: SUBSTR takes 2 or 3 arguments, got %d", len(args))
		}
		return func(r datum.Row) (datum.Datum, error) {
			vs, err := evalArgs(r)
			if err != nil {
				return datum.Null, err
			}
			for _, v := range vs {
				if v.IsNull() {
					return datum.Null, nil
				}
			}
			if vs[0].Kind() != datum.KindString {
				return datum.Null, fmt.Errorf("exec: SUBSTR requires STRING, got %s", vs[0].Kind())
			}
			s := vs[0].Str()
			start, ok := vs[1].AsInt()
			if !ok {
				return datum.Null, fmt.Errorf("exec: SUBSTR start must be INT")
			}
			// SQL SUBSTR is 1-based.
			if start < 1 {
				start = 1
			}
			if int(start) > len(s) {
				return datum.NewString(""), nil
			}
			out := s[start-1:]
			if len(vs) == 3 {
				n, ok := vs[2].AsInt()
				if !ok || n < 0 {
					return datum.Null, fmt.Errorf("exec: SUBSTR length must be a non-negative INT")
				}
				if int(n) < len(out) {
					out = out[:n]
				}
			}
			return datum.NewString(out), nil
		}, nil
	case "CONCAT":
		return func(r datum.Row) (datum.Datum, error) {
			vs, err := evalArgs(r)
			if err != nil {
				return datum.Null, err
			}
			var b strings.Builder
			for _, v := range vs {
				if v.IsNull() {
					continue
				}
				b.WriteString(v.Display())
			}
			return datum.NewString(b.String()), nil
		}, nil
	case "COALESCE":
		if len(args) == 0 {
			return nil, fmt.Errorf("exec: COALESCE requires at least one argument")
		}
		return func(r datum.Row) (datum.Datum, error) {
			for _, f := range args {
				v, err := f(r)
				if err != nil {
					return datum.Null, err
				}
				if !v.IsNull() {
					return v, nil
				}
			}
			return datum.Null, nil
		}, nil
	default:
		return nil, fmt.Errorf("exec: unknown function %s", x.Name)
	}
}

// literalSet builds the probe set of an IN-list whose members are all
// literals, noting whether one of them is NULL (a miss is then NULL, not
// FALSE). ok is false when any member must be evaluated per row.
func literalSet(list []sqlparse.Expr) (set *datumSet, sawNull, ok bool) {
	for _, e := range list {
		if _, isLit := e.(*sqlparse.Literal); !isLit {
			return nil, false, false
		}
	}
	set = newDatumSet(len(list))
	for _, e := range list {
		v := e.(*sqlparse.Literal).Value
		if v.IsNull() {
			sawNull = true
			continue
		}
		set.add(v)
	}
	return set, sawNull, true
}

// EvalPredicate runs a compiled predicate and reports whether the row
// passes (NULL and FALSE both reject).
func EvalPredicate(f EvalFunc, r datum.Row) (bool, error) {
	v, err := f(r)
	if err != nil {
		return false, err
	}
	if v.IsNull() {
		return false, nil
	}
	if v.Kind() != datum.KindBool {
		return false, fmt.Errorf("exec: predicate evaluated to %s, not BOOL", v.Kind())
	}
	return v.Bool(), nil
}

// --- Batched entry points ---
//
// These amortize call dispatch over whole batches and let callers reuse
// scratch storage across batches instead of allocating per row.

// EvalBatch evaluates f over every row of in, appending the results to
// dst (pass dst[:0] to reuse its storage) and returning it.
func EvalBatch(f EvalFunc, in Batch, dst []datum.Datum) ([]datum.Datum, error) {
	for _, r := range in {
		v, err := f(r)
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// FilterBatch appends the rows of in satisfying pred to dst (pass dst[:0]
// to reuse its storage) and returns it. NULL and FALSE both reject.
func FilterBatch(pred EvalFunc, in Batch, dst Batch) (Batch, error) {
	for _, r := range in {
		ok, err := EvalPredicate(pred, r)
		if err != nil {
			return nil, err
		}
		if ok {
			dst = append(dst, r)
		}
	}
	return dst, nil
}

// ProjectBatch evaluates exprs over every row of in, appending the output
// rows to dst. Output row storage comes from one arena allocation per
// batch instead of one per row; the rows themselves are fresh and may be
// retained by downstream operators.
func ProjectBatch(exprs []EvalFunc, in Batch, dst Batch) (Batch, error) {
	return projectBatch(nil, exprs, in, dst)
}

// projectBatch is ProjectBatch drawing the per-batch datum arena from the
// query scratch (heap when s is nil). Output rows then live exactly as
// long as the query, which is all downstream retention ever needs.
func projectBatch(s *Scratch, exprs []EvalFunc, in Batch, dst Batch) (Batch, error) {
	arena := s.MakeDatums(len(exprs) * len(in))
	for _, r := range in {
		row := arena[:len(exprs):len(exprs)]
		arena = arena[len(exprs):]
		for i, f := range exprs {
			v, err := f(r)
			if err != nil {
				return nil, err
			}
			row[i] = v
		}
		dst = append(dst, datum.Row(row))
	}
	return dst, nil
}
