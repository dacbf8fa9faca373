package main

// Answer checking: the engine's rows are compared with answers the
// benchmark computes itself from the source tables. Rows are reduced to
// canonical strings so engine datums and JSON values compare alike.

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/datum"
)

// canonNumber renders a number the same way whether it arrived as an int,
// a float or a JSON number.
func canonNumber(f float64) string {
	if f == math.Trunc(f) && math.Abs(f) < 1e15 {
		return strconv.FormatInt(int64(f), 10)
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}

func canonDatum(d datum.Datum) string {
	switch d.Kind() {
	case datum.KindNull:
		return "NULL"
	case datum.KindBool:
		return strconv.FormatBool(d.Bool())
	case datum.KindInt:
		return canonNumber(float64(d.Int()))
	case datum.KindFloat:
		return canonNumber(d.Float())
	case datum.KindString:
		return strconv.Quote(d.Str())
	case datum.KindTime:
		return d.Time().Format(time.RFC3339Nano)
	default:
		return d.Display()
	}
}

func canonJSON(v any) string {
	switch x := v.(type) {
	case nil:
		return "NULL"
	case bool:
		return strconv.FormatBool(x)
	case json.Number:
		f, err := x.Float64()
		if err != nil {
			return "bad:" + x.String()
		}
		return canonNumber(f)
	case float64:
		return canonNumber(x)
	case string:
		return strconv.Quote(x)
	default:
		return fmt.Sprintf("unexpected:%v", x)
	}
}

func canonRows(rows []datum.Row) []string {
	out := make([]string, len(rows))
	var b strings.Builder
	for i, r := range rows {
		b.Reset()
		for j, d := range r {
			if j > 0 {
				b.WriteByte('|')
			}
			b.WriteString(canonDatum(d))
		}
		out[i] = b.String()
	}
	return out
}

func canonJSONRows(rows [][]any) []string {
	out := make([]string, len(rows))
	var b strings.Builder
	for i, r := range rows {
		b.Reset()
		for j, v := range r {
			if j > 0 {
				b.WriteByte('|')
			}
			b.WriteString(canonJSON(v))
		}
		out[i] = b.String()
	}
	return out
}

// sameAnswer compares a result with the expected answer: as a sequence
// when the statement orders its output, as a multiset otherwise. It
// returns nil on a match and a short description of the first
// difference otherwise.
func sameAnswer(got, want []string, ordered bool) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	if !ordered {
		got = append([]string(nil), got...)
		want = append([]string(nil), want...)
		sort.Strings(got)
		sort.Strings(want)
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("row %d is %s, want %s", i, got[i], want[i])
		}
	}
	return nil
}
