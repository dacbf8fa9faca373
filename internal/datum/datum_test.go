package datum

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull: "NULL", KindBool: "BOOL", KindInt: "INT",
		KindFloat: "FLOAT", KindString: "STRING", KindTime: "TIME",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestAccessors(t *testing.T) {
	if !NewBool(true).Bool() {
		t.Error("Bool round trip failed")
	}
	if NewInt(-42).Int() != -42 {
		t.Error("Int round trip failed")
	}
	if NewFloat(2.5).Float() != 2.5 {
		t.Error("Float round trip failed")
	}
	if NewString("hi").Str() != "hi" {
		t.Error("Str round trip failed")
	}
	ts := time.Date(2005, 6, 14, 10, 30, 0, 0, time.UTC)
	if !NewTime(ts).Time().Equal(ts) {
		t.Error("Time round trip failed")
	}
	if !Null.IsNull() || Null.Kind() != KindNull {
		t.Error("Null misbehaves")
	}
}

func TestAccessorPanicsOnWrongKind(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic accessing INT as STRING")
		}
	}()
	_ = NewInt(1).Str()
}

func TestCompareTotalOrderBasics(t *testing.T) {
	cases := []struct {
		a, b Datum
		want int
	}{
		{Null, Null, 0},
		{Null, NewInt(0), -1},
		{NewInt(0), Null, 1},
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(3), NewInt(2), 1},
		{NewFloat(1.5), NewFloat(2.5), -1},
		{NewInt(2), NewFloat(2.0), 0},
		{NewInt(2), NewFloat(2.5), -1},
		{NewFloat(2.5), NewInt(2), 1},
		{NewString("a"), NewString("b"), -1},
		{NewString("b"), NewString("b"), 0},
		{NewBool(false), NewBool(true), -1},
		{NewBool(true), NewBool(true), 0},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareTime(t *testing.T) {
	t1 := NewTime(time.Date(2005, 1, 1, 0, 0, 0, 0, time.UTC))
	t2 := NewTime(time.Date(2005, 6, 14, 0, 0, 0, 0, time.UTC))
	if Compare(t1, t2) != -1 || Compare(t2, t1) != 1 || Compare(t1, t1) != 0 {
		t.Error("time comparison broken")
	}
}

func TestEqualNullSemantics(t *testing.T) {
	if Equal(Null, Null) {
		t.Error("NULL = NULL must be false under SQL equality")
	}
	if Equal(Null, NewInt(1)) || Equal(NewInt(1), Null) {
		t.Error("NULL = value must be false")
	}
	if !Equal(NewInt(7), NewInt(7)) {
		t.Error("7 = 7 must hold")
	}
	if !Equal(NewInt(7), NewFloat(7)) {
		t.Error("7 = 7.0 must hold across numeric kinds")
	}
}

func TestHashConsistentWithCompare(t *testing.T) {
	pairs := [][2]Datum{
		{NewInt(7), NewFloat(7)},
		{NewInt(0), NewFloat(0)},
		{NewInt(-3), NewFloat(-3)},
		{NewString("x"), NewString("x")},
		{NewBool(true), NewBool(true)},
	}
	for _, p := range pairs {
		if Compare(p[0], p[1]) == 0 && p[0].Hash() != p[1].Hash() {
			t.Errorf("equal datums %v and %v hash differently", p[0], p[1])
		}
	}
	// Distinct strings should not trivially collide.
	if NewString("abc").Hash() == NewString("abd").Hash() {
		t.Error("distinct strings collide")
	}
}

func TestHashPropertyEqualImpliesSameHash(t *testing.T) {
	f := func(a int64) bool {
		d1 := NewInt(a)
		d2 := NewFloat(float64(a))
		if Compare(d1, d2) != 0 {
			return true // float rounding made them unequal; fine
		}
		return d1.Hash() == d2.Hash()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestComparePropertyAntisymmetric(t *testing.T) {
	f := func(a, b int64) bool {
		return Compare(NewInt(a), NewInt(b)) == -Compare(NewInt(b), NewInt(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestComparePropertyTransitiveStrings(t *testing.T) {
	f := func(a, b, c string) bool {
		da, db, dc := NewString(a), NewString(b), NewString(c)
		if Compare(da, db) <= 0 && Compare(db, dc) <= 0 {
			return Compare(da, dc) <= 0
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCompareNaN(t *testing.T) {
	nan := NewFloat(math.NaN())
	if Compare(nan, nan) != 0 {
		t.Error("NaN must equal NaN for sorting totality")
	}
	if Compare(NewFloat(1), nan) != -1 || Compare(nan, NewFloat(1)) != 1 {
		t.Error("NaN must sort above all floats")
	}
}

// TestHashIsFNV1a pins Hash to FNV-1a over (kind tag, value bytes): the
// inline computation must agree with hash/fnv bit for bit, since bloom
// filters and hash partitioning see these exact values.
func TestHashIsFNV1a(t *testing.T) {
	ref := func(tag byte, payload []byte) uint64 {
		h := fnv.New64a()
		h.Write([]byte{tag})
		h.Write(payload)
		return h.Sum64()
	}
	le := func(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }
	ts := time.Date(2005, 6, 14, 10, 30, 0, 0, time.UTC)
	cases := []struct {
		d    Datum
		want uint64
	}{
		{Null, ref(0, nil)},
		{NewBool(false), ref(1, []byte{0})},
		{NewBool(true), ref(1, []byte{1})},
		{NewInt(-7), ref(2, le(^uint64(6)))},
		{NewInt(1 << 40), ref(2, le(1<<40))},
		{NewFloat(3), ref(2, le(3))},
		{NewFloat(2.5), ref(3, le(math.Float64bits(2.5)))},
		{NewFloat(math.Inf(-1)), ref(3, le(math.Float64bits(math.Inf(-1))))},
		{NewFloat(math.NaN()), ref(3, le(math.Float64bits(math.NaN())))},
		{NewString(""), ref(4, nil)},
		{NewString("héllo"), ref(4, []byte("héllo"))},
		{NewTime(ts), ref(5, le(uint64(ts.UnixNano())))},
	}
	for _, c := range cases {
		if got := c.d.Hash(); got != c.want {
			t.Errorf("Hash(%v) = %#x, want FNV-1a %#x", c.d, got, c.want)
		}
	}
}

// nanOperand is a package-level variable so Inf-Inf below is computed at
// run time, by the hardware, rather than folded by the compiler.
var nanOperand = math.Inf(1)

func TestHashNaNCanonical(t *testing.T) {
	// math.NaN() and a hardware-produced Inf-Inf carry different bits
	// (0x7ff8…01 vs 0xfff8…00 on amd64) but Compare treats them as equal,
	// so they must hash alike or hash joins, GROUP BY and DISTINCT split
	// NaN groups.
	a := NewFloat(math.NaN())
	b := NewFloat(nanOperand - nanOperand)
	if !math.IsNaN(b.Float()) {
		t.Fatalf("Inf-Inf = %v, want NaN", b.Float())
	}
	if !Equal(a, b) {
		t.Fatal("NaN datums must compare equal")
	}
	if a.Hash() != b.Hash() {
		t.Errorf("equal NaNs hash differently: %#x (bits %#x) vs %#x (bits %#x)",
			a.Hash(), math.Float64bits(a.Float()), b.Hash(), math.Float64bits(b.Float()))
	}
	if a.Hash() == NewFloat(math.Inf(1)).Hash() {
		t.Error("NaN and +Inf must not share a hash image")
	}
}

func TestStringRendering(t *testing.T) {
	cases := []struct {
		d    Datum
		want string
	}{
		{Null, "NULL"},
		{NewBool(true), "TRUE"},
		{NewBool(false), "FALSE"},
		{NewInt(42), "42"},
		{NewFloat(2.5), "2.5"},
		{NewString("it's"), "'it''s'"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("%#v.String() = %q, want %q", c.d, got, c.want)
		}
	}
	if NewString("plain").Display() != "plain" {
		t.Error("Display must not quote strings")
	}
}

func TestCoerce(t *testing.T) {
	d, err := Coerce(NewInt(3), KindFloat)
	if err != nil || d.Float() != 3.0 {
		t.Errorf("int→float coercion failed: %v %v", d, err)
	}
	d, err = Coerce(NewFloat(4.0), KindInt)
	if err != nil || d.Int() != 4 {
		t.Errorf("integral float→int coercion failed: %v %v", d, err)
	}
	if _, err = Coerce(NewFloat(4.5), KindInt); err == nil {
		t.Error("lossy float→int coercion must error")
	}
	d, err = Coerce(Null, KindString)
	if err != nil || !d.IsNull() {
		t.Error("NULL must coerce to anything as NULL")
	}
	d, err = Coerce(NewInt(9), KindString)
	if err != nil || d.Str() != "9" {
		t.Errorf("int→string coercion failed: %v %v", d, err)
	}
	if _, err = Coerce(NewString("x"), KindInt); err == nil {
		t.Error("string→int coercion must error")
	}
}

func TestAsFloatAsInt(t *testing.T) {
	if v, ok := NewInt(5).AsFloat(); !ok || v != 5 {
		t.Error("AsFloat(int) failed")
	}
	if v, ok := NewFloat(5.9).AsInt(); !ok || v != 5 {
		t.Error("AsInt(float) must truncate")
	}
	if _, ok := NewString("x").AsFloat(); ok {
		t.Error("AsFloat(string) must fail")
	}
	if _, ok := Null.AsInt(); ok {
		t.Error("AsInt(NULL) must fail")
	}
}

func TestWireSize(t *testing.T) {
	if Null.WireSize() != 1 {
		t.Error("NULL wire size")
	}
	if NewString("abcd").WireSize() != 9 {
		t.Error("string wire size = 5 + len")
	}
	if NewInt(1).WireSize() != 9 || NewFloat(1).WireSize() != 9 {
		t.Error("numeric wire size")
	}
	r := Row{NewInt(1), NewString("ab")}
	if RowWireSize(r) != 4+9+7 {
		t.Errorf("row wire size = %d", RowWireSize(r))
	}
}

func TestRowHelpers(t *testing.T) {
	r := Row{NewInt(1), NewString("a"), Null}
	c := CloneRow(r)
	c[0] = NewInt(99)
	if r[0].Int() != 1 {
		t.Error("CloneRow must not alias")
	}
	if !RowsEqual(r, Row{NewInt(1), NewString("a"), Null}) {
		t.Error("RowsEqual treats NULL as equal for grouping")
	}
	if RowsEqual(r, Row{NewInt(1), NewString("a")}) {
		t.Error("RowsEqual must respect length")
	}
	h1 := HashRow(r, []int{0, 1})
	h2 := HashRow(Row{NewInt(1), NewString("a"), NewInt(5)}, []int{0, 1})
	if h1 != h2 {
		t.Error("HashRow must only consider the given columns")
	}
}

func TestComparableMatrix(t *testing.T) {
	if !Comparable(KindInt, KindFloat) || !Comparable(KindNull, KindString) {
		t.Error("numeric kinds and NULL must be comparable")
	}
	if Comparable(KindString, KindInt) {
		t.Error("STRING vs INT must not be comparable")
	}
}
