package expr

import (
	"strings"
	"testing"

	"skalla/internal/relation"
)

var (
	baseSchema = relation.MustSchema(
		relation.Column{Name: "bi", Kind: relation.KindInt},
		relation.Column{Name: "bf", Kind: relation.KindFloat},
		relation.Column{Name: "bs", Kind: relation.KindString},
	)
	detailSchema = relation.MustSchema(
		relation.Column{Name: "di", Kind: relation.KindInt},
		relation.Column{Name: "df", Kind: relation.KindFloat},
		relation.Column{Name: "ds", Kind: relation.KindString},
	)
	baseRow   = relation.Tuple{relation.NewInt(10), relation.NewFloat(2.5), relation.NewString("abc")}
	detailRow = relation.Tuple{relation.NewInt(4), relation.NewFloat(0.5), relation.NewString("abc")}
)

func evalBound(t *testing.T, src string) relation.Value {
	t.Helper()
	e, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	b, err := Bind(e, baseSchema, detailSchema)
	if err != nil {
		t.Fatalf("Bind(%q): %v", src, err)
	}
	v, err := b.Eval(baseRow, detailRow)
	if err != nil {
		t.Fatalf("Eval(%q): %v", src, err)
	}
	return v
}

func TestEvalArithmetic(t *testing.T) {
	cases := []struct {
		src  string
		want relation.Value
	}{
		{"1 + 2", relation.NewInt(3)},
		{"7 - 10", relation.NewInt(-3)},
		{"3 * 4", relation.NewInt(12)},
		{"7 % 3", relation.NewInt(1)},
		{"7 / 2", relation.NewFloat(3.5)},
		{"1.5 + 2", relation.NewFloat(3.5)},
		{"2 * 1.25", relation.NewFloat(2.5)},
		{"-5", relation.NewInt(-5)},
		{"-(1.5)", relation.NewFloat(-1.5)},
		{"B.bi + R.di", relation.NewInt(14)},
		{"B.bf * R.df", relation.NewFloat(1.25)},
		{"7 % 0", relation.Null},
		{"7 / 0", relation.Null},
		{"7.5 % 2", relation.NewFloat(1.5)},
		{"null + 1", relation.Null},
		{"1 - null", relation.Null},
		{"-null", relation.Null},
	}
	for _, c := range cases {
		got := evalBound(t, c.src)
		if !got.Equal(c.want) || got.Kind != c.want.Kind {
			t.Errorf("%q = %v (%s), want %v (%s)", c.src, got, got.Kind, c.want, c.want.Kind)
		}
	}
}

func TestEvalComparisonsAndLogic(t *testing.T) {
	cases := []struct {
		src  string
		want bool
	}{
		{"1 = 1", true},
		{"1 == 2", false},
		{"1 != 2", true},
		{"1 <> 1", false},
		{"1 < 2", true},
		{"2 <= 2", true},
		{"3 > 2", true},
		{"2 >= 3", false},
		{"1 = 1.0", true},
		{"'a' < 'b'", true},
		{"'a' = 'a'", true},
		{"B.bs = R.ds", true},
		{"B.bi > R.di", true},
		{"true && false", false},
		{"true || false", true},
		{"true AND true", true},
		{"false OR false", false},
		{"!false", true},
		{"NOT (1 = 1)", false},
		{"1 < 2 && 2 < 3", true},
		// NULL comparisons are false; logic treats NULL as false.
		{"null = null", false},
		{"null < 1", false},
		{"null = 1 || true", true},
		{"1 = 'a'", false}, // incomparable kinds
		{"'a' < 1", false}, // incomparable kinds
		{"true = true", true},
		{"true != false", true},
	}
	for _, c := range cases {
		got := evalBound(t, c.src)
		if got.Kind != relation.KindBool || got.Bool() != c.want {
			t.Errorf("%q = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestEvalShortCircuit(t *testing.T) {
	// R.di is out of range in the nil tuple; short-circuit must avoid it.
	e := MustBind(MustParse("false && R.di = 1"), baseSchema, detailSchema)
	v, err := e.Eval(baseRow, nil)
	if err != nil || v.Bool() {
		t.Errorf("short-circuit AND: %v, %v", v, err)
	}
	e = MustBind(MustParse("true || R.di = 1"), baseSchema, detailSchema)
	v, err = e.Eval(baseRow, nil)
	if err != nil || !v.Bool() {
		t.Errorf("short-circuit OR: %v, %v", v, err)
	}
}

func TestEvalErrors(t *testing.T) {
	errCases := []string{
		"'a' + 1",   // arithmetic on string
		"-'a'",      // negate string
		"!(1 + 1)",  // NOT on non-bool
		"1 && true", // AND on non-bool
		"true || 1", // OR non-bool (right side evaluated since left false? no — left true short-circuits; use false)
	}
	// Fix the last case so the non-bool operand is actually evaluated.
	errCases[4] = "false || 1"
	for _, src := range errCases {
		e := MustBind(MustParse(src), baseSchema, detailSchema)
		if _, err := e.Eval(baseRow, detailRow); err == nil {
			t.Errorf("%q: expected evaluation error", src)
		}
	}
}

func TestEvalCondNullIsFalse(t *testing.T) {
	e := MustBind(MustParse("null"), baseSchema, detailSchema)
	ok, err := EvalCond(e, baseRow, detailRow)
	if err != nil || ok {
		t.Errorf("EvalCond(null) = %v, %v", ok, err)
	}
	e2 := MustBind(MustParse("1 + 1"), baseSchema, detailSchema)
	if _, err := EvalCond(e2, baseRow, detailRow); err == nil {
		t.Error("EvalCond on non-bool must error")
	}
}

func TestBindErrors(t *testing.T) {
	if _, err := Bind(MustParse("B.missing = 1"), baseSchema, detailSchema); err == nil {
		t.Error("unknown base column must fail to bind")
	}
	if _, err := Bind(MustParse("R.missing = 1"), baseSchema, detailSchema); err == nil {
		t.Error("unknown detail column must fail to bind")
	}
	if _, err := Bind(MustParse("R.di = 1"), baseSchema, nil); err == nil {
		t.Error("detail reference with nil detail schema must fail")
	}
	if _, err := Bind(MustParse("B.bi = 1"), nil, detailSchema); err == nil {
		t.Error("base reference with nil base schema must fail")
	}
	// Unbound column evaluation errors rather than panics.
	if _, err := C(SideBase, "bi").Eval(baseRow, nil); err == nil {
		t.Error("unbound Eval must error")
	}
}

func TestBindDoesNotMutate(t *testing.T) {
	orig := MustParse("B.bi = R.di")
	_ = MustBind(orig, baseSchema, detailSchema)
	col := orig.(*Bin).L.(*Col)
	if col.Idx != -1 {
		t.Error("Bind mutated the original tree")
	}
}

func TestStringRoundTrip(t *testing.T) {
	srcs := []string{
		"B.bi = R.di && R.df >= 0.5",
		"(B.bi + B.bf) * 2 < R.di - 3",
		"B.bs = 'x''y' || !(R.di != 4)",
		"NOT (B.bi % 2 = 0) AND true",
		"null = B.bi",
		"-(B.bi) <= -3",
	}
	for _, src := range srcs {
		e1 := MustParse(src)
		e2, err := Parse(e1.String())
		if err != nil {
			t.Fatalf("re-parse %q (from %q): %v", e1.String(), src, err)
		}
		b1 := MustBind(e1, baseSchema, detailSchema)
		b2 := MustBind(e2, baseSchema, detailSchema)
		v1, err1 := b1.Eval(baseRow, detailRow)
		v2, err2 := b2.Eval(baseRow, detailRow)
		if (err1 == nil) != (err2 == nil) || (err1 == nil && !v1.Equal(v2)) {
			t.Errorf("%q: round-trip changed semantics: %v/%v vs %v/%v", src, v1, err1, v2, err2)
		}
	}
}

// A literal's text keeps its kind: an integral FLOAT re-parses as a FLOAT,
// so R.x * 2 and R.x * 2.0 (which differ once the INT product wraps) never
// share a text, and with it a plan fingerprint.
func TestLiteralTextKeepsKind(t *testing.T) {
	for _, lit := range []*Lit{Int(2), Float(2), Float(-3), Float(0.5), Float(1e21), Float(-0.0), Int(-7)} {
		e, err := Parse(lit.String())
		if err != nil {
			t.Fatalf("re-parse %q: %v", lit, err)
		}
		var got relation.Value
		switch n := Simplify(e).(type) {
		case *Lit:
			got = n.Val
		default:
			t.Fatalf("%q re-parsed to %T", lit, n)
		}
		if got.Kind != lit.Val.Kind || !got.Equal(lit.Val) {
			t.Errorf("%s %q re-parsed as %s %v", lit.Val.Kind, lit, got.Kind, got)
		}
	}
	if a, b := MustParse("R.di * 2 > 0").String(), MustParse("R.di * 2.0 > 0").String(); a == b {
		t.Errorf("INT and FLOAT literals share the text %q", a)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"1 +",
		"(1 + 2",
		"B.",
		"B 1",
		"X.col = 1",
		"'unterminated",
		"1 @ 2",
		"1 2",
		"B..x",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q): expected error", src)
		}
	}
}

func TestParsePrecedence(t *testing.T) {
	// 1 + 2 * 3 = 7, not 9.
	v := evalBound(t, "1 + 2 * 3 = 7")
	if !v.Bool() {
		t.Error("precedence: 1 + 2 * 3 should be 7")
	}
	// Comparison binds tighter than AND.
	v = evalBound(t, "1 < 2 && 3 < 4")
	if !v.Bool() {
		t.Error("precedence: comparisons under AND")
	}
	// AND binds tighter than OR.
	v = evalBound(t, "false && false || true")
	if !v.Bool() {
		t.Error("precedence: AND over OR")
	}
	// Doubled-quote escape.
	e := MustParse("'it''s'")
	if e.(*Lit).Val.Str != "it's" {
		t.Errorf("escape: %q", e.(*Lit).Val.Str)
	}
}

func TestParseNumberForms(t *testing.T) {
	if v := evalBound(t, "1e2 = 100"); !v.Bool() {
		t.Error("scientific notation")
	}
	if v := evalBound(t, ".5 = 0.5"); !v.Bool() {
		t.Error("leading-dot float")
	}
	if v := evalBound(t, "2.5e-1 = 0.25"); !v.Bool() {
		t.Error("negative exponent")
	}
}

func TestOpString(t *testing.T) {
	if OpAdd.String() != "+" || OpAnd.String() != "&&" {
		t.Error("Op.String basic cases")
	}
	if !strings.HasPrefix(Op(99).String(), "Op(") {
		t.Error("unknown op string")
	}
	if !OpEq.IsComparison() || OpAdd.IsComparison() {
		t.Error("IsComparison")
	}
}
