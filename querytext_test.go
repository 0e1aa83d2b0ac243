package skalla

import (
	"context"
	"strings"
	"testing"

	"skalla/internal/agg"
)

const example1Text = `
# The paper's Example 1.
base Flow key SourceAS, DestAS
op B.SourceAS = R.SourceAS && B.DestAS = R.DestAS :: count(*) as cnt1, sum(NumBytes) as sum1
op B.SourceAS = R.SourceAS && B.DestAS = R.DestAS && R.NumBytes >= B.sum1 / B.cnt1 :: count(*) as cnt2
`

func TestParseQueryTextExample1(t *testing.T) {
	q, err := ParseQueryText(example1Text)
	if err != nil {
		t.Fatal(err)
	}
	if q.Base.Detail != "Flow" || len(q.Base.Cols) != 2 || len(q.Ops) != 2 {
		t.Fatalf("shape: %+v", q)
	}
	if q.Ops[0].Vars[0].Aggs[1].As != "sum1" {
		t.Errorf("aggs: %v", q.Ops[0].Vars[0].Aggs)
	}
	// The parsed query executes and matches the builder-built version.
	cl, _ := loadedFlowCluster(t)
	defer cl.Close()
	want, err := cl.Execute(context.Background(), flowQuery(t), SelectNone())
	if err != nil {
		t.Fatal(err)
	}
	got, err := cl.Execute(context.Background(), q, SelectNone())
	if err != nil {
		t.Fatal(err)
	}
	if !got.Rel.EqualMultiset(want.Rel) {
		t.Error("text query result differs from builder query")
	}
}

func TestParseQueryTextClauses(t *testing.T) {
	q, err := ParseQueryText(`
base T key a
where R.v > 0
op B.a = R.a :: count(*) as c1
var B.a = R.b :: sum(v) as s1
op T2 B.a = R.a :: avg(v) as a2
`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Base.Where == nil {
		t.Error("where clause lost")
	}
	if len(q.Ops) != 2 || len(q.Ops[0].Vars) != 2 {
		t.Fatalf("ops/vars: %d/%d", len(q.Ops), len(q.Ops[0].Vars))
	}
	if q.Ops[1].Detail != "T2" {
		t.Errorf("op relation = %q", q.Ops[1].Detail)
	}
}

func TestParseQueryTextErrors(t *testing.T) {
	bad := []string{
		"",                                     // no base
		"op B.a = R.a :: count(*) as c",        // op before base
		"where R.v > 0",                        // where before base
		"var true :: count(*) as c",            // var before base
		"base T key a\nbase T key a",           // duplicate base
		"base T",                               // missing key
		"base T key",                           // empty keys
		"base T key a,",                        // trailing empty key
		"frobnicate x",                         // unknown clause
		"base T key a\nop B.a = R.a",           // missing ::
		"base T key a\nop B.a = R.a :: bogus",  // bad agg
		"base T key a\nvar x",                  // var missing ::
		"base T key a\nop (( :: count(*) as c", // bad condition
		"base T key a\nwhere ((",               // bad filter
	}
	for _, src := range bad {
		if _, err := ParseQueryText(src); err == nil {
			t.Errorf("ParseQueryText(%q): expected error", src)
		}
	}
}

// Duplicate where and where-after-op are rejected (the second where used to
// silently overwrite the first), and the errors carry the offending line.
func TestParseQueryTextWherePlacement(t *testing.T) {
	cases := []struct {
		src  string
		frag string // expected error fragment, line number included
	}{
		{
			src:  "base T key a\nwhere R.v > 0\nwhere R.v < 9\nop B.a = R.a :: count(*) as c",
			frag: "line 3: duplicate where",
		},
		{
			src:  "base T key a\nop B.a = R.a :: count(*) as c\nwhere R.v > 0",
			frag: "line 3: where after op",
		},
		{
			src:  "base T key a\n\n# comment\nwhere ((",
			frag: "line 4:",
		},
		{
			src:  "base T key a\nop B.a = R.a :: count(*) as c\nvar (( :: count(*) as c2",
			frag: "line 3:",
		},
	}
	for _, tc := range cases {
		_, err := ParseQueryText(tc.src)
		if err == nil {
			t.Errorf("ParseQueryText(%q): expected error", tc.src)
			continue
		}
		if !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("ParseQueryText(%q): error %q missing %q", tc.src, err, tc.frag)
		}
	}
	// A single where before the ops stays legal.
	if _, err := ParseQueryText("base T key a\nwhere R.v > 0\nop B.a = R.a :: count(*) as c"); err != nil {
		t.Errorf("legal where rejected: %v", err)
	}
}

func TestParseAggList(t *testing.T) {
	specs, err := ParseAggList("count(*) as c, SUM(x) AS s, avg(y) as a, min(z) as mn, max(z) as mx, count(w) as cw, variance(y) as vy, stdev(y) as sy")
	if err != nil {
		t.Fatal(err)
	}
	want := []AggSpec{
		{Func: agg.Count, As: "c"},
		{Func: agg.Sum, Arg: "x", As: "s"},
		{Func: agg.Avg, Arg: "y", As: "a"},
		{Func: agg.Min, Arg: "z", As: "mn"},
		{Func: agg.Max, Arg: "z", As: "mx"},
		{Func: agg.Count, Arg: "w", As: "cw"},
		{Func: agg.Variance, Arg: "y", As: "vy"},
		{Func: agg.StdDev, Arg: "y", As: "sy"},
	}
	if len(specs) != len(want) {
		t.Fatalf("len = %d", len(specs))
	}
	for i := range want {
		if specs[i] != want[i] {
			t.Errorf("spec %d = %+v, want %+v", i, specs[i], want[i])
		}
	}
	bad := []string{
		"",
		"count(*)",        // missing as
		"count(*) as",     // missing name
		"count(*) as a b", // trailing garbage
		"frob(x) as f",    // unknown func
		"sum(*) as s",     // * only for count
		"sum() as s",      // empty arg
		"count(*) as c,,", // empty item
		"count* as c",     // no parens
	}
	for _, src := range bad {
		if _, err := ParseAggList(src); err == nil {
			t.Errorf("ParseAggList(%q): expected error", src)
		}
	}
}

func TestIsBareIdent(t *testing.T) {
	for _, s := range []string{"T", "Flow2", "rel_name"} {
		if !isBareIdent(s) {
			t.Errorf("%q should be a bare identifier", s)
		}
	}
	for _, s := range []string{"", "B.a", "true", "NOT", "(x", "a=b", "'s'"} {
		if isBareIdent(s) {
			t.Errorf("%q should not be a bare identifier", s)
		}
	}
}

func TestParseQueryTextComments(t *testing.T) {
	q, err := ParseQueryText(strings.ReplaceAll(example1Text, "op B.SourceAS", "op B.SourceAS # not a comment here?? no: whole-line comments only\nop B.SourceAS"))
	// The injected line truncates at '#', producing an op without '::' → error.
	if err == nil {
		t.Skipf("parsed unexpectedly: %v", q)
	}
}
