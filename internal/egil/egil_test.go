package egil

import (
	"strings"
	"testing"

	"skalla/internal/agg"
	"skalla/internal/gmdj"
	"skalla/internal/relation"
)

func flowData() gmdj.Data {
	r := relation.New(relation.MustSchema(
		relation.Column{Name: "SourceAS", Kind: relation.KindInt},
		relation.Column{Name: "DestAS", Kind: relation.KindInt},
		relation.Column{Name: "NumBytes", Kind: relation.KindInt},
	))
	rows := [][3]int64{
		{1, 1, 10}, {1, 1, 20}, {1, 1, 30},
		{1, 2, 5},
		{2, 1, 7}, {2, 1, 9},
	}
	for _, x := range rows {
		r.MustAppend(relation.Tuple{relation.NewInt(x[0]), relation.NewInt(x[1]), relation.NewInt(x[2])})
	}
	return gmdj.Data{"Flow": r}
}

func TestTranslateGroupBy(t *testing.T) {
	q, err := Translate(`
		SELECT SourceAS, DestAS, COUNT(*) AS cnt, SUM(NumBytes) AS total
		FROM Flow
		GROUP BY SourceAS, DestAS`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Ops) != 1 || len(q.Base.Cols) != 2 {
		t.Fatalf("shape: %s", q)
	}
	res, err := gmdj.EvalCentral(q, flowData(), true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 3 {
		t.Fatalf("groups = %d\n%s", res.Len(), res)
	}
	ti := res.Schema.MustIndex("total")
	si := res.Schema.MustIndex("SourceAS")
	di := res.Schema.MustIndex("DestAS")
	for _, row := range res.Rows() {
		if row[si].Int == 1 && row[di].Int == 1 && row[ti].Int != 60 {
			t.Errorf("total(1,1) = %v", row[ti])
		}
	}
}

func TestTranslateWhere(t *testing.T) {
	q, err := Translate(`
		SELECT SourceAS, COUNT(*) AS cnt
		FROM Flow WHERE NumBytes > 6
		GROUP BY SourceAS`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := gmdj.EvalCentral(q, flowData(), true)
	if err != nil {
		t.Fatal(err)
	}
	// Base values: SourceAS with NumBytes>6 → 1 and 2; counts: per θ the
	// detail relation is unfiltered... no: the operator condition only links
	// the group, so all rows of the AS count. WHERE shapes the base values.
	if res.Len() != 2 {
		t.Fatalf("groups = %d\n%s", res.Len(), res)
	}
}

// HAVING EACH reproduces the paper's Example 1: the second operator counts
// detail rows above the group average.
func TestTranslateHavingEach(t *testing.T) {
	q, err := Translate(`
		SELECT SourceAS, DestAS, COUNT(*) AS cnt1, SUM(NumBytes) AS sum1
		FROM Flow
		GROUP BY SourceAS, DestAS
		HAVING EACH NumBytes >= sum1 / cnt1`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Ops) != 2 {
		t.Fatalf("ops = %d", len(q.Ops))
	}
	res, err := gmdj.EvalCentral(q, flowData(), true)
	if err != nil {
		t.Fatal(err)
	}
	mi := res.Schema.MustIndex("matching")
	si, di := res.Schema.MustIndex("SourceAS"), res.Schema.MustIndex("DestAS")
	want := map[[2]int64]int64{{1, 1}: 2, {1, 2}: 1, {2, 1}: 1}
	for _, row := range res.Rows() {
		key := [2]int64{row[si].Int, row[di].Int}
		if row[mi].Int != want[key] {
			t.Errorf("matching%v = %v, want %d", key, row[mi], want[key])
		}
	}
}

func TestTranslateCubeAndRollup(t *testing.T) {
	q, err := Translate(`SELECT SourceAS, DestAS, COUNT(*) AS n FROM Flow CUBE BY SourceAS, DestAS`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Base.GroupingSets) != 4 {
		t.Errorf("cube sets = %d", len(q.Base.GroupingSets))
	}
	res, err := gmdj.EvalCentral(q, flowData(), true)
	if err != nil {
		t.Fatal(err)
	}
	// 3 leaves + 2 SourceAS rollups + 2 DestAS rollups + total = 8.
	if res.Len() != 8 {
		t.Fatalf("cube cells = %d\n%s", res.Len(), res)
	}

	q, err = Translate(`SELECT SourceAS, COUNT(*) AS n FROM Flow ROLLUP BY SourceAS`)
	if err != nil {
		t.Fatal(err)
	}
	res, err = gmdj.EvalCentral(q, flowData(), true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 3 { // AS 1, AS 2, grand total
		t.Fatalf("rollup cells = %d\n%s", res.Len(), res)
	}
}

func TestAutoAliases(t *testing.T) {
	st, err := ParseStatement(`SELECT SourceAS, COUNT(*), SUM(NumBytes), AVG(NumBytes) FROM Flow GROUP BY SourceAS`)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{st.Aggs[0].As, st.Aggs[1].As, st.Aggs[2].As}
	want := []string{"count_1", "sum_NumBytes", "avg_NumBytes"}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("auto alias %d = %q, want %q", i, names[i], want[i])
		}
	}
	if st.Aggs[0].Func != agg.Count {
		t.Error("func mismatch")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"FROM Flow GROUP BY a",               // missing select
		"SELECT a, COUNT(*) AS c GROUP BY a", // missing from
		"SELECT a, COUNT(*) AS c FROM Flow",  // missing group
		"SELECT a, COUNT(*) AS c FROM Flow Extra GROUP BY a",            // two relations
		"SELECT a, b, COUNT(*) AS c FROM Flow GROUP BY a",               // b not grouped
		"SELECT a, COUNT(*) AS c FROM Flow GROUP BY a, b",               // b not selected
		"SELECT COUNT(*) AS c FROM Flow GROUP BY",                       // empty group list
		"SELECT a, FROB(x) AS f FROM Flow GROUP BY a",                   // unknown func
		"SELECT a, SUM(*) AS s FROM Flow GROUP BY a",                    // * for sum
		"SELECT a, COUNT(*) oops c FROM Flow GROUP BY a",                // bad alias clause
		"SELECT a alias, COUNT(*) AS c FROM Flow GROUP BY a",            // alias on plain column
		"SELECT a, COUNT(*) AS c FROM Flow GROUP BY a GROUP BY a",       // duplicate clause
		"SELECT a FROM Flow GROUP BY a",                                 // no aggregates
		"SELECT a, SUM(f(x)) AS s FROM Flow GROUP BY a",                 // nested call
		"SELECT a, COUNT(*) AS c FROM Flow WHERE (( GROUP BY a",         // bad where
		"SELECT a, COUNT(*) AS c FROM Flow CUBE BY a HAVING EACH x > c", // having on cube
		"SELECT a, COUNT(*) AS c FROM Flow GROUP BY a HAVING EACH ((",   // bad having
	}
	for _, src := range bad {
		if _, err := Translate(src); err == nil {
			t.Errorf("Translate(%q): expected error", src)
		}
	}
}

func TestWhereMustNotReferenceBase(t *testing.T) {
	if _, err := Translate(`SELECT a, COUNT(*) AS c FROM Flow WHERE B.a = 1 GROUP BY a`); err == nil {
		t.Error("base reference in WHERE must error")
	}
}

func TestCaseInsensitiveKeywords(t *testing.T) {
	q, err := Translate("select SourceAS, count(*) as n from Flow where NumBytes > 1 group by SourceAS")
	if err != nil {
		t.Fatal(err)
	}
	if q.Base.Where == nil || len(q.Ops) != 1 {
		t.Errorf("lowercase statement mis-parsed: %s", q)
	}
}

func TestKeywordInsideIdentifier(t *testing.T) {
	// "fromage" must not be split at "from".
	st, err := splitClauses("SELECT a, COUNT(*) AS fromage FROM Flow GROUP BY a")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(st["select"], "fromage") {
		t.Errorf("clauses = %v", st)
	}
}

func TestStatementValidatesAgainstSchema(t *testing.T) {
	q, err := Translate(`SELECT SourceAS, COUNT(*) AS c FROM Flow GROUP BY SourceAS`)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Validate(flowData()); err != nil {
		t.Errorf("translated query invalid: %v", err)
	}
	// Unknown columns surface at validation, not translation.
	q2, err := Translate(`SELECT Nope, COUNT(*) AS c FROM Flow GROUP BY Nope`)
	if err != nil {
		t.Fatal(err)
	}
	if err := q2.Validate(flowData()); err == nil {
		t.Error("unknown column must fail validation")
	}
}

func TestOrderByAndLimit(t *testing.T) {
	st, err := ParseStatement(`
		SELECT SourceAS, COUNT(*) AS n FROM Flow
		GROUP BY SourceAS ORDER BY n DESC LIMIT 2`)
	if err != nil {
		t.Fatal(err)
	}
	if st.OrderBy != "n" || !st.OrderDesc || st.Limit != 2 {
		t.Fatalf("clauses: %+v", st)
	}
	q, err := st.ToQuery()
	if err != nil {
		t.Fatal(err)
	}
	res, err := gmdj.EvalCentral(q, flowData(), true)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Postprocess(res); err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Fatalf("limit: %d rows", res.Len())
	}
	ni := res.Schema.MustIndex("n")
	if res.Value(0, ni).Int < res.Value(1, ni).Int {
		t.Errorf("not descending: %v", res.Rows())
	}
	// AS 1 has 4 flows, AS 2 has 2: top row must be AS 1 with n=4.
	if res.Value(0, ni).Int != 4 {
		t.Errorf("top n = %v, want 4", res.Value(0, ni))
	}
	// Ascending default.
	st2, _ := ParseStatement(`SELECT SourceAS, COUNT(*) AS n FROM Flow GROUP BY SourceAS ORDER BY n`)
	res2, _ := gmdj.EvalCentral(q, flowData(), true)
	if err := st2.Postprocess(res2); err != nil {
		t.Fatal(err)
	}
	if res2.Value(0, ni).Int != 2 {
		t.Errorf("ascending top = %v", res2.Value(0, ni))
	}

	// Postprocess edits only the header it is given: views of a shared
	// result are sorted both ways (so at least one permutes) and truncated
	// while the shared rows keep their order.
	shared, _ := gmdj.EvalCentral(q, flowData(), true)
	before := shared.Format(-1)
	desc, asc := shared.View(), shared.View()
	if err := st.Postprocess(desc); err != nil {
		t.Fatal(err)
	}
	if err := st2.Postprocess(asc); err != nil {
		t.Fatal(err)
	}
	if desc.Len() != 2 || desc.Value(0, ni).Int != 4 || asc.Value(0, ni).Int != 2 {
		t.Errorf("views not ordered and limited: %v / %v", desc.Rows(), asc.Rows())
	}
	if shared.Format(-1) != before {
		t.Errorf("postprocessing a view reordered the shared rows:\n%s\nwant:\n%s", shared.Format(-1), before)
	}
}

// TestPostprocessDecodedMatchesAppended: ORDER BY and LIMIT give a decoded
// result — a reply, a coordinator's result — the rows they give its twin
// built through Append, NULLs and ties included, and the vectors its views
// share stay in place.
func TestPostprocessDecodedMatchesAppended(t *testing.T) {
	rows := relation.New(relation.MustSchema(
		relation.Column{Name: "SourceAS", Kind: relation.KindInt},
		relation.Column{Name: "n", Kind: relation.KindInt},
		relation.Column{Name: "name", Kind: relation.KindString},
	))
	for i := 0; i < 40; i++ {
		n := relation.NewInt(int64(i % 7))
		if i%9 == 0 {
			n = relation.Null
		}
		rows.MustAppend(relation.Tuple{relation.NewInt(int64(i)), n, relation.NewString(string(rune('z' - i%11)))})
	}
	frame, err := relation.Marshal(rows)
	if err != nil {
		t.Fatal(err)
	}
	cols, err := relation.Unmarshal(frame)
	if err != nil {
		t.Fatal(err)
	}
	shared := cols.Format(-1)
	for _, clauses := range []string{"ORDER BY n DESC LIMIT 5", "ORDER BY n", "ORDER BY name DESC", "LIMIT 3", "ORDER BY SourceAS LIMIT 50"} {
		st, err := ParseStatement("SELECT SourceAS, COUNT(*) AS n FROM Flow GROUP BY SourceAS " + clauses)
		if err != nil {
			t.Fatal(err)
		}
		twin, view := rows.View(), cols.View()
		if err := st.Postprocess(twin); err != nil {
			t.Fatal(err)
		}
		if err := st.Postprocess(view); err != nil {
			t.Fatal(err)
		}
		if got, want := view.Format(-1), twin.Format(-1); got != want {
			t.Errorf("%s: decoded result\n%s\nappended twin\n%s", clauses, got, want)
		}
		if cols.Format(-1) != shared {
			t.Fatalf("%s: postprocessing a view moved the shared rows", clauses)
		}
	}
}

// TestPostprocessWithoutClausesAllocatesNothing: a statement with neither
// ORDER BY nor a LIMIT below the result's rows leaves the result as it is,
// without building a row order nothing reads.
func TestPostprocessWithoutClausesAllocatesNothing(t *testing.T) {
	res, err := gmdj.EvalCentral(gmdj.Query{Base: gmdj.BaseQuery{Detail: "Flow", Cols: []string{"SourceAS"}}}, flowData(), true)
	if err != nil {
		t.Fatal(err)
	}
	want := res.Format(-1)
	for _, clauses := range []string{"", "LIMIT 50"} {
		st, err := ParseStatement("SELECT SourceAS, COUNT(*) AS n FROM Flow GROUP BY SourceAS " + clauses)
		if err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(20, func() {
			if err := st.Postprocess(res); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%q: %v allocations per Postprocess, want 0", clauses, allocs)
		}
		if got := res.Format(-1); got != want {
			t.Errorf("%q: result changed\n%s\nwant\n%s", clauses, got, want)
		}
	}
}

func TestOrderByErrors(t *testing.T) {
	bad := []string{
		"SELECT a, COUNT(*) AS c FROM Flow GROUP BY a ORDER BY",       // empty
		"SELECT a, COUNT(*) AS c FROM Flow GROUP BY a ORDER BY a b c", // junk
		"SELECT a, COUNT(*) AS c FROM Flow GROUP BY a LIMIT x",        // non-numeric
		"SELECT a, COUNT(*) AS c FROM Flow GROUP BY a LIMIT 0",        // non-positive
		"SELECT a, COUNT(*) AS c FROM Flow GROUP BY a LIMIT -3",       // negative
	}
	for _, src := range bad {
		if _, err := ParseStatement(src); err == nil {
			t.Errorf("ParseStatement(%q): expected error", src)
		}
	}
	// Postprocess with unknown order column errors.
	st, err := ParseStatement("SELECT SourceAS, COUNT(*) AS n FROM Flow GROUP BY SourceAS ORDER BY zz")
	if err != nil {
		t.Fatal(err)
	}
	q, _ := st.ToQuery()
	res, _ := gmdj.EvalCentral(q, flowData(), true)
	if err := st.Postprocess(res); err == nil {
		t.Error("unknown ORDER BY column must error at postprocess")
	}
}

func TestVarianceThroughSQL(t *testing.T) {
	q, err := Translate(`SELECT SourceAS, STDEV(NumBytes) AS spread, VARIANCE(NumBytes) AS vr FROM Flow GROUP BY SourceAS`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := gmdj.EvalCentral(q, flowData(), true)
	if err != nil {
		t.Fatal(err)
	}
	si := res.Schema.MustIndex("SourceAS")
	sp := res.Schema.MustIndex("spread")
	vr := res.Schema.MustIndex("vr")
	for _, row := range res.Rows() {
		if row[si].Int == 2 {
			// NB 7, 9: mean 8, variance 1, stddev 1.
			if row[vr].Float != 1 || row[sp].Float != 1 {
				t.Errorf("AS 2 variance/stddev = %v/%v, want 1/1", row[vr], row[sp])
			}
		}
	}
}

// Clause keywords are found in a lowercased copy of the statement and cut
// out of the original, so the two must share byte offsets: an invalid byte or
// a rune whose lowercase has another length (İ) must not shift the cut.
func TestClauseOffsetsSurviveNonASCII(t *testing.T) {
	if _, err := Translate("SELECT \xda GROUP BY"); err == nil {
		t.Error("SELECT \\xda GROUP BY: expected an error")
	}
	q, err := Translate("SELECT İx, COUNT(*) AS c FROM Tab GROUP BY İx")
	if err != nil {
		t.Fatal(err)
	}
	if q.Base.Detail != "Tab" || len(q.Base.Cols) != 1 || q.Base.Cols[0] != "İx" {
		t.Errorf("FROM %q, keys %q; want FROM Tab, keys [İx]", q.Base.Detail, q.Base.Cols)
	}
}

// FuzzTranslate feeds the statement parser arbitrary text, as a served
// session does: it may reject the text, but must never panic.
func FuzzTranslate(f *testing.F) {
	for _, g := range []string{"MktSegment", "Clerk"} {
		f.Add("SELECT " + g + ", COUNT(*) AS cnt, AVG(ExtendedPrice) AS avgp FROM TPCR WHERE Discount >= 0.005 GROUP BY " + g + " HAVING EACH ExtendedPrice >= avgp")
		f.Add("SELECT " + g + ", COUNT(*) AS cnt, SUM(ExtendedPrice) AS total FROM TPCR WHERE Quantity >= 20 GROUP BY " + g)
	}
	f.Add("SELECT Clerk, COUNT(*) AS cnt, AVG(ExtendedPrice) AS avgp FROM TPCR WHERE Discount >= 0.005 GROUP BY Clerk HAVING EACH Discount >= 0.05")
	f.Add("SELECT MktSegment, ShipMode, OrderPriority, COUNT(*) AS cnt, SUM(ExtendedPrice) AS total FROM TPCR WHERE Discount >= 0.005 CUBE BY MktSegment, ShipMode, OrderPriority")
	f.Add("SELECT RegionKey, NationKey, CityKey, COUNT(*) AS cnt, SUM(ExtendedPrice) AS total FROM TPCR WHERE Discount >= 0.005 ROLLUP BY RegionKey, NationKey, CityKey")
	f.Add("SELECT CustName, COUNT(*) AS cnt FROM TPCR GROUP BY CustName ORDER BY cnt DESC LIMIT 5")
	f.Add("SELECT \xda GROUP BY")
	f.Add("SELECT İx, COUNT(*) AS c FROM Tab GROUP BY İx")
	f.Fuzz(func(t *testing.T, stmt string) {
		_, _ = Translate(stmt)
	})
}
