package olap

import (
	"context"
	"testing"

	"skalla/internal/agg"
	"skalla/internal/core"
	"skalla/internal/engine"
	"skalla/internal/gmdj"
	"skalla/internal/plan"
	"skalla/internal/relation"
	"skalla/internal/stats"
	"skalla/internal/transport"
)

// sales is a tiny fact relation with two dimensions and a measure.
func sales() *relation.Relation {
	r := relation.New(relation.MustSchema(
		relation.Column{Name: "region", Kind: relation.KindString},
		relation.Column{Name: "product", Kind: relation.KindString},
		relation.Column{Name: "units", Kind: relation.KindInt},
	))
	rows := []struct {
		region, product string
		units           int64
	}{
		{"east", "pen", 10},
		{"east", "pen", 5},
		{"east", "ink", 7},
		{"west", "pen", 3},
		{"west", "ink", 2},
		{"west", "ink", 1},
	}
	for _, x := range rows {
		r.MustAppend(relation.Tuple{
			relation.NewString(x.region), relation.NewString(x.product), relation.NewInt(x.units),
		})
	}
	return r
}

func cubeAggs() []agg.Spec {
	return []agg.Spec{
		{Func: agg.Count, As: "n"},
		{Func: agg.Sum, Arg: "units", As: "total"},
	}
}

func lookup(t *testing.T, res *relation.Relation, region, product relation.Value) relation.Tuple {
	t.Helper()
	ri, pi := res.Schema.MustIndex("region"), res.Schema.MustIndex("product")
	for _, row := range res.Rows() {
		if row[ri].Equal(region) && row[pi].Equal(product) {
			return row
		}
	}
	t.Fatalf("no cube row for (%v, %v) in\n%s", region, product, res)
	return nil
}

func TestCubeCentralized(t *testing.T) {
	q, err := CubeQuery("Sales", []string{"region", "product"}, cubeAggs())
	if err != nil {
		t.Fatal(err)
	}
	res, err := gmdj.EvalCentral(q, gmdj.Data{"Sales": sales()}, true)
	if err != nil {
		t.Fatal(err)
	}
	// 2 regions × 2 products + 2 region rollups + 2 product rollups + total.
	if res.Len() != 9 {
		t.Fatalf("cube rows = %d, want 9\n%s", res.Len(), res)
	}
	ni, ti := res.Schema.MustIndex("n"), res.Schema.MustIndex("total")
	check := func(region, product relation.Value, n, total int64) {
		row := lookup(t, res, region, product)
		if row[ni].Int != n || row[ti].Int != total {
			t.Errorf("(%v,%v): n=%v total=%v, want %d/%d", region, product, row[ni], row[ti], n, total)
		}
	}
	east, west := relation.NewString("east"), relation.NewString("west")
	pen, ink := relation.NewString("pen"), relation.NewString("ink")
	check(east, pen, 2, 15)
	check(east, ink, 1, 7)
	check(west, pen, 1, 3)
	check(west, ink, 2, 3)
	check(east, relation.Null, 3, 22) // region rollup
	check(west, relation.Null, 3, 6)
	check(relation.Null, pen, 3, 18) // product rollup
	check(relation.Null, ink, 3, 10)
	check(relation.Null, relation.Null, 6, 28) // grand total
}

func TestRollupCentralized(t *testing.T) {
	q, err := RollupQuery("Sales", []string{"region", "product"}, cubeAggs())
	if err != nil {
		t.Fatal(err)
	}
	res, err := gmdj.EvalCentral(q, gmdj.Data{"Sales": sales()}, true)
	if err != nil {
		t.Fatal(err)
	}
	// 4 leaf groups + 2 region subtotals + 1 grand total (no product-only sets).
	if res.Len() != 7 {
		t.Fatalf("rollup rows = %d, want 7\n%s", res.Len(), res)
	}
	pi := res.Schema.MustIndex("product")
	ri := res.Schema.MustIndex("region")
	for _, row := range res.Rows() {
		if row[ri].IsNull() && !row[pi].IsNull() {
			t.Errorf("rollup must not contain product-only set: %v", row)
		}
	}
}

// The cube of a distributed warehouse must equal the centralized cube, for
// every optimization combination — the paper's uniform-expressibility claim
// carried through the distributed engine.
func TestCubeDistributed(t *testing.T) {
	q, err := CubeQuery("Sales", []string{"region", "product"}, cubeAggs())
	if err != nil {
		t.Fatal(err)
	}
	want, err := gmdj.EvalCentral(q, gmdj.Data{"Sales": sales()}, true)
	if err != nil {
		t.Fatal(err)
	}
	// Partition by region across 2 sites.
	global := sales()
	ri := global.Schema.MustIndex("region")
	sites := make([]transport.Site, 2)
	for i, region := range []string{"east", "west"} {
		es := engine.NewSite(i)
		part := global.Filter(func(tp relation.Tuple) bool { return tp[ri].Str == region })
		if err := es.Load(context.Background(), "Sales", part); err != nil {
			t.Fatal(err)
		}
		l := transport.NewLocalSite(es)
		t.Cleanup(func() { l.Close() })
		sites[i] = l
	}
	coord, err := core.New(sites, nil, stats.NetModel{})
	if err != nil {
		t.Fatal(err)
	}
	for _, sel := range []plan.Selection{plan.SelectNone(), plan.SelectAll(), plan.SelectRules("group-reduce-site")} {
		res, err := coord.ExecuteWith(context.Background(), q, sel)
		if err != nil {
			t.Fatalf("[%s]: %v", sel, err)
		}
		if !res.Rel.EqualMultiset(want) {
			got := res.Rel.Clone()
			got.Sort()
			exp := want.Clone()
			exp.Sort()
			t.Fatalf("[%s]: distributed cube mismatch\ngot:\n%s\nwant:\n%s", sel, got, exp)
		}
		// A single-operator cube is one GMDJ round plus the base round at
		// most (grouping sets defeat sync reduction by design).
		if res.Metrics.NumRounds() > 2 {
			t.Errorf("[%s]: cube took %d rounds", sel, res.Metrics.NumRounds())
		}
	}
}

func TestQueryBuilderErrors(t *testing.T) {
	aggs := cubeAggs()
	if _, err := GroupingSetsQuery("S", nil, [][]string{{}}, aggs); err == nil {
		t.Error("no dims must error")
	}
	if _, err := GroupingSetsQuery("S", []string{"a"}, nil, aggs); err == nil {
		t.Error("no sets must error")
	}
	if _, err := GroupingSetsQuery("S", []string{"a"}, [][]string{{}}, nil); err == nil {
		t.Error("no aggs must error")
	}
	if _, err := GroupingSetsQuery("S", []string{"a"}, [][]string{{"b"}}, aggs); err == nil {
		t.Error("set with non-dimension must error")
	}
	if _, err := CubeQuery("S", make([]string, 17), aggs); err == nil {
		t.Error("17-dimensional cube must error")
	}
}

func TestGroupingSetsValidation(t *testing.T) {
	q, err := GroupingSetsQuery("Sales", []string{"region", "product"},
		[][]string{{"region"}, {}}, cubeAggs())
	if err != nil {
		t.Fatal(err)
	}
	res, err := gmdj.EvalCentral(q, gmdj.Data{"Sales": sales()}, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 3 { // east, west, grand total
		t.Fatalf("grouping sets rows = %d, want 3\n%s", res.Len(), res)
	}
	// A set referencing an unknown base column fails validation.
	bad := q
	bad.Base.GroupingSets = [][]string{{"nope"}}
	if err := bad.Validate(gmdj.Data{"Sales": sales()}); err == nil {
		t.Error("invalid grouping set must fail validation")
	}
}

func TestUnpivotAndMarginals(t *testing.T) {
	up, err := Unpivot(sales(), []string{"region"}, []string{"product"})
	if err != nil {
		t.Fatal(err)
	}
	if up.Len() != 6 {
		t.Fatalf("unpivot rows = %d", up.Len())
	}
	if !up.Schema.Has("Attr") || !up.Schema.Has("Val") || !up.Schema.Has("region") {
		t.Fatalf("unpivot schema = %s", up.Schema)
	}
	// NULL values are skipped.
	withNull := sales()
	withNull.Columns().Vecs[1].Set(0, withNull.Len(), relation.Null)
	up2, _ := Unpivot(withNull, nil, []string{"product"})
	if up2.Len() != 5 {
		t.Errorf("unpivot with NULL = %d rows, want 5", up2.Len())
	}
	// Unknown columns error.
	if _, err := Unpivot(sales(), []string{"zz"}, []string{"product"}); err != nil {
		// expected
	} else {
		t.Error("unknown keep column must error")
	}
	if _, err := Unpivot(sales(), nil, []string{"zz"}); err == nil {
		t.Error("unknown unpivot column must error")
	}

	// Marginal distribution over the unpivoted relation.
	q := MarginalsQuery("UP")
	res, err := gmdj.EvalCentral(q, gmdj.Data{"UP": up}, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 { // (product, pen) and (product, ink)
		t.Fatalf("marginals = %d rows\n%s", res.Len(), res)
	}
	fi := res.Schema.MustIndex("freq")
	vi := res.Schema.MustIndex("Val")
	for _, row := range res.Rows() {
		if row[vi].Str == "pen" && row[fi].Int != 3 {
			t.Errorf("pen freq = %v", row[fi])
		}
		if row[vi].Str == "ink" && row[fi].Int != 3 {
			t.Errorf("ink freq = %v", row[fi])
		}
	}
}
