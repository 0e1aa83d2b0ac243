package skalla

import (
	"context"
	"testing"

	"skalla/internal/gmdj"
)

// The public cube API over a distributed cluster: rollup rows and leaves
// agree with the centralized oracle.
func TestFacadeCube(t *testing.T) {
	cl, d := loadedFlowCluster(t)
	defer cl.Close()
	q, err := CubeQuery("Flow", []string{"SourceAS", "DestAS"},
		Count("flows"), Sum("NumBytes", "bytes"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := gmdj.EvalCentral(q, gmdj.Data{"Flow": d.Global()}, true)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Execute(context.Background(), q, SelectAll())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Rel.EqualMultiset(want) {
		t.Error("facade cube mismatch")
	}
	// The grand-total row counts every flow.
	si, di := res.Rel.Schema.MustIndex("SourceAS"), res.Rel.Schema.MustIndex("DestAS")
	fi := res.Rel.Schema.MustIndex("flows")
	found := false
	for _, row := range res.Rel.Rows() {
		if row[si].IsNull() && row[di].IsNull() {
			found = true
			if row[fi].Int != int64(d.Global().Len()) {
				t.Errorf("grand total = %v, want %d", row[fi], d.Global().Len())
			}
		}
	}
	if !found {
		t.Error("grand-total row missing")
	}
}

func TestFacadeRollupAndGroupingSets(t *testing.T) {
	cl, _ := loadedFlowCluster(t)
	defer cl.Close()
	rq, err := RollupQuery("Flow", []string{"SourceAS", "DestAS"}, Count("n"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Execute(context.Background(), rq, SelectNone()); err != nil {
		t.Fatal(err)
	}
	gq, err := GroupingSetsQuery("Flow", []string{"SourceAS"}, [][]string{{"SourceAS"}, {}}, Count("n"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Execute(context.Background(), gq, SelectNone())
	if err != nil {
		t.Fatal(err)
	}
	// 30 source ASes + grand total.
	si := res.Rel.Schema.MustIndex("SourceAS")
	totals := 0
	for _, row := range res.Rel.Rows() {
		if row[si].IsNull() {
			totals++
		}
	}
	if totals != 1 {
		t.Errorf("grand totals = %d, want 1", totals)
	}
}

// TranslateSQL through the public API: the paper's Example 1 expressed as
// SQL with HAVING EACH matches the builder version.
func TestFacadeTranslateSQL(t *testing.T) {
	cl, _ := loadedFlowCluster(t)
	defer cl.Close()
	sqlQ, err := TranslateSQL(`
		SELECT SourceAS, DestAS, COUNT(*) AS cnt1, SUM(NumBytes) AS sum1
		FROM Flow
		GROUP BY SourceAS, DestAS
		HAVING EACH NumBytes >= sum1 / cnt1`)
	if err != nil {
		t.Fatal(err)
	}
	sqlRes, err := cl.Execute(context.Background(), sqlQ, SelectAll())
	if err != nil {
		t.Fatal(err)
	}
	builderRes, err := cl.Execute(context.Background(), flowQuery(t), SelectAll())
	if err != nil {
		t.Fatal(err)
	}
	// Same group count; the SQL version's second aggregate is named
	// "matching" instead of "cnt2", so compare cardinalities and a few cells.
	if sqlRes.Rel.Len() != builderRes.Rel.Len() {
		t.Errorf("groups: sql %d vs builder %d", sqlRes.Rel.Len(), builderRes.Rel.Len())
	}
	mi := sqlRes.Rel.Schema.MustIndex("matching")
	ci := builderRes.Rel.Schema.MustIndex("cnt2")
	sum := func(rel *Relation, idx int) (s int64) {
		for _, row := range rel.Rows() {
			s += row[idx].Int
		}
		return
	}
	if sum(sqlRes.Rel, mi) != sum(builderRes.Rel, ci) {
		t.Error("HAVING EACH totals disagree with builder query")
	}
}

// WithRowBlocking through the public API must leave results unchanged while
// chunking the sub-aggregate transfer.
func TestFacadeRowBlocking(t *testing.T) {
	plain, d := loadedFlowCluster(t)
	defer plain.Close()
	blocked, err := NewLocalCluster(3, WithCatalog(d.Catalog()), WithRowBlocking(4))
	if err != nil {
		t.Fatal(err)
	}
	defer blocked.Close()
	if err := blocked.LoadPartitions(context.Background(), "Flow", d.Parts); err != nil {
		t.Fatal(err)
	}
	q := flowQuery(t)
	a, err := plain.Execute(context.Background(), q, SelectNone())
	if err != nil {
		t.Fatal(err)
	}
	b, err := blocked.Execute(context.Background(), q, SelectNone())
	if err != nil {
		t.Fatal(err)
	}
	if !a.Rel.EqualMultiset(b.Rel) {
		t.Error("row blocking changed results")
	}
}
