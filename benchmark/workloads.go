package main

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"skalla"
	"skalla/internal/egil"
	"skalla/internal/gmdj"
	"skalla/internal/tpc"
)

// numSites is the cluster size of every workload: four TCP sites, the
// paper's NationKey partitioning (nation n lives at site n % 4).
const numSites = 4

// fixedLiteral is the Discount literal of the oracle, cold and wire passes.
// Discount is a multiple of 0.01, so every literal in (0, 0.01) selects the
// same rows and a statement's result does not depend on which one it carries.
const fixedLiteral = "0.005"

// template is one statement shape. text contains one %s where the unique
// literal goes; fixed-statement workloads have no %s.
type template struct {
	name string
	text string
}

func (t template) at(lit string) string {
	if !strings.Contains(t.text, "%s") {
		return t.text
	}
	return fmt.Sprintf(t.text, lit)
}

// parse turns a statement into its GMDJ expression the way the server's
// handler does: SELECT statements are Egil SQL, anything else query text.
func parse(stmt string) (gmdj.Query, error) {
	if isSQL(stmt) {
		return egil.Translate(stmt)
	}
	return skalla.ParseQueryText(stmt)
}

func isSQL(stmt string) bool {
	f := strings.Fields(stmt)
	return len(f) > 0 && strings.EqualFold(f[0], "select")
}

// workload is one set of inputs: a TPCR instance and a statement stream.
type workload struct {
	name string
	why  string
	// rows, customers and clerks size the TPCR instance (frozen; see README).
	rows, customers, clerks int
	templates               []template
	// zipf draws templates with a seeded Zipf(1.1) instead of round-robin:
	// the statements are then fixed texts, and the working set (16) fits the
	// plan cache (128) and the result cache (64).
	zipf bool
}

// smokeSized returns the workload over a tiny instance, for tests.
func (w workload) smokeSized() workload {
	w.rows, w.customers, w.clerks = 2000, 200, 100
	return w
}

func (w workload) config(seed int64) tpc.Config {
	c := tpc.DefaultConfig()
	c.Rows, c.Customers, c.Clerks, c.Seed = w.rows, w.customers, w.clerks, seed
	return c
}

const zipfS = 1.1

// weights returns the probability with which the statement stream draws each
// template.
func (w workload) weights() []float64 {
	n := len(w.templates)
	p := make([]float64, n)
	if !w.zipf {
		for i := range p {
			p[i] = 1 / float64(n)
		}
		return p
	}
	// rand.Zipf with v = 1: P(k) ∝ (1 + k)^-s for k in [0, n).
	sum := 0.0
	for i := range p {
		p[i] = math.Pow(float64(1+i), -zipfS)
		sum += p[i]
	}
	for i := range p {
		p[i] /= sum
	}
	return p
}

// example1 is the paper's Example 1 shape: three rounds when nothing reduces
// them — the groups, their count and average, then the rows above average.
func example1(name, g string) template {
	return template{name, "SELECT " + g + ", COUNT(*) AS cnt, AVG(ExtendedPrice) AS avgp FROM TPCR WHERE Discount >= %s GROUP BY " + g + " HAVING EACH ExtendedPrice >= avgp"}
}

var paperMix = []template{
	example1("fig2_custname", "CustName"),
	example1("fig4_citykey", "CityKey"),
	{"fig3_clerk_independent", "SELECT Clerk, COUNT(*) AS cnt, AVG(ExtendedPrice) AS avgp FROM TPCR WHERE Discount >= %s GROUP BY Clerk HAVING EACH Discount >= 0.05"},
	{"cube_3d", "SELECT MktSegment, ShipMode, OrderPriority, COUNT(*) AS cnt, SUM(ExtendedPrice) AS total FROM TPCR WHERE Discount >= %s CUBE BY MktSegment, ShipMode, OrderPriority"},
	{"rollup_geo", "SELECT RegionKey, NationKey, CityKey, COUNT(*) AS cnt, SUM(ExtendedPrice) AS total FROM TPCR WHERE Discount >= %s ROLLUP BY RegionKey, NationKey, CityKey"},
	{"example1_text", "base TPCR key NationKey\nwhere R.Discount >= %s\nop B.NationKey = R.NationKey :: count(*) as cnt, avg(ExtendedPrice) as avgp\nop B.NationKey = R.NationKey && R.ExtendedPrice >= B.avgp :: count(*) as matching"},
}

func dashboard() []template {
	var ts []template
	for _, t := range paperMix {
		ts = append(ts, template{t.name, t.at(fixedLiteral)})
	}
	add := func(g string, ks ...int) {
		for _, k := range ks {
			ts = append(ts, template{
				fmt.Sprintf("%s_qty%d", strings.ToLower(g), k),
				fmt.Sprintf("SELECT %s, COUNT(*) AS cnt, SUM(ExtendedPrice) AS total FROM TPCR WHERE Quantity >= %d GROUP BY %s", g, k, g),
			})
		}
	}
	add("NationKey", 10, 20, 30)
	add("CityKey", 10, 20, 30)
	add("Clerk", 10, 20, 30, 40)
	return ts
}

// workloads are the benchmark's four traffic mixes. Sizes are frozen: a
// performance claim names one of these by name.
var workloads = []workload{
	{
		name: "scan_heavy",
		why:  "three rounds scanning 30k-row partitions for 4-7 groups: engine/gmdj do nearly all the work, codec, transport and merge almost none",
		rows: 120000, customers: 8000, clerks: 4000,
		templates: []template{
			example1("ex1_mktsegment", "MktSegment"),
			example1("ex1_shipmode", "ShipMode"),
			example1("ex1_orderpriority", "OrderPriority"),
			example1("ex1_regionkey", "RegionKey"),
		},
	},
	{
		name: "group_heavy",
		why:  "thousands of Clerk groups, not partition-aligned: X goes to all four sites and H_i comes back every round, so codec, transport and sync-merge dominate",
		rows: 16000, customers: 16000, clerks: 8000,
		templates: []template{example1("ex1_clerk", "Clerk")},
	},
	{
		name: "dashboard_repeat",
		why:  "16 fixed statements drawn Zipf(1.1): the working set fits both caches, so replies are plan- and result-cache hits with zero site rounds",
		rows: 60000, customers: 8000, clerks: 4000,
		templates: dashboard(), zipf: true,
	},
	{
		name: "paper_mix",
		why:  "the harnessed Fig. 2/3/4, cube, rollup and Example 1 query list with unique literals: plan rules, EvalLocal and coalesced operators all do real work",
		rows: 48000, customers: 8000, clerks: 4000,
		templates: paperMix,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// stmtGen is one client's seeded statement stream. The program under test
// sees only the strings it produces.
type stmtGen struct {
	w     workload
	rng   *rand.Rand
	zipf  *rand.Zipf
	cycle []int // round-robin: what is left of the current pass over the templates
}

func newStmtGen(w workload, seed int64, client int) *stmtGen {
	g := &stmtGen{w: w, rng: rand.New(rand.NewSource(seed*1000003 + int64(client)*7919 + 1))}
	if w.zipf {
		g.zipf = rand.NewZipf(g.rng, zipfS, 1, uint64(len(w.templates)-1))
	}
	return g
}

// literalSpace is the number of distinct unique literals: 0.00 followed by
// ten digits that are not all zero, so every literal lies in (0, 0.01).
const literalSpace = 10_000_000_000

// Next returns the next statement and the index of its template.
//
// Round-robin streams visit every template once per pass, each pass in a
// freshly shuffled order: the shares are exact, and two clients cycling
// through the same list cannot fall into step — in a fixed order their
// phase, and with it how well light and heavy statements overlap, would be
// set once per run and move throughput from run to run.
func (g *stmtGen) Next() (int, string) {
	if g.zipf != nil {
		i := int(g.zipf.Uint64())
		return i, g.w.templates[i].text
	}
	if len(g.cycle) == 0 {
		g.cycle = g.rng.Perm(len(g.w.templates))
	}
	i := g.cycle[0]
	g.cycle = g.cycle[1:]
	lit := fmt.Sprintf("0.00%010d", 1+g.rng.Int63n(literalSpace-1))
	return i, g.w.templates[i].at(lit)
}
