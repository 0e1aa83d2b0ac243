package main

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"skalla"
	"skalla/internal/flow"
)

func replCluster(t *testing.T) *skalla.Cluster {
	t.Helper()
	d, err := flow.Generate(flow.Config{Rows: 300, Routers: 2, SourceAS: 8, DestAS: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := skalla.NewLocalCluster(2, skalla.WithCatalog(d.Catalog()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	if err := cl.LoadPartitions(context.Background(), "Flow", d.Parts); err != nil {
		t.Fatal(err)
	}
	return cl
}

func runRepl(t *testing.T, input string) string {
	t.Helper()
	cl := replCluster(t)
	var out bytes.Buffer
	if err := repl(cl, strings.NewReader(input), &out, skalla.SelectAll(), 5); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

func TestReplSQLStatement(t *testing.T) {
	out := runRepl(t, `
SELECT SourceAS, COUNT(*) AS n FROM Flow
GROUP BY SourceAS ORDER BY n DESC LIMIT 3;
\q
`)
	for _, frag := range []string{"group(s)", "SourceAS", "round(s)"} {
		if !strings.Contains(out, frag) {
			t.Errorf("missing %q in:\n%s", frag, out)
		}
	}
	// LIMIT applies: at most 3 data rows plus truncation marker absent.
	if strings.Contains(out, "more rows") {
		t.Errorf("LIMIT 3 with \\rows 5 should print all rows:\n%s", out)
	}
}

func TestReplTextStatement(t *testing.T) {
	out := runRepl(t, `
base Flow key SourceAS
op B.SourceAS = R.SourceAS :: count(*) as c;
\q
`)
	if !strings.Contains(out, "group(s)") {
		t.Errorf("text statement failed:\n%s", out)
	}
}

func TestReplCommands(t *testing.T) {
	out := runRepl(t, `
\plan none
\explain
SELECT SourceAS, COUNT(*) AS n FROM Flow GROUP BY SourceAS;
\help
\q
`)
	for _, frag := range []string{"plan mode: none", "explain-only: true", "plan ", "commands:"} {
		if !strings.Contains(out, frag) {
			t.Errorf("missing %q in:\n%s", frag, out)
		}
	}
	// Explain-only mode must not print result groups.
	if strings.Contains(out, "group(s)") {
		t.Errorf("explain mode executed the query:\n%s", out)
	}
}

func TestReplErrorsKeepSessionAlive(t *testing.T) {
	out := runRepl(t, `
\plan bogus
\unknown
not a valid statement;
SELECT SourceAS, COUNT(*) AS n FROM Flow GROUP BY SourceAS;
\q
`)
	if strings.Count(out, "error:") < 3 {
		t.Errorf("expected three errors:\n%s", out)
	}
	if !strings.Contains(out, "group(s)") {
		t.Errorf("session must survive errors and run the last query:\n%s", out)
	}
}

func TestReplRowsCommandAndEOF(t *testing.T) {
	// EOF without \q ends cleanly; \rows changes the print budget.
	out := runRepl(t, `
\rows 1
SELECT SourceAS, COUNT(*) AS n FROM Flow GROUP BY SourceAS;
`)
	if !strings.Contains(out, "more rows") {
		t.Errorf("\\rows 1 must truncate output:\n%s", out)
	}
}

func TestReplSitesCommand(t *testing.T) {
	out := runRepl(t, `
\sites
\q
`)
	if !strings.Contains(out, "site 0:") || !strings.Contains(out, "Flow") || !strings.Contains(out, "rows") {
		t.Errorf("\\sites output:\n%s", out)
	}
}
