package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"strings"

	"skalla"
	"skalla/internal/egil"
)

// repl drives an interactive session against a connected cluster.
// Statements end with ';' and may span lines. Statements beginning with
// SELECT use the Egil SQL dialect (including ORDER BY / LIMIT); anything
// else is parsed as the skalla query text format. Backslash commands:
//
//	\plan <auto|none|all|rules=...>   set the planner rule selection
//	\explain                          toggle explain-only mode
//	\rows <n>                         result rows to print
//	\sites                            list each site's relations and row counts
//	\q                                quit
func repl(cluster *skalla.Cluster, in io.Reader, out io.Writer, sel skalla.Selection, maxRows int) error {
	ctx := context.Background()
	scanner := bufio.NewScanner(in)
	scanner.Buffer(make([]byte, 0, 64*1024), 1<<20)
	explainOnly := false
	var buf strings.Builder

	fmt.Fprintf(out, "skalla> connected to %d site(s); statements end with ';', \\q quits\n", cluster.NumSites())
	prompt := func() { fmt.Fprint(out, "skalla> ") }
	prompt()
	for scanner.Scan() {
		line := scanner.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && trimmed == "" {
			continue // blank line between statements
		}
		if buf.Len() == 0 && strings.HasPrefix(trimmed, "\\") {
			quit, err := replCommand(ctx, cluster, out, trimmed, &sel, &explainOnly, &maxRows)
			if err != nil {
				fmt.Fprintf(out, "error: %v\n", err)
			}
			if quit {
				return nil
			}
			prompt()
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if !strings.Contains(line, ";") {
			continue
		}
		stmt := strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(buf.String()), ";"))
		buf.Reset()
		if stmt != "" {
			if err := replExecute(ctx, cluster, out, stmt, sel, explainOnly, maxRows); err != nil {
				fmt.Fprintf(out, "error: %v\n", err)
			}
		}
		prompt()
	}
	return scanner.Err()
}

func replCommand(ctx context.Context, cluster *skalla.Cluster, out io.Writer, cmd string, sel *skalla.Selection, explainOnly *bool, maxRows *int) (quit bool, err error) {
	fields := strings.Fields(cmd)
	switch fields[0] {
	case "\\q", "\\quit", "\\exit":
		return true, nil
	case "\\sites":
		inv, err := cluster.Tables(ctx)
		if err != nil {
			return false, err
		}
		for i, tables := range inv {
			fmt.Fprintf(out, "site %d:\n", i)
			if len(tables) == 0 {
				fmt.Fprintln(out, "  (no relations)")
			}
			for _, ti := range tables {
				fmt.Fprintf(out, "  %-20s %8d rows  %d columns\n", ti.Name, ti.Rows, ti.Columns)
			}
		}
	case "\\plan":
		if len(fields) != 2 {
			return false, fmt.Errorf("usage: \\plan <auto|none|all|rules=...>")
		}
		s, err := skalla.ParseSelection(fields[1])
		if err != nil {
			return false, err
		}
		*sel = s
		fmt.Fprintf(out, "plan mode: %s\n", s)
	case "\\explain":
		*explainOnly = !*explainOnly
		fmt.Fprintf(out, "explain-only: %v\n", *explainOnly)
	case "\\rows":
		if len(fields) != 2 {
			return false, fmt.Errorf("usage: \\rows <n>")
		}
		if _, err := fmt.Sscanf(fields[1], "%d", maxRows); err != nil {
			return false, err
		}
	case "\\help":
		fmt.Fprintln(out, "commands: \\plan <mode>, \\explain, \\rows <n>, \\sites, \\q")
	default:
		return false, fmt.Errorf("unknown command %q (try \\help)", fields[0])
	}
	return false, nil
}

func replExecute(ctx context.Context, cluster *skalla.Cluster, out io.Writer, stmt string, sel skalla.Selection, explainOnly bool, maxRows int) error {
	var (
		q    skalla.Query
		post *egil.Statement
		err  error
	)
	if strings.EqualFold(firstWord(stmt), "select") {
		post, err = egil.ParseStatement(stmt)
		if err != nil {
			return err
		}
		q, err = post.ToQuery()
	} else {
		q, err = skalla.ParseQueryText(stmt)
	}
	if err != nil {
		return err
	}
	if explainOnly {
		pl, err := cluster.PlanWith(ctx, q, sel)
		if err != nil {
			return err
		}
		fmt.Fprint(out, pl.Describe())
		return nil
	}
	res, err := cluster.Execute(ctx, q, sel)
	if err != nil {
		return err
	}
	if post != nil {
		if err := post.Postprocess(res.Rel); err != nil {
			return err
		}
	}
	fmt.Fprintf(out, "%d group(s)\n%s", res.Rel.Len(), res.Rel.Format(maxRows))
	fmt.Fprintf(out, "%d round(s), %d bytes, response %s\n",
		res.Metrics.NumRounds(), res.Metrics.TotalBytes(), res.Metrics.ResponseTime())
	return nil
}

func firstWord(s string) string {
	fields := strings.Fields(s)
	if len(fields) == 0 {
		return ""
	}
	return fields[0]
}
