// Command skalla-bench regenerates the paper's Sect. 5 evaluation: one
// sub-command per figure (the speed-up experiments of Figs. 2–4, the
// scale-up experiment of Fig. 5), plus the analytic group-transfer formula
// check of Sect. 5.2. It prints the series each figure plots; EXPERIMENTS.md
// records a reference run.
//
// Usage:
//
//	skalla-bench -fig all
//	skalla-bench -fig 2 -sites 8 -rows 48000 -customers 16000
//	skalla-bench -fig 5 -scale 4 -constant-groups
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"skalla/internal/bench"
	"skalla/internal/plan"
	"skalla/internal/stats"
	"skalla/internal/tpc"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "skalla-bench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("skalla-bench", flag.ContinueOnError)
	var (
		fig       = fs.String("fig", "all", "experiment: 2, 3, 4, 5, formula, plan, or all")
		sites     = fs.Int("sites", 8, "sites for the speed-up experiments")
		rows      = fs.Int("rows", 48000, "fact tuples (total for speed-up; per ×1 scale for Fig. 5)")
		customers = fs.Int("customers", 16000, "CustName cardinality")
		cities    = fs.Int("cities-per-nation", 120, "CityKey cardinality per nation")
		clerks    = fs.Int("clerks", 3000, "Clerk cardinality")
		seed      = fs.Int64("seed", 1, "generator seed")
		scale     = fs.Int("scale", 4, "Fig. 5 maximum data scale factor")
		constG    = fs.Bool("constant-groups", false, "Fig. 5: hold the group count constant while data grows")
		netFlag   = fs.String("net", "lan", "network model: lan or none")
		jsonPath  = fs.String("json", "", "also write the measured series as JSON to this file")
		planMode  = fs.String("plan-mode", "", "fig plan: run a single selection (auto, none, all, rules=<name>,...) instead of the none/all/auto comparison")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := tpc.Config{
		Rows: *rows, Customers: *customers, Nations: 25,
		CitiesPerNation: *cities, Clerks: *clerks, Seed: *seed,
	}
	net := stats.NetModel{}
	if *netFlag == "lan" {
		net = stats.DefaultLAN()
	}
	ctx := context.Background()
	collected := make(map[string][]bench.Row)

	runFig := func(name string) error {
		switch name {
		case "2":
			d, err := tpc.Generate(cfg, *sites)
			if err != nil {
				return err
			}
			rows, err := bench.Fig2(ctx, d, *sites, net)
			if err != nil {
				return err
			}
			collected["fig2"] = rows
			fmt.Fprint(out, bench.Render("Fig. 2: group reduction (speed-up, high cardinality)", rows))
		case "3":
			d, err := tpc.Generate(cfg, *sites)
			if err != nil {
				return err
			}
			rows, err := bench.Fig3(ctx, d, *sites, net)
			if err != nil {
				return err
			}
			collected["fig3"] = rows
			fmt.Fprint(out, bench.Render("Fig. 3: coalescing (speed-up, high & low cardinality)", rows))
		case "4":
			d, err := tpc.Generate(cfg, *sites)
			if err != nil {
				return err
			}
			rows, err := bench.Fig4(ctx, d, *sites, net)
			if err != nil {
				return err
			}
			collected["fig4"] = rows
			fmt.Fprint(out, bench.Render("Fig. 4: synchronization reduction (speed-up, high & low cardinality)", rows))
		case "5":
			rows, err := bench.Fig5(ctx, cfg, 4, *scale, *constG, net)
			if err != nil {
				return err
			}
			collected["fig5"] = rows
			title := "Fig. 5: combined reductions (scale-up, 4 sites)"
			if *constG {
				title += " — constant groups"
			}
			fmt.Fprint(out, bench.Render(title, rows))
		case "plan":
			d, err := tpc.Generate(cfg, *sites)
			if err != nil {
				return err
			}
			var rows []bench.Row
			if *planMode != "" {
				sel, err := plan.ParseSelection(*planMode)
				if err != nil {
					return err
				}
				rows, err = bench.SpeedUp(ctx, d, bench.TwoPhaseQuery(bench.HighCardAttr, true), sel, "mode/"+sel.String(), *sites, net)
				if err != nil {
					return err
				}
			} else {
				rows, err = bench.PlanModes(ctx, d, *sites, net)
				if err != nil {
					return err
				}
			}
			collected["plan"] = rows
			fmt.Fprint(out, bench.Render("Plan modes: Egil rule selections on the Example 1 query", rows))
			for _, r := range rows {
				if r.X == *sites {
					fmt.Fprintf(out, "  %-12s plan %s rules=%s est %d round(s) / %d B, actual %d round(s) / %d B\n",
						r.Series, r.Plan.Fingerprint, strings.Join(r.Plan.Rules, ","),
						r.Plan.EstRounds, r.Plan.EstBytesDown+r.Plan.EstBytesUp, r.Rounds, r.Bytes)
				}
			}
		case "formula":
			d, err := tpc.Generate(cfg, *sites)
			if err != nil {
				return err
			}
			fmt.Fprintln(out, "== Sect. 5.2 formula: rows(site-reduced)/rows(baseline) vs (2c+2n+1)/(4n+1) ==")
			fmt.Fprintf(out, "%4s %8s %10s %10s %8s\n", "n", "c", "measured", "predicted", "err%")
			for n := 2; n <= *sites; n++ {
				fc, err := bench.Fig2Formula(ctx, d, n, net)
				if err != nil {
					return err
				}
				fmt.Fprintf(out, "%4d %8.3f %10.4f %10.4f %7.2f%%\n",
					fc.N, fc.C, fc.Measured, fc.Predicted, 100*fc.RelError())
			}
		default:
			return fmt.Errorf("unknown figure %q", name)
		}
		return nil
	}

	if *fig == "all" {
		for _, f := range []string{"2", "3", "4", "5", "plan", "formula"} {
			if err := runFig(f); err != nil {
				return err
			}
			fmt.Fprintln(out)
		}
	} else if err := runFig(*fig); err != nil {
		return err
	}
	if *jsonPath != "" {
		data, err := json.MarshalIndent(collected, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", *jsonPath)
	}
	return nil
}
