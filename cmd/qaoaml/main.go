// Command qaoaml regenerates every table and figure of "Accelerating
// Quantum Approximate Optimization Algorithm using Machine Learning"
// (Alam, Ash-Saki, Ghosh — DATE 2020).
//
// Usage:
//
//	qaoaml [flags] <experiment>
//
// Experiments: datagen, table1, fig1c, fig2, fig3, fig5, fig6, mlcmp, all.
//
// The default scale runs in tens of seconds; -paper restores the
// paper's full setup (330 graphs, 20 starts, 20 reps — minutes of CPU).
// -timeout bounds the run (cancellation lands within one optimizer
// step), and -metrics dumps the collected telemetry — per-depth FC
// histograms, optimizer run stats, flow spans — as JSON.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"qaoaml/internal/core"
	"qaoaml/internal/experiments"
	"qaoaml/internal/stats"
	"qaoaml/internal/telemetry"
)

func main() {
	flag.Usage = usage
	cfg, err := FromFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "qaoaml:", err)
		os.Exit(2)
	}
	if flag.NArg() != 1 {
		usage()
		os.Exit(2)
	}

	ctx, cancel := cfg.Context()
	defer cancel()
	var mem *telemetry.Memory
	if cfg.Metrics != "" {
		mem = telemetry.NewMemory()
	}

	runErr := run(ctx, flag.Arg(0), cfg, mem)
	if mem != nil {
		// Dump whatever was collected even when the run was cut short:
		// partial metrics are exactly what a timed-out sweep leaves behind.
		if err := writeMetrics(cfg.Metrics, mem); err != nil {
			fmt.Fprintln(os.Stderr, "qaoaml:", err)
			os.Exit(1)
		}
		fmt.Printf("telemetry written to %s\n", cfg.Metrics)
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "qaoaml:", runErr)
		os.Exit(1)
	}
}

func writeMetrics(path string, mem *telemetry.Memory) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := mem.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: qaoaml [flags] <experiment>

experiments:
  datagen   generate the optimal-parameter dataset and print summary stats
  table1    Table I  — naive vs two-level FC/AR for 4 optimizers × depths
  fig1c     Fig 1(c) — AR and QC-call distributions vs depth
  fig2      Fig 2    — within-depth optimal parameter patterns
  fig3      Fig 3    — optimal parameters vs circuit depth
  fig5      Fig 5    — predictor/response correlation analysis
  fig6      Fig 6    — ML prediction error distributions
  mlcmp     Sec III-C — GPR vs LM vs RTREE vs RSVM comparison
  hier      Sec I(d)  — hierarchical vs two-level vs naive ablation
  spsa      extension — two-level initialization under SPSA
  noise     extension — AR degradation under depolarizing gate noise
  all       everything above (one shared dataset)

flags:
`)
	flag.PrintDefaults()
}

// needsEnv reports whether the experiment requires the generated
// dataset and trained predictor.
func needsEnv(name string) bool {
	switch name {
	case "fig1c", "fig2", "fig3", "noise":
		return false
	}
	return true
}

func run(ctx context.Context, name string, cfg RunConfig, mem *telemetry.Memory) error {
	start := time.Now()
	scale := cfg.Scale()
	var rec telemetry.Recorder // stays untyped-nil when -metrics is off
	if mem != nil {
		rec = mem
	}
	var env *experiments.Env
	if needsEnv(name) {
		var err error
		if cfg.LoadData != "" {
			fmt.Printf("loading dataset from %s...\n", cfg.LoadData)
			data, lerr := core.LoadFile(cfg.LoadData)
			if lerr != nil {
				return lerr
			}
			env, err = experiments.NewEnvFromData(scale, data)
		} else {
			fmt.Printf("generating dataset: %d graphs × depths 1..%d × %d starts (seed %d)...\n",
				scale.NumGraphs, scale.MaxDepth, scale.Starts, scale.Seed)
			env, err = experiments.NewEnvCtx(ctx, scale, rec)
		}
		if err != nil {
			return err
		}
		env.Recorder = rec
		if cfg.SaveData != "" {
			if err := env.Data.SaveFile(cfg.SaveData); err != nil {
				return err
			}
			fmt.Printf("dataset written to %s\n", cfg.SaveData)
		}
		fmt.Printf("dataset ready in %v: %d optimal parameters, %d train / %d test graphs\n\n",
			time.Since(start).Round(time.Millisecond), env.Data.NumParams(),
			len(env.TrainIDs), len(env.TestIDs))
		if cfg.ModelOut != "" {
			if err := env.Predictor.SaveFile(cfg.ModelOut); err != nil {
				return err
			}
			fmt.Printf("trained model written to %s (target depths %v)\n\n",
				cfg.ModelOut, env.Predictor.TargetDepths())
		}
	}
	if cfg.ModelOut != "" && env == nil {
		return fmt.Errorf("-model-out needs an experiment that trains the predictor (e.g. datagen)")
	}
	if err := ctx.Err(); err != nil {
		return err
	}

	// report prints a result and, with -csv, also writes <id>.csv.
	report := func(id string, res interface {
		String() string
		CSV() string
	}) error {
		fmt.Println(res)
		if cfg.CSVDir == "" {
			return nil
		}
		path := filepath.Join(cfg.CSVDir, experiments.CSVName(id))
		if err := os.WriteFile(path, []byte(res.CSV()), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n\n", path)
		return nil
	}

	switch name {
	case "datagen":
		printDatagenSummary(env)
	case "table1":
		res, err := experiments.RunTable1(ctx, env)
		if err != nil {
			return err
		}
		return finish(start, report("table1", res))
	case "fig1c":
		return finish(start, report("fig1c", experiments.RunFig1c(scale.MaxTarget, scale.Starts, scale.Seed)))
	case "fig2":
		return finish(start, report("fig2", experiments.RunFig2(scale.Starts, scale.Seed)))
	case "fig3":
		return finish(start, report("fig3", experiments.RunFig3(scale.MaxTarget, scale.Starts, scale.Seed)))
	case "fig5":
		return finish(start, report("fig5", experiments.RunFig5(env)))
	case "fig6":
		return finish(start, report("fig6", experiments.RunFig6(env)))
	case "mlcmp":
		res, err := experiments.RunModelComparison(env)
		if err != nil {
			return err
		}
		return finish(start, report("mlcmp", res))
	case "hier":
		res, err := experiments.RunHierarchical(ctx, env)
		if err != nil {
			return err
		}
		return finish(start, report("hier", res))
	case "spsa":
		res, err := experiments.RunSPSAExtension(ctx, env)
		if err != nil {
			return err
		}
		return finish(start, report("spsa", res))
	case "noise":
		return finish(start, report("noise", experiments.RunNoiseSweep(scale.MaxTarget, 4, 200, scale.Seed)))
	case "all":
		printDatagenSummary(env)
		if err := report("fig1c", experiments.RunFig1c(scale.MaxTarget, scale.Starts, scale.Seed)); err != nil {
			return err
		}
		if err := report("fig2", experiments.RunFig2(scale.Starts, scale.Seed)); err != nil {
			return err
		}
		if err := report("fig3", experiments.RunFig3(scale.MaxTarget, scale.Starts, scale.Seed)); err != nil {
			return err
		}
		if err := report("fig5", experiments.RunFig5(env)); err != nil {
			return err
		}
		if err := report("fig6", experiments.RunFig6(env)); err != nil {
			return err
		}
		res, err := experiments.RunModelComparison(env)
		if err != nil {
			return err
		}
		if err := report("mlcmp", res); err != nil {
			return err
		}
		if env.Scale.MaxDepth >= 3 {
			hres, err := experiments.RunHierarchical(ctx, env)
			if err != nil {
				return err
			}
			if err := report("hier", hres); err != nil {
				return err
			}
		}
		tres, err := experiments.RunTable1(ctx, env)
		if err != nil {
			return err
		}
		if err := report("table1", tres); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown experiment %q (run with no arguments for usage)", name)
	}
	return finish(start, nil)
}

// finish prints the wall time and passes through err.
func finish(start time.Time, err error) error {
	if err != nil {
		return err
	}
	fmt.Printf("total wall time: %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}

func printDatagenSummary(env *experiments.Env) {
	data := env.Data
	fmt.Printf("dataset summary (cf. Sec. III-A):\n")
	fmt.Printf("  graphs: %d (n=%d, Erdős–Rényi p=%.2f), depths 1..%d, %d starts each\n",
		len(data.Problems), data.Config.Nodes, data.Config.EdgeProb,
		data.Config.MaxDepth, data.Config.Starts)
	fmt.Printf("  optimal parameters: %d (paper: 13,860 at full scale)\n", data.NumParams())
	for d := 1; d <= data.Config.MaxDepth; d++ {
		var ars, fcs []float64
		for g := range data.Problems {
			rec := data.Record(g, d)
			ars = append(ars, rec.AR)
			fcs = append(fcs, rec.MeanFev)
		}
		fmt.Printf("  depth %d: AR %s\n           FC/start %s\n",
			d, stats.Summarize(ars), stats.Summarize(fcs))
	}
	fmt.Println()
}
