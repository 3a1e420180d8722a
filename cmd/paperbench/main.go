// Command paperbench regenerates every table and figure of the paper's
// evaluation section as text (plus PGM images for Figure 7).
//
// Usage:
//
//	paperbench                  # everything
//	paperbench -table 2         # one table (1-4)
//	paperbench -figure 8        # one figure (7 or 8)
//	paperbench -experiment xyz  # ratio | accelerator | fidelity | ablation | observed
//	paperbench -out DIR         # where Figure 7 PGMs are written
//	paperbench -experiment faults -faultsjson BENCH_faults.json
//	                            # fault-injection rate x policy sweep
//	paperbench -experiment backends -backendsjson BENCH_backends.json
//	                            # cross-backend accuracy/throughput/energy Pareto sweep
//	paperbench -experiment backends -backendscompare BENCH_backends.json
//	                            # CI gate: re-run the sweep, compare deterministic columns
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/bench"
	"repro/internal/obs"
)

func main() {
	table := flag.Int("table", 0, "regenerate one table (1-4)")
	figure := flag.Int("figure", 0, "regenerate one figure (7 or 8)")
	experiment := flag.String("experiment", "", "ratio | accelerator | fidelity | ablation | gpusim | faults | backends | checkpoint | observed")
	outDir := flag.String("out", ".", "directory for Figure 7 PGM output")
	csvDir := flag.String("csv", "", "also write CSV series (table2, figure8, ratio, size sweep) into this directory")
	faultsJSON := flag.String("faultsjson", "", "with -experiment faults: also write the machine-readable report to this file (e.g. BENCH_faults.json)")
	backendsJSON := flag.String("backendsjson", "", "with -experiment backends: also write the machine-readable report to this file (e.g. BENCH_backends.json)")
	backendsCompare := flag.String("backendscompare", "", "with -experiment backends: gate the sweep's deterministic columns against this committed report")
	metricsOut := flag.String("metrics", "", "write a metrics snapshot (JSON) to this file after the run")
	httpAddr := flag.String("http", "", "serve live /metrics, /debug/vars and /debug/pprof on this address")
	timeout := flag.Duration("timeout", 0, "abort the report after this wall time (0: none); sections stop at the next boundary")
	flag.Parse()

	// SIGINT/SIGTERM stop the report at the next section boundary (and
	// cancel in-flight context-aware experiments) so partially written
	// artifacts are flushed rather than torn. -timeout bounds the same
	// context, taking the identical graceful path.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var reg *obs.Registry
	if *metricsOut != "" || *httpAddr != "" {
		reg = obs.New()
	}
	if *httpAddr != "" {
		addr, shutdown, err := obs.Serve(*httpAddr, reg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			_ = shutdown(sctx)
		}()
		fmt.Printf("observability endpoint on http://%s\n", addr)
	}

	w := os.Stdout
	run := func(name string, f func(io.Writer) error) {
		if err := ctx.Err(); err != nil {
			fmt.Fprintf(w, "\ninterrupted; skipping remaining sections\n")
			os.Exit(130)
		}
		fmt.Fprintf(w, "\n==== %s ====\n", name)
		endSection := func() {}
		if reg != nil {
			endSection = reg.Span("paperbench.section")
			reg.Add("paperbench.sections", 1)
			reg.Emit(obs.Event{Kind: "paperbench.section", Fields: map[string]any{"name": name}})
		}
		defer endSection()
		if err := f(w); err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				fmt.Fprintf(w, "\ninterrupted; skipping remaining sections\n")
				os.Exit(130)
			}
			fmt.Fprintf(os.Stderr, "paperbench: %s: %v\n", name, err)
			os.Exit(1)
		}
	}

	selected := *table != 0 || *figure != 0 || *experiment != ""

	if *table == 1 || !selected {
		run("Table 1", bench.Table1)
	}
	if *table == 2 || !selected {
		run("Table 2", bench.Table2)
	}
	if *table == 3 || !selected {
		run("Table 3", bench.Table3)
	}
	if *table == 4 || !selected {
		run("Table 4", bench.Table4)
	}
	if *figure == 7 || !selected {
		run("Figure 7", func(w io.Writer) error { return bench.Figure7(ctx, w, *outDir) })
	}
	if *figure == 8 || !selected {
		run("Figure 8", bench.Figure8)
	}
	if *experiment == "accelerator" || !selected {
		run("Accelerator analysis (8.2)", func(w io.Writer) error { return bench.Accelerator(ctx, w) })
	}
	if *experiment == "ratio" || !selected {
		run("Prototype ratio sweep (7)", bench.Ratio)
	}
	if *experiment == "fidelity" || !selected {
		run("Functional fidelity", func(w io.Writer) error { return bench.Fidelity(ctx, w) })
	}
	if *experiment == "ablation" || !selected {
		run("Design ablations", func(w io.Writer) error { return bench.Ablation(ctx, w) })
	}
	if *experiment == "gpusim" || !selected {
		run("Bottom-up GPU simulation", bench.GPUSim)
	}
	if *experiment == "faults" || !selected {
		run("Fault injection and degradation", func(w io.Writer) error {
			if *faultsJSON != "" {
				return bench.FaultsJSON(ctx, w, *faultsJSON)
			}
			return bench.Faults(ctx, w)
		})
	}
	// Host-speed measurements, not paper artifacts: only on request.
	if *experiment == "backends" {
		run("Cross-backend Pareto sweep", func(w io.Writer) error {
			if *backendsCompare != "" {
				return bench.BackendsCompare(ctx, w, *backendsCompare)
			}
			if *backendsJSON != "" {
				return bench.BackendsJSON(ctx, w, *backendsJSON)
			}
			return bench.Backends(ctx, w)
		})
	}
	if *experiment == "checkpoint" {
		run("Checkpoint overhead", func(w io.Writer) error {
			return bench.Checkpoint(ctx, w)
		})
	}
	if *experiment == "observed" {
		run("Recorder overhead and determinism", func(w io.Writer) error {
			return bench.Observed(ctx, w, reg)
		})
	}
	if *csvDir != "" {
		if err := bench.WriteCSVSeries(*csvDir); err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: csv: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(w, "\nwrote CSV series to %s\n", *csvDir)
	}
	if *metricsOut != "" {
		if err := reg.Snapshot().WriteFile(*metricsOut); err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: metrics: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(w, "\nmetrics snapshot -> %s\n", *metricsOut)
	}
}
