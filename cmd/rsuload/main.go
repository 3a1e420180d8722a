// Command rsuload is the repository's benchmark: batch MRF solves and
// the serving path, measured end to end and per layer through public
// entry points only.
//
// Usage:
//
//	rsuload -workload restore-batch -seed 3 -seconds 10 -trace 0
//	                          # one workload in this process; the last
//	                          # output line is a JSON summary
//	rsuload -seed 1 -out results.json
//	                          # every workload, each in a fresh child
//	                          # process, results written as JSON
//	rsuload -seed 1 -trace 1 -spans spans.json -out results.json
//	                          # the same, plus a traced run per workload
//	rsuload -compare a1.json,a2.json b1.json,b2.json
//	                          # verdict per workload and end-to-end metric
//	                          # under the BENCHMARK.json bounds
//
// Build and run it from the repository root with
// `bash cmd/rsuload/run.sh <flags>`; README.md describes the workloads,
// the metrics and the calibration.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

func main() {
	name := flag.String("workload", "", "run one workload in this process (empty: all, each in a child process)")
	seed := flag.Uint64("seed", 1, "generator seed for every input")
	seconds := flag.Float64("seconds", 0, "measuring window in seconds (0: 30 for batch, 45 for serve workloads)")
	trace := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	out := flag.String("out", "", "write results (with the environment stamp) to this JSON file")
	spans := flag.String("spans", "", "traced runs: write the spans to this JSON file (default under -work)")
	work := flag.String("work", filepath.Join(".bench_build", "rsuload"), "scratch directory for state dirs, snapshots and spans")
	compare := flag.Bool("compare", false, "compare two comma-separated lists of result files")
	bench := flag.String("bench", "BENCHMARK.json", "benchmark description: the metric lists and end-to-end bounds")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var (
		code int
		err  error
	)
	window := time.Duration(*seconds * float64(time.Second))
	switch {
	case *compare:
		code, err = runCompare(os.Stdout, *bench, flag.Args())
	case *trace != 0 && *trace != 1:
		err = fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	case *name == "":
		code, err = runAll(ctx, *bench, *seed, *seconds, *trace == 1, *out, *spans, *work)
	default:
		code, err = runOne(ctx, os.Stdout, *bench, *name, *seed, window, *trace == 1, *out, *spans, *work)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "rsuload: %v\n", err)
		code = 1
	}
	os.Exit(code)
}

// runOne runs one workload in this process, prints its metrics and,
// last, the JSON summary line. It exits 1 when verification failed.
func runOne(ctx context.Context, stdout io.Writer, bench, name string, seed uint64, window time.Duration, trace bool, out, spans, work string) (int, error) {
	w, err := lookupWorkload(name)
	if err != nil {
		return 1, err
	}
	bf, err := readBenchmark(bench)
	if err != nil {
		return 1, err
	}
	if window <= 0 {
		window = w.window
	}
	dir := filepath.Join(work, fmt.Sprintf("%s-%d", name, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 1, err
	}
	defer os.RemoveAll(dir)
	st := newStamp(dir, seed, fullShape)

	res, tr, err := runWorkload(ctx, runConfig{workload: w, seed: seed, window: window, trace: trace, dir: dir, shape: fullShape})
	if err != nil {
		return 1, fmt.Errorf("%s: %w", name, err)
	}
	res.print(stdout)
	if !res.Valid {
		fmt.Fprintf(os.Stderr, "rsuload: %s: send lag p99 above %v ms, run invalid\n", name, lagLimitMS)
	}
	if trace {
		if spans == "" {
			spans = filepath.Join(work, "spans-"+name+".json")
		}
		if err := writeSpans(spans, name, tr.spans); err != nil {
			return 1, err
		}
	}
	if out != "" {
		if err := writeResults(out, resultsFile{Stamp: st, Results: []result{*res}}); err != nil {
			return 1, err
		}
	}
	line, err := res.summaryLine(bf)
	if err != nil {
		return 1, err
	}
	fmt.Fprintln(stdout, line)
	if res.Mismatches > 0 {
		return 1, fmt.Errorf("%s: %d verification mismatches", name, res.Mismatches)
	}
	return 0, nil
}

// runAll runs every workload in a fresh child process of this binary,
// so peak RSS, GC state and the in-process server belong to one
// workload, then merges the children's results.
func runAll(ctx context.Context, bench string, seed uint64, seconds float64, trace bool, out, spans, work string) (int, error) {
	exe, err := os.Executable()
	if err != nil {
		return 1, err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return 1, err
	}
	all := resultsFile{Stamp: newStamp(work, seed, fullShape)}
	var spanDocs []json.RawMessage
	code := 0
	for _, w := range workloads {
		modes := []bool{false}
		if trace {
			modes = append(modes, true)
		}
		for _, traced := range modes {
			tmp := filepath.Join(work, fmt.Sprintf("child-%s-%t.json", w.name, traced))
			spanTmp := tmp + ".spans"
			traceFlag := "0"
			if traced {
				traceFlag = "1"
			}
			args := []string{"-bench", bench, "-workload", w.name, "-seed", strconv.FormatUint(seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-out", tmp, "-work", work,
				"-trace", traceFlag, "-spans", spanTmp}
			cmd := exec.CommandContext(ctx, exe, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "rsuload: %s: %v\n", w.name, err)
				code = 1
				continue
			}
			rf, err := readResults(tmp)
			if err != nil {
				return 1, err
			}
			all.Results = append(all.Results, rf.Results...)
			if traced {
				data, err := os.ReadFile(spanTmp)
				if err != nil {
					return 1, err
				}
				spanDocs = append(spanDocs, data)
			}
			os.Remove(tmp)
			os.Remove(spanTmp)
		}
	}
	if trace && spans != "" {
		data, err := json.Marshal(spanDocs)
		if err != nil {
			return 1, err
		}
		if err := os.WriteFile(spans, data, 0o644); err != nil {
			return 1, err
		}
	}
	if out != "" {
		if err := writeResults(out, all); err != nil {
			return 1, err
		}
	}
	return code, nil
}
