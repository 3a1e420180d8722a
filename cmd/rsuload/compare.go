package main

import (
	"fmt"
	"io"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

// bound is one metric of BENCHMARK.json; per-layer metrics have no Bound.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// side is one set of result files: every untraced value per workload
// and metric, and the stamp they share.
type side struct {
	stamp  stamp
	values map[string]map[string][]float64
}

func loadSide(list string) (side, error) {
	s := side{values: map[string]map[string][]float64{}}
	for i, path := range strings.Split(list, ",") {
		rf, err := readResults(path)
		if err != nil {
			return s, err
		}
		if i == 0 {
			s.stamp = rf.Stamp
		} else if err := sameEnv(s.stamp, rf.Stamp); err != nil {
			return s, fmt.Errorf("%s: %w", path, err)
		}
		for _, r := range rf.Results {
			if r.Trace {
				continue
			}
			if s.values[r.Workload] == nil {
				s.values[r.Workload] = map[string][]float64{}
			}
			for _, m := range r.Metrics {
				s.values[r.Workload][m.Name] = append(s.values[r.Workload][m.Name], m.Value)
			}
		}
	}
	return s, nil
}

// sameEnv refuses stamps that differ in anything but the seed: results
// from another toolchain, machine shape, filesystem or calibration are
// not comparable.
func sameEnv(a, b stamp) error {
	a.Seed, b.Seed = 0, 0
	if !reflect.DeepEqual(a, b) {
		return fmt.Errorf("environment stamps differ: %+v vs %+v", a, b)
	}
	return nil
}

// verdict judges side B against side A for one metric. change is the
// relative change of the median, signed so that positive is worse.
func verdict(a, b []float64, bd bound) (change, spread float64, v string) {
	medA, medB := percentile(a, .5), percentile(b, .5)
	change = (medB - medA) / medA
	if bd.Better == "higher" {
		change = -change
	}
	for _, xs := range [][]float64{a, b} {
		q1, q3 := quartiles(xs)
		spread = max(spread, (q3-q1)/percentile(xs, .5))
	}
	switch {
	case spread > bd.Bound:
		v = "unresolved"
	case change > bd.Bound:
		v = "worse"
	case change < -bd.Bound:
		v = "better"
	default:
		v = "same"
	}
	return change, spread, v
}

// runCompare prints, for every workload and end-to-end metric, each
// side's median and quartiles and a verdict. It exits 1 on any worse.
func runCompare(w io.Writer, benchPath string, args []string) (int, error) {
	if len(args) != 2 {
		return 2, fmt.Errorf("usage: rsuload -compare a1.json[,a2.json...] b1.json[,b2.json...]")
	}
	bf, err := readBenchmark(benchPath)
	if err != nil {
		return 1, err
	}
	a, err := loadSide(args[0])
	if err != nil {
		return 1, err
	}
	b, err := loadSide(args[1])
	if err != nil {
		return 1, err
	}
	if err := sameEnv(a.stamp, b.stamp); err != nil {
		return 1, err
	}
	names := make([]string, 0, len(a.values))
	for wl := range a.values {
		names = append(names, wl)
	}
	sort.Strings(names)

	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median [q1 q3]\tB median [q1 q3]\tchange\tspread\tbound\tverdict")
	code := 0
	for _, wl := range names {
		for _, bd := range bf.EndToEnd {
			va, vb := a.values[wl][bd.Name], b.values[wl][bd.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t\t\t\t\t\tmissing\n", wl, bd.Name)
				code = 1
				continue
			}
			change, spread, v := verdict(va, vb, bd)
			if v == "worse" {
				code = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%+.1f%%\t%.1f%%\t%.0f%%\t%s\n", wl, bd.Name,
				summary(va, bd.Unit), summary(vb, bd.Unit), 100*change, 100*spread, 100*bd.Bound, v)
		}
	}
	return code, tw.Flush()
}

func summary(xs []float64, unit string) string {
	q1, q3 := quartiles(xs)
	f := func(x float64) string { return strconv.FormatFloat(x, 'g', 4, 64) }
	return fmt.Sprintf("%s [%s %s] %s", f(percentile(xs, .5)), f(q1), f(q3), unit)
}
