// Command check compares two sets of benchmark runs against the bounds in
// BENCHMARK.json. Each file is the saved standard output of one run of
// the benchmark; the runs of a set may mix workloads and seeds.
//
//	bash bench/run.sh check base/*.out -- change/*.out
//
// For every workload × metric it prints each set's median and quartiles
// and, for end-to-end metrics, a verdict: better or worse when the medians
// differ by more than the metric's bound, agree when they do not, and
// unresolved when either set's spread (quartile distance over median) is
// wider than the bound and the sets overlap. An end-to-end cell of A that
// B lacks is missing. It exits 1 if any verdict is worse or missing.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

type spec struct {
	EndToEnd []bounded `json:"end_to_end"`
}

type bounded struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// runResult is the benchmark's last output line.
type runResult struct {
	Correct bool `json:"correct"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// key is one workload × metric cell.
type key struct{ workload, metric string }

func main() {
	specPath := flag.String("spec", "BENCHMARK.json", "benchmark declaration with the metric bounds")
	flag.Parse()
	a, b, ok := split(flag.Args())
	if !ok {
		fmt.Fprintln(os.Stderr, "usage: check [-spec BENCHMARK.json] A-files... -- B-files...")
		os.Exit(2)
	}
	sp, err := readSpec(*specPath)
	if err != nil {
		fail(err)
	}
	setA, err := load(a)
	if err != nil {
		fail(err)
	}
	setB, err := load(b)
	if err != nil {
		fail(err)
	}
	if report(os.Stdout, sp, setA, setB) {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "check:", err)
	os.Exit(2)
}

func split(args []string) (a, b []string, ok bool) {
	for i, arg := range args {
		if arg == "--" {
			return args[:i], args[i+1:], i > 0 && i < len(args)-1
		}
	}
	return nil, nil, false
}

func readSpec(path string) (*spec, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sp spec
	if err := json.Unmarshal(blob, &sp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &sp, nil
}

// load reads run outputs into values per workload × metric. The workload
// comes from the run's "# workload=NAME" header line.
func load(paths []string) (map[key][]float64, error) {
	out := make(map[key][]float64)
	for _, path := range paths {
		workload, last, err := scan(path)
		if err != nil {
			return nil, err
		}
		var r runResult
		if err := json.Unmarshal([]byte(last), &r); err != nil {
			return nil, fmt.Errorf("%s: last line is not a result: %w", path, err)
		}
		if !r.Correct {
			return nil, fmt.Errorf("%s: run reported incorrect output", path)
		}
		for name, m := range r.Metrics {
			k := key{workload, name}
			out[k] = append(out[k], m.Value)
		}
	}
	return out, nil
}

func scan(path string) (workload, last string, err error) {
	f, err := os.Open(path)
	if err != nil {
		return "", "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "# workload="); ok {
			workload, _, _ = strings.Cut(rest, " ")
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return "", "", fmt.Errorf("%s: %w", path, err)
	}
	if workload == "" {
		return "", "", fmt.Errorf("%s: no '# workload=' line", path)
	}
	return workload, last, nil
}

// quartiles returns Q1, median and Q3 the way Python's
// statistics.quantiles(values, n=4) does (the "exclusive" method).
func quartiles(vs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	mid := s[n/2]
	if n%2 == 0 {
		mid = (s[n/2-1] + s[n/2]) / 2
	}
	return at(1), mid, at(3)
}

// report prints the comparison table and returns whether any end-to-end
// metric got worse or, present in A, is missing from B.
func report(w io.Writer, sp *spec, a, b map[key][]float64) bool {
	byName := make(map[string]bounded)
	for _, m := range sp.EndToEnd {
		byName[m.Name] = m
	}
	var keys []key
	for k := range a {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	worse := false
	fmt.Fprintf(w, "%-14s %-32s %28s %28s %9s  %s\n", "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "verdict")
	for _, k := range keys {
		m, e2e := byName[k.metric]
		if _, ok := b[k]; !ok {
			if e2e {
				fmt.Fprintf(w, "%-14s %-32s %28s %28s %9s  %s\n", k.workload, k.metric, "", "", "", "missing")
				worse = true
			}
			continue
		}
		a1, am, a3 := quartiles(a[k])
		b1, bm, b3 := quartiles(b[k])
		change := 0.0
		if am != 0 {
			change = (bm - am) / am
		}
		v := "-"
		if e2e {
			v = verdict(m, a[k], b[k], change, spread(a1, am, a3), spread(b1, bm, b3))
			if v == "worse" {
				worse = true
			}
		}
		fmt.Fprintf(w, "%-14s %-32s %28s %28s %+8.2f%%  %s\n", k.workload, k.metric,
			fmt.Sprintf("%.4g [%.4g, %.4g]", am, a1, a3), fmt.Sprintf("%.4g [%.4g, %.4g]", bm, b1, b3), 100*change, v)
	}
	return worse
}

func spread(q1, med, q3 float64) float64 {
	if med == 0 {
		return 0
	}
	return (q3 - q1) / med
}

// verdict judges B against A for one bounded metric.
func verdict(m bounded, a, b []float64, change, spreadA, spreadB float64) string {
	gain := change
	if m.Better == "lower" {
		gain = -change
	}
	if spreadA > m.Bound || spreadB > m.Bound {
		// Too noisy to compare medians, unless the sets do not overlap.
		minA, maxA := extent(a)
		minB, maxB := extent(b)
		switch {
		case m.Better == "lower" && maxB < minA, m.Better == "higher" && minB > maxA:
			return "better"
		case m.Better == "lower" && minB > maxA, m.Better == "higher" && maxB < minA:
			return "worse"
		}
		return "unresolved"
	}
	switch {
	case gain < -m.Bound:
		return "worse"
	case gain > m.Bound:
		return "better"
	}
	return "agree"
}

func extent(vs []float64) (lo, hi float64) {
	lo, hi = vs[0], vs[0]
	for _, v := range vs[1:] {
		lo = min(lo, v)
		hi = max(hi, v)
	}
	return lo, hi
}
