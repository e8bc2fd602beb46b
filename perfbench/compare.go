package main

// The comparator: perfbench compare [--bench BENCHMARK.json] OLD NEW.
// OLD and NEW are directories of saved run outputs (the standard output
// of untraced runs, one file per run, as perfbench/sweep.sh writes
// them). For every workload and end-to-end metric it prints each side's
// median and quartiles and a verdict, over the runs whose seed both
// sides hold (runs of other seeds are counted as dropped):
//
//	better        NEW wins ≥ 9/10 of the runs paired by seed, and the
//	              medians differ by more than OLD's quartile spread
//	worse         NEW's median is worse than OLD's by more than the
//	              metric's bound, and OLD's spread is within the bound
//	              or every NEW run is worse than every OLD run
//	within-bound  neither, and OLD's spread is within the bound
//	unresolved    OLD's spread exceeds the bound, so a change of the
//	              bound's size could not be seen
//
// It exits 1 when any verdict is worse.

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// savedRun is one run output: its header fields and result line.
type savedRun struct {
	workload string
	seed     int64
	res      result
}

func compareMain(args []string) int {
	fs := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the metric bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare [--bench BENCHMARK.json] OLD_DIR NEW_DIR")
		return 2
	}
	raw, err := os.ReadFile(*benchPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench compare: %s: %v\n", *benchPath, err)
		return 2
	}
	var sides [2][]savedRun
	for i := range sides {
		if sides[i], err = loadRuns(fs.Arg(i)); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			return 2
		}
	}
	worse := false
	fmt.Printf("%-14s %-14s %-32s %-32s %8s %6s %7s  %s\n", "workload", "metric", "old median [q1, q3]", "new median [q1, q3]", "delta", "wins", "dropped", "verdict")
	for _, wl := range workloadNames() {
		for _, m := range spec.EndToEnd {
			old, nw, dropped := pairBySeed(sides[0], sides[1], wl, m.Name)
			if len(old) == 0 {
				if dropped > 0 {
					fmt.Printf("%-14s %-14s no seed on both sides, %d runs dropped\n", wl, m.Name, dropped)
				}
				continue
			}
			v := judge(old, nw, m.Better == "higher", m.Bound)
			worse = worse || v.verdict == "worse"
			fmt.Printf("%-14s %-14s %-32s %-32s %+7.1f%% %3d/%-2d %7d  %s\n", wl, m.Name,
				fmt.Sprintf("%.6g [%.6g, %.6g]", v.oldMed, v.oldQ1, v.oldQ3),
				fmt.Sprintf("%.6g [%.6g, %.6g]", v.newMed, v.newQ1, v.newQ3),
				100*(v.newMed/v.oldMed-1), v.wins, v.pairs, dropped, v.verdict)
		}
	}
	if worse {
		return 1
	}
	return 0
}

type judgement struct {
	oldQ1, oldMed, oldQ3 float64
	newQ1, newMed, newQ3 float64
	wins, pairs          int
	verdict              string
}

// judge applies the verdict rules to paired runs (old[i] with new[i]),
// of which there are at least one.
func judge(old, nw []float64, higherBetter bool, bound float64) judgement {
	var j judgement
	j.oldQ1, j.oldMed, j.oldQ3 = quartiles(old)
	j.newQ1, j.newMed, j.newQ3 = quartiles(nw)
	better := func(a, b float64) bool { // a better than b
		if higherBetter {
			return a > b
		}
		return a < b
	}
	j.pairs = len(old)
	for i := 0; i < j.pairs; i++ {
		if better(nw[i], old[i]) {
			j.wins++
		}
	}
	spread := (j.oldQ3 - j.oldQ1) / math.Abs(j.oldMed)
	worsening := (j.newMed - j.oldMed) / math.Abs(j.oldMed)
	if higherBetter {
		worsening = -worsening
	}
	allWorse := true
	for _, n := range nw {
		for _, o := range old {
			if !better(o, n) {
				allWorse = false
			}
		}
	}
	switch {
	case 10*j.wins >= 9*j.pairs && better(j.newMed, j.oldMed) && math.Abs(j.newMed-j.oldMed) > j.oldQ3-j.oldQ1:
		j.verdict = "better"
	case worsening > bound && (spread <= bound || allWorse):
		j.verdict = "worse"
	case spread <= bound:
		j.verdict = "within-bound"
	default:
		j.verdict = "unresolved"
	}
	return j
}

// pairBySeed returns one metric's values for a workload from the seeds
// both sides ran, in seed order so that old[i] and nw[i] share a seed,
// and how many runs it dropped: runs of a seed the other side lacks,
// and repeats of a seed on one side.
func pairBySeed(oldRuns, newRuns []savedRun, wl, metric string) (old, nw []float64, dropped int) {
	pick := func(runs []savedRun) map[int64]float64 {
		vals := map[int64]float64{}
		for _, r := range runs {
			m, ok := r.res.Metrics[metric]
			if !ok || r.workload != wl {
				continue
			}
			if _, dup := vals[r.seed]; dup {
				dropped++
				continue
			}
			vals[r.seed] = m.Value
		}
		return vals
	}
	o, n := pick(oldRuns), pick(newRuns)
	var seeds []int64
	for s := range o {
		if _, ok := n[s]; ok {
			seeds = append(seeds, s)
		}
	}
	sort.Slice(seeds, func(a, b int) bool { return seeds[a] < seeds[b] })
	for _, s := range seeds {
		old, nw = append(old, o[s]), append(nw, n[s])
	}
	dropped += len(o) + len(n) - 2*len(seeds)
	return old, nw, dropped
}

// loadRuns reads every run output in dir; files without a run header
// and a result line are skipped.
func loadRuns(dir string) ([]savedRun, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var runs []savedRun
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		r, ok, err := parseRun(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		if ok {
			runs = append(runs, r)
		}
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s: no untraced run outputs", dir)
	}
	return runs, nil
}

func parseRun(path string) (savedRun, bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return savedRun{}, false, err
	}
	defer f.Close()
	var r savedRun
	var last string
	header := false
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		last = line
		if !strings.HasPrefix(line, "# run ") {
			continue
		}
		fields := map[string]string{}
		for _, kv := range strings.Fields(line[len("# run "):]) {
			if k, v, ok := strings.Cut(kv, "="); ok {
				fields[k] = v
			}
		}
		if fields["trace"] != "0" {
			return savedRun{}, false, nil
		}
		r.workload = fields["workload"]
		if r.seed, err = strconv.ParseInt(fields["seed"], 10, 64); err != nil {
			return savedRun{}, false, fmt.Errorf("%s: run header has no seed: %w", path, err)
		}
		header = true
	}
	if err := sc.Err(); err != nil {
		return savedRun{}, false, fmt.Errorf("%s: %w", path, err)
	}
	if !header || json.Unmarshal([]byte(last), &r.res) != nil || r.res.Metrics == nil {
		return savedRun{}, false, nil
	}
	return r, true, nil
}
