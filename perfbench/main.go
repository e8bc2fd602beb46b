// Command perfbench is the repository's benchmark. It runs one of four
// closed-loop workloads (workloads.go) against the public sqlts API with
// default DB settings and one client goroutine, checks every output,
// and prints the metrics as the last line of standard output:
//
//	perfbench --workload djia-repeat --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 alternates
// untraced and traced blocks of operations, re-drives each traced
// operation through the layers below the public API (trace.go) and
// reports the per-layer metrics, writing its spans under .bench_build/.
// layers.json describes every workload and metric.
//
//	perfbench compare [--bench BENCHMARK.json] OLD NEW
//
// compares two sets of saved runs (see compare.go), and
//
//	perfbench workloads
//
// prints the workload names, one a line. perfbench/run.sh builds and
// runs it from the root of a checkout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// config is one benchmark run's parameters.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spansDir string // where a traced run writes its spans ("" = nowhere)

	// minEpochs makes the loop run at least that many epochs, so the
	// self-tests can reach a restore in a short run.
	minEpochs int
	// corruptReference falsifies the workload's reference outputs, so
	// the self-tests can show that the output gates trip.
	corruptReference bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	if len(os.Args) == 2 && os.Args[1] == "workloads" {
		fmt.Println(strings.Join(workloadNames(), "\n"))
		return
	}
	fs := flag.NewFlagSet("perfbench", flag.ExitOnError)
	wl := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 20, "measured seconds")
	trace := fs.Int("trace", 0, "1 = traced run (per-layer metrics)")
	spans := fs.String("spans", filepath.Join(".bench_build", "spans"), "directory for a traced run's span file")
	_ = fs.Parse(os.Args[1:]) // ExitOnError
	if newWorkload(*wl, *seed) == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *wl, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	cfg := config{workload: *wl, seed: *seed, seconds: *seconds, trace: *trace == 1, spansDir: *spans}
	fmt.Printf("# run workload=%s seed=%d trace=%d seconds=%g nproc=%d gomaxprocs=%d go=%s\n",
		cfg.workload, cfg.seed, *trace, cfg.seconds, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	res, err := benchmark(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// printMetrics writes one human-readable line per metric, sorted by name.
func printMetrics(w io.Writer, ms map[string]metric, counts map[string]int) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		line := fmt.Sprintf("# %-30s %14.6g %s", n, ms[n].Value, ms[n].Unit)
		if c, ok := counts[n]; ok {
			line += fmt.Sprintf(" (n=%d)", c)
		}
		fmt.Fprintln(w, line)
	}
}
