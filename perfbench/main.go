// Command perfbench runs one workload of the repository's benchmark and
// prints its result as the last line of standard output:
//
//	perfbench --workload paper-week --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
// (and writes the run's spans to --out). See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/perfbench/bench"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: paper-week, rolling-sparse, dist-tcp or serve-lookups")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured seconds (whole rounds)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	traceSeed := fs.Int64("trace-seed", 1, "slot-trace seed of the 20×200×4 fleet")
	out := fs.String("out", ".bench_results", "directory for span dumps of traced runs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: --trace %d: want 0 or 1\n", *trace)
		return 2
	}
	res, err := bench.Run(bench.Config{
		Workload:  *workload,
		Seed:      *seed,
		Seconds:   *seconds,
		Traced:    *trace == 1,
		TraceSeed: *traceSeed,
		OutDir:    *out,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, p := range res.Problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s\n", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}
