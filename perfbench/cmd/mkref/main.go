// Command mkref makes the rolling-sparse references of one slot-trace seed
// of the 20×200×4 fleet: every slot of the day solved to
// bench.RefTolerance (a 250× tighter residual than the solver's default),
// its UFC computed by the benchmark's own formulas. From the perfbench
// directory:
//
//	go run ./cmd/mkref -trace-seed 2
//
// writes bench/refs/rolling-sparse-trace2.json; rebuild the benchmark to
// embed it. Expect a few minutes per seed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/perfbench/bench"
)

func main() {
	traceSeed := flag.Int64("trace-seed", 1, "slot-trace seed")
	dir := flag.String("dir", "bench", "bench package directory to write refs/ under")
	flag.Parse()
	refs, err := bench.MakeRollingRefs(*traceSeed, func(s bench.SlotRef) {
		fmt.Fprintf(os.Stderr, "slot %2d: UFC %.9g after %d iterations (residual %.3g)\n", s.Slot, s.UFC, s.Iterations, s.Residual)
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "mkref: %v\n", err)
		os.Exit(1)
	}
	b, err := json.MarshalIndent(refs, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "mkref: %v\n", err)
		os.Exit(1)
	}
	path := filepath.Join(*dir, bench.RefFileName(*traceSeed))
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "mkref: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
}
