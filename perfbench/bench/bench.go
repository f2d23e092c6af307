// Package bench is the repository's benchmark: four workloads, each of
// which drives one family of layers of the UFC system through their public
// API, times it, and checks every output against computations made apart
// from the measured path.
//
//   - paper-week: the paper's 4×10 week solved as warm-started hourly chains
//     (dense kernels, serial solver).
//   - rolling-sparse: the control plane's write side stepping a day of the
//     20×200×4 fleet (compact kernels, two solver workers, pipeline
//     bookkeeping).
//   - dist-tcp: the message-passing protocol over one loopback hub.
//   - serve-lookups: lookups answered by a hub while the pipeline re-solves
//     in the background.
//
// A run is untraced (end-to-end metrics) or traced (per-layer metrics). A
// traced run alternates untraced and traced rounds of the same work, so the
// cost of tracing is measured in the same process.
package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/telemetry/tracing"
)

// processStart approximates the process's start: package initialization
// runs before main. setup_s is measured from here.
var processStart = time.Now()

// Config selects one benchmark run.
type Config struct {
	Workload string
	// Seed makes the run's inputs: the same seed gives the same inputs.
	Seed int64
	// Seconds is how long the measured phase runs. Rounds are never cut,
	// so a run measures whole rounds and may end after Seconds.
	Seconds float64
	// Traced selects the per-layer run (see the package comment).
	Traced bool
	// TraceSeed selects the 20×200×4 fleet's slot trace
	// (SyntheticTopology.SlotInstance seed). rolling-sparse refuses a
	// trace seed it has no stored reference for.
	TraceSeed int64
	// OutDir receives the span dump of a traced run ("" writes none).
	OutDir string
	// Short shrinks every workload to a few operations; tests use it to
	// check completion and correctness, never timings.
	Short bool
}

// Metric is one reported figure.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the run's outcome, printed as the last line of output.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
	// Problems lists failed checks and operations; it is reported on
	// standard error, not in the result line.
	Problems []string `json:"-"`
}

// MetricSpec names a metric and its unit.
type MetricSpec struct {
	Name, Unit, Better string
}

// EndToEnd are the metrics of an untraced run, reported by every workload.
// The "op" is the unit of work a user of the workload waits for: a slot
// solve on paper-week, rolling-sparse and dist-tcp, a lookup on
// serve-lookups.
var EndToEnd = []MetricSpec{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"op_ms_p50", "ms", "lower"},
	{"op_ms_p90", "ms", "lower"},
	{"round_ms_p50", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// PerLayer are the metrics of a traced run. Every workload reports all of
// them; a layer a workload does not exercise reads 0.
var PerLayer = []MetricSpec{
	{"core.iters_per_slot", "iterations", "lower"},
	{"core.cold_iters", "iterations", "lower"},
	{"core.iterate_us", "us", "lower"},
	{"core.iterate_ns_per_pair", "ns", "lower"},
	{"core.iterate_us_serial", "us", "lower"},
	{"core.parallel_speedup", "ratio", "higher"},
	{"core.phase_lambda_us", "us", "lower"},
	{"core.phase_datacenter_us", "us", "lower"},
	{"core.phase_correction_us", "us", "lower"},
	{"core.lambda_step_ns", "ns", "lower"},
	{"core.a_step_ns", "ns", "lower"},
	{"core.reset_us", "us", "lower"},
	{"core.finalize_us", "us", "lower"},
	{"core.iterate_allocs", "allocs", "lower"},
	{"core.ufc_gap_max", "fraction", "lower"},
	{"core.ufc_gap_mean", "fraction", "lower"},
	{"cp.runslot_ms", "ms", "lower"},
	{"cp.self_ms", "ms", "lower"},
	{"cp.warm_iters_per_solve", "iterations", "lower"},
	{"cp.cold_iters_per_solve", "iterations", "lower"},
	{"cp.cache_hits", "count", "higher"},
	{"cp.decide_ns", "ns", "lower"},
	{"cp.background_solve_ms", "ms", "lower"},
	{"cp.snapshot_age_ms_max", "ms", "lower"},
	{"dist.msgs_per_round", "count", "lower"},
	{"dist.flushes_per_round", "count", "lower"},
	{"dist.msgs_per_flush", "count", "higher"},
	{"dist.wire_bytes_per_round", "bytes", "lower"},
	{"dist.compute_ms_per_round", "ms", "lower"},
	{"dist.messaging_ms_per_round", "ms", "lower"},
	{"serve.client_write_us", "us", "lower"},
	{"serve.hub_us", "us", "lower"},
	{"serve.decide_us", "us", "lower"},
	{"serve.decisions_per_flush", "count", "higher"},
	{"serve.closed_us_p50", "us", "lower"},
	{"serve.lookup_us_p50", "us", "lower"},
	{"serve.lookup_us_p90", "us", "lower"},
	{"serve.lookup_us_p99", "us", "lower"},
	{"serve.lookup_us_p999", "us", "lower"},
	{"serve.open_rtt_us_p50", "us", "lower"},
	{"serve.gen_late_us_p99", "us", "lower"},
	{"serve.wire_bytes_per_lookup", "bytes", "lower"},
	{"trace.overhead_pct", "%", "lower"},
	{"host.steal_pct", "%", "lower"},
	{"host.cpu_util", "ratio", "lower"},
}

// Workloads lists every workload the command runs; BENCHMARK.json gates
// all four.
var Workloads = []string{"paper-week", "rolling-sparse", "dist-tcp", "serve-lookups"}

// Run executes one workload. An error means the run could not complete
// (bad configuration, a set-up failure); failed checks and failed
// operations are reported in the Result instead.
func Run(cfg Config) (*Result, error) {
	if cfg.Seconds < 0 || math.IsNaN(cfg.Seconds) {
		return nil, fmt.Errorf("bench: seconds %g must be >= 0", cfg.Seconds)
	}
	if cfg.TraceSeed == 0 {
		cfg.TraceSeed = 1
	}
	r := &runner{cfg: cfg, values: map[string]float64{}}
	if cfg.Traced {
		r.ids = tracing.NewIDSource(cfg.Seed)
		r.rec = tracing.NewRecorder(tracing.Config{Component: "bench", RingSize: 1 << 14, IDs: r.ids, SampleEvery: 1})
	}
	var err error
	switch cfg.Workload {
	case "paper-week":
		err = r.paperWeek()
	case "rolling-sparse":
		err = r.rollingSparse()
	case "dist-tcp":
		err = r.distTCP()
	case "serve-lookups":
		err = r.serveLookups()
	default:
		return nil, fmt.Errorf("bench: unknown workload %q (want one of %s)", cfg.Workload, strings.Join(Workloads, ", "))
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.Workload, err)
	}
	if cfg.Traced && cfg.OutDir != "" {
		if err := r.writeSpans(); err != nil {
			return nil, err
		}
	}
	return r.result(), nil
}

// runner carries one run's bookkeeping.
type runner struct {
	cfg       Config
	attempted int64
	failed    int64
	badChecks int
	problems  []string
	values    map[string]float64

	// Traced runs only: the benchmark's own spans, plus the program's
	// recorders whose spans are written out beside them.
	ids       *tracing.IDSource
	rec       *tracing.Recorder
	recorders []*tracing.Recorder

	phase hostSample // at the start of the measured phase
}

// problem records a failed check. A run with any failed check is not
// correct.
func (r *runner) problem(format string, args ...any) {
	r.badChecks++
	if len(r.problems) < 50 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// opFailed records an operation the program could not complete.
func (r *runner) opFailed(format string, args ...any) {
	r.failed++
	if len(r.problems) < 50 {
		r.problems = append(r.problems, "operation failed: "+fmt.Sprintf(format, args...))
	}
}

func (r *runner) set(name string, v float64) { r.values[name] = v }

// setupDone stamps setup_s: the time from process start to the first timed
// operation.
func (r *runner) setupDone() { r.setupDoneExcluding(0) }

// setupDoneExcluding stamps setup_s less the benchmark's own reference
// work done before it.
func (r *runner) setupDoneExcluding(d time.Duration) {
	r.set("setup_s", (time.Since(processStart) - d).Seconds())
}

// noParent starts a root span.
var noParent tracing.Context

// tracedRound reports whether round k is traced: a traced run alternates
// untraced (even) and traced (odd) rounds; an untraced run traces none.
func (r *runner) tracedRound(k int) bool { return r.cfg.Traced && k%2 == 1 }

// minRounds is the least number of rounds a run makes: a traced run needs
// one of each kind; an untraced run needs three for its per-operation
// medians (see opTimes) to reject one disturbed round.
func (r *runner) minRounds() int {
	if r.cfg.Traced || r.cfg.Short {
		return 2
	}
	return 3
}

// opTimes collects the wall time of every operation of a round, over the
// run's rounds of the same operations. The end-to-end figures use each
// operation's median over rounds: on a shared host a stall (another
// tenant taking the vCPU) hits one round's operations, and a median over
// rounds leaves it out where a pooled percentile or a total would not.
type opTimes struct {
	ms    [][]float64 // per operation, one sample per round
	iters []float64   // per operation: ADM-G iterations (rounds) it ran
}

func newOpTimes(ops int) *opTimes {
	return &opTimes{ms: make([][]float64, ops), iters: make([]float64, ops)}
}

func (o *opTimes) add(op int, d time.Duration, iters int) {
	o.ms[op] = append(o.ms[op], ms(d))
	o.iters[op] = float64(iters)
}

// set reports ops_per_s (a round's operations over the sum of their
// median times), op_ms_p50 and op_ms_p90 (over the operations' median
// times) and round_ms_p50 (the median over operations of median time per
// iteration).
func (o *opTimes) set(r *runner) {
	var med, perIter []float64
	var total float64
	for op, xs := range o.ms {
		if len(xs) == 0 {
			continue // failed in every round, counted as failed
		}
		m := quantile(xs, 0.5)
		med = append(med, m)
		total += m
		if o.iters[op] > 0 {
			perIter = append(perIter, m/o.iters[op])
		}
	}
	if total > 0 {
		r.set("ops_per_s", float64(len(med))/(total/1e3))
	}
	r.set("op_ms_p50", quantile(med, 0.5))
	r.set("op_ms_p90", quantile(med, 0.9))
	r.set("round_ms_p50", quantile(perIter, 0.5))
}

// moreRounds reports whether another round starts after k+1 rounds that
// began at start.
func (r *runner) moreRounds(done int, start time.Time) bool {
	if done < r.minRounds() {
		return true
	}
	if r.cfg.Short {
		return false
	}
	return time.Since(start).Seconds() < r.cfg.Seconds
}

func (r *runner) result() *Result {
	res := &Result{
		Correct:   r.badChecks == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]Metric{},
		Problems:  r.problems,
	}
	specs := EndToEnd
	if r.cfg.Traced {
		specs = PerLayer
	}
	for _, s := range specs {
		res.Metrics[s.Name] = Metric{Value: r.values[s.Name], Unit: s.Unit}
	}
	return res
}

// hostSample is the process's CPU time and the host's CPU accounting at
// one instant.
type hostSample struct {
	wall       time.Time
	cpu        time.Duration
	steal, all uint64 // /proc/stat jiffies: stolen, and all states
}

func sampleHost() hostSample {
	h := hostSample{wall: time.Now()}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		h.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	if b, err := os.ReadFile("/proc/stat"); err == nil {
		// cpu  user nice system idle iowait irq softirq steal ...
		line, _, _ := strings.Cut(string(b), "\n")
		for k, f := range strings.Fields(line)[1:] {
			v, _ := strconv.ParseUint(f, 10, 64) // a malformed field counts 0
			if k < 8 {
				h.all += v
			}
			if k == 7 {
				h.steal = v
			}
		}
	}
	return h
}

// phaseBegin and phaseEnd bracket the measured phase. phaseEnd records
// the peak resident set so far (before the benchmark's own reference
// work) and, to explain noise, the share of the host's CPU time stolen
// from this VM and the process's CPU use during the phase.
func (r *runner) phaseBegin() { r.phase = sampleHost() }

func (r *runner) phaseEnd() {
	h := sampleHost()
	r.set("peak_rss_mb", peakRSSMB())
	wall := h.wall.Sub(r.phase.wall)
	if all := h.all - r.phase.all; all > 0 {
		r.set("host.steal_pct", 100*float64(h.steal-r.phase.steal)/float64(all))
	}
	r.set("host.cpu_util", (h.cpu-r.phase.cpu).Seconds()/wall.Seconds())
	fmt.Fprintf(os.Stderr, "measured phase: %.2f s wall, %.2f s CPU, %.1f%% of host CPU time stolen\n",
		wall.Seconds(), (h.cpu - r.phase.cpu).Seconds(), r.values["host.steal_pct"])
}

// peakRSSMB is the peak resident set of the process's current image, in
// MB: VmHWM of /proc/self/status. getrusage's ru_maxrss is not used: it
// keeps the high-water mark of the images the process ran before exec, so
// a run started through run.sh from a large launcher (a Python script, say)
// would report the launcher's size instead of the program's.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if f := strings.Fields(v); len(f) == 2 && f[1] == "kB" {
					if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	fmt.Fprintln(os.Stderr, "bench: no VmHWM in /proc/self/status, so peak_rss_mb reads 0")
	return 0
}

// span starts one of the benchmark's own spans under parent (a zero
// parent starts a root). It is inert in untraced rounds.
func (r *runner) span(on bool, parent tracing.Context, name string) tracing.Span {
	if !on || r.rec == nil {
		return tracing.Span{}
	}
	if !parent.Valid() {
		return r.rec.Root(name)
	}
	return r.rec.Start(parent, name)
}

// writeSpans writes the benchmark's spans and the program's recorders'
// spans as NDJSON (tracing.SpanRecord lines) to OutDir.
func (r *runner) writeSpans() error {
	if err := os.MkdirAll(r.cfg.OutDir, 0o755); err != nil {
		return fmt.Errorf("bench: span dump: %w", err)
	}
	path := filepath.Join(r.cfg.OutDir, fmt.Sprintf("spans-%s-seed%d.ndjson", r.cfg.Workload, r.cfg.Seed))
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("bench: span dump: %w", err)
	}
	enc := json.NewEncoder(f)
	var recs []tracing.SpanRecord
	for _, rec := range append([]*tracing.Recorder{r.rec}, r.recorders...) {
		recs = rec.Snapshot(recs[:0], 0)
		for i := range recs {
			if err := enc.Encode(&recs[i]); err != nil {
				_ = f.Close() // the encode error is the one reported
				return fmt.Errorf("bench: span dump: %w", err)
			}
		}
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("bench: span dump: %w", err)
	}
	fmt.Fprintf(os.Stderr, "spans written to %s\n", path)
	return nil
}

// quantile returns the nearest-rank q-quantile of xs (sorted in place);
// 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	k := int(math.Ceil(q*float64(len(xs)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(xs) {
		k = len(xs) - 1
	}
	return xs[k]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// splitmix64 is the seed mixer behind every input the benchmark draws.
func splitmix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// rotation is the seed's starting offset into a cycle of n slots.
func rotation(seed int64, n int) int { return int(splitmix64(uint64(seed)) % uint64(n)) }

// overheadPct is the relative cost of the traced rounds over the untraced
// ones, in percent, from per-round (or per-operation) times.
func overheadPct(untraced, traced []float64) float64 {
	u, t := quantile(untraced, 0.5), quantile(traced, 0.5)
	if u <= 0 {
		return 0
	}
	return 100 * (t/u - 1)
}
