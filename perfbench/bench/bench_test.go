package bench

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/experiments"
)

// Every workload runs to its end in its short form, traced and untraced,
// with every check passing. Timings are not asserted.
func TestShortWorkloads(t *testing.T) {
	for _, w := range Workloads {
		for _, traced := range []bool{false, true} {
			name := w
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				out := t.TempDir()
				res, err := Run(Config{Workload: w, Seed: 3, Short: true, Traced: traced, OutDir: out})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d problems=%q", res.Correct, res.Attempted, res.Failed, res.Problems)
				}
				specs := EndToEnd
				if traced {
					specs = PerLayer
				}
				if len(res.Metrics) != len(specs) {
					t.Fatalf("%d metrics, want %d", len(res.Metrics), len(specs))
				}
				for _, s := range specs {
					m, ok := res.Metrics[s.Name]
					if !ok || m.Unit != s.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("metric %s = %+v, want a finite value in %s", s.Name, m, s.Unit)
					}
				}
				if traced {
					if b, err := os.ReadFile(filepath.Join(out, "spans-"+w+"-seed3.ndjson")); err != nil || len(b) == 0 {
						t.Errorf("span dump: %v (%d bytes)", err, len(b))
					}
				}
			})
		}
	}
}

// A rolling-sparse run refuses a trace seed it has no reference for.
func TestRollingRefusesUnknownTraceSeed(t *testing.T) {
	_, err := Run(Config{Workload: "rolling-sparse", Seed: 1, Short: true, TraceSeed: 987654})
	if !errors.Is(err, ErrNoReference) {
		t.Fatalf("err = %v, want ErrNoReference", err)
	}
}

func TestStoredReferences(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		refs, err := loadRollingRefs(seed)
		if err != nil {
			t.Fatal(err)
		}
		if refs.Tolerance != RefTolerance {
			t.Errorf("trace seed %d: tolerance %g, want %g", seed, refs.Tolerance, RefTolerance)
		}
		for _, s := range refs.Slots {
			if s.Residual > RefTolerance || s.UFC >= 0 {
				t.Errorf("trace seed %d slot %d: residual %g, UFC %g", seed, s.Slot, s.Residual, s.UFC)
			}
		}
	}
}

// BENCHMARK.json at the repository root gates workloads the command runs
// and describes exactly its metrics.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	known := strings.Join(Workloads, ",")
	for _, w := range spec.Workloads {
		if !strings.Contains(","+known+",", ","+w.Name+",") {
			t.Errorf("BENCHMARK.json workload %q is not one of %s", w.Name, known)
		}
	}
	for _, c := range []struct {
		got  []struct{ Name, Unit, Better string }
		want []MetricSpec
	}{{spec.EndToEnd, EndToEnd}, {spec.PerLayer, PerLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%d metrics, want %d", len(c.got), len(c.want))
			continue
		}
		for k, m := range c.got {
			if w := c.want[k]; m.Name != w.Name || m.Unit != w.Unit || m.Better != w.Better {
				t.Errorf("metric %d: %+v, want %+v", k, m, w)
			}
		}
	}
}

// The checks must be able to fail: each test below corrupts one kind of
// output the program produced and asserts the matching check rejects it.

func weekHour(t *testing.T, s core.Strategy, hour int) (*core.Instance, *core.Allocation, core.Breakdown) {
	t.Helper()
	sc, err := experiments.NewScenario(experiments.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	inst := sc.InstanceAt(hour)
	alloc, bd, _, err := core.Solve(inst, core.Options{Strategy: s})
	if err != nil {
		t.Fatal(err)
	}
	return inst, alloc, bd
}

func checkOneHour(inst *core.Instance, alloc *core.Allocation, bd core.Breakdown) *runner {
	r := &runner{values: map[string]float64{}}
	r.checkWeek([]*core.Instance{inst}, []*core.Allocation{alloc}, []core.Breakdown{bd})
	return r
}

func TestCheckRejectsLambdaAcrossCapacity(t *testing.T) {
	inst, alloc, bd := weekHour(t, core.Hybrid, 12)
	if r := checkOneHour(inst, alloc, bd); r.badChecks != 0 {
		t.Fatalf("the uncorrupted hour fails: %q", r.problems)
	}
	c, err := coeffsOf(inst, core.Hybrid)
	if err != nil {
		t.Fatal(err)
	}
	// Move load within one front-end's row into a datacenter until it
	// carries one server more than its capacity plus the slack.
	slack := c.capacitySlack(core.DefaultTolerance)
	bad := alloc.Clone()
	moved := false
	for b := 0; b < c.n && !moved; b++ {
		need := c.servers[b] + slack + 1 - c.load(bad.Lambda, b)
		for i := 0; i < c.m && !moved; i++ {
			for a := 0; a < c.n; a++ {
				if a != b && bad.Lambda[i][a] > need {
					bad.Lambda[i][a] -= need
					bad.Lambda[i][b] += need
					moved = true
					break
				}
			}
		}
	}
	if !moved {
		t.Fatal("no row can push a datacenter past its capacity")
	}
	r := checkOneHour(inst, bad, bd)
	if r.badChecks == 0 || !strings.Contains(strings.Join(r.problems, "\n"), "capacity") {
		t.Fatalf("capacity violation accepted: %q", r.problems)
	}
}

func TestCheckRejectsLoweredUFC(t *testing.T) {
	inst, alloc, bd := weekHour(t, core.Hybrid, 30)
	lowered := bd
	lowered.UFC -= 0.02 * math.Abs(bd.UFC)
	if r := checkOneHour(inst, alloc, lowered); r.badChecks == 0 {
		t.Fatal("a reported UFC 2% low was accepted")
	}
	// The gap check rejects a UFC 2 % below its reference, whichever side
	// it came from.
	if _, err := checkGap(bd.UFC-0.02*math.Abs(bd.UFC), bd.UFC); err == nil {
		t.Fatal("a UFC 2% below the reference was accepted")
	}
}

func TestCheckRejectsFlippedDistributedBit(t *testing.T) {
	topo, err := experiments.NewSyntheticTopology(Fleet, FleetSeed)
	if err != nil {
		t.Fatal(err)
	}
	inst := topo.SlotInstance(1, 5)
	opts := core.Options{Strategy: core.Hybrid, SparsityCutoff: topo.CutoffSec, MaxIterations: 3}
	alloc, _, _, err := core.Solve(inst, opts)
	if err != nil && !errors.Is(err, core.ErrNotConverged) {
		t.Fatal(err)
	}
	r := &runner{values: map[string]float64{}}
	r.checkDist([]*core.Instance{inst}, []int{5}, []*core.Allocation{alloc.Clone()}, opts, topo.CutoffSec)
	if r.badChecks != 0 {
		t.Fatalf("an identical allocation fails: %q", r.problems)
	}
	flipped := alloc.Clone()
	flipped.Lambda[7][0] = math.Float64frombits(math.Float64bits(flipped.Lambda[7][0]) ^ 1)
	r = &runner{values: map[string]float64{}}
	r.checkDist([]*core.Instance{inst}, []int{5}, []*core.Allocation{flipped}, opts, topo.CutoffSec)
	if r.badChecks == 0 {
		t.Fatal("a distributed allocation one bit off was accepted")
	}
}

func TestCheckRejectsWrongLookupAnswer(t *testing.T) {
	_, alloc, _ := weekHour(t, core.Hybrid, 40)
	snap := controlplane.NewSnapshot(0, alloc, controlplane.SolveInfo{})
	w := make([]float64, snap.N)
	rejected := 0
	for fe := 0; fe < snap.M; fe++ {
		snap.Weights(fe, w)
		for dc, v := range w {
			if v <= 0 {
				continue
			}
			// A draw in the middle of dc's bucket.
			var lo float64
			for j := 0; j < dc; j++ {
				lo += w[j]
			}
			u := uint64((lo+v/2)*(1<<53)) << 11
			if err := checkLookup(w, u, dc); err != nil {
				t.Fatalf("front-end %d: the right answer %d is rejected: %v", fe, dc, err)
			}
			wrong := (dc + 1) % snap.N
			if err := checkLookup(w, u, wrong); err == nil {
				t.Fatalf("front-end %d: answer %d for a draw in %d's bucket was accepted", fe, wrong, dc)
			}
			rejected++
		}
	}
	if rejected == 0 {
		t.Fatal("no routed pair to test")
	}
}

// The closed-loop latency histogram gives the nearest-rank quantiles of
// its latencies, to half a bucket, across histograms and past its last
// bucket.
func TestLatQuantile(t *testing.T) {
	a, b := newLatHist(), newLatHist()
	var all []float64
	for k := int64(1); k <= 1000; k++ {
		ns := k * 997 // up to about 1 ms
		if k > 990 {
			ns = k * 5000 // past the buckets: kept exactly
		}
		h := &a
		if k%3 == 0 {
			h = &b
		}
		h.add(ns)
		all = append(all, float64(ns)/1e3)
	}
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.995, 1} {
		want := quantile(all, q)
		got := latQuantileUS(q, &a, &b)
		if math.Abs(got-want) > latBucketNS/2e3+1e-9 {
			t.Errorf("q%g = %g µs, want %g", q, got, want)
		}
	}
	if got := latQuantileUS(0.5, &latHist{}); got != 0 {
		t.Errorf("empty histogram: %g, want 0", got)
	}
}
