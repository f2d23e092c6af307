package core_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/utility"
)

// floatDigest is an FNV-1a digest of the bit patterns of a sequence of
// floats, so two runs agree only if every float agrees bit for bit.
type floatDigest struct{ h hash.Hash64 }

func newFloatDigest() *floatDigest { return &floatDigest{fnv.New64a()} }

func (d *floatDigest) add(xs ...float64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		d.h.Write(b[:])
	}
}

func (d *floatDigest) rows(rs [][]float64) {
	for _, r := range rs {
		d.add(r...)
	}
}

func (d *floatDigest) String() string { return fmt.Sprintf("%016x", d.h.Sum64()) }

func stateDigest(s *core.State) string {
	d := newFloatDigest()
	d.rows(s.Lambda)
	d.rows(s.A)
	d.rows(s.Varphi)
	d.add(s.Mu...)
	d.add(s.Nu...)
	d.add(s.Phi...)
	return d.String()
}

func allocDigest(a *core.Allocation) string {
	d := newFloatDigest()
	d.rows(a.Lambda)
	d.add(a.MuMW...)
	d.add(a.NuMW...)
	return d.String()
}

// goldenRun is what TestSolverFloatsGolden pins for one configuration.
type goldenRun struct {
	iter60 string // state after 60 Iterate calls from NewState
	final  string // SolveState's final state
	alloc  string // SolveState's allocation
	iters  int    // SolveState's iteration count
	ufc    uint64 // bits of the allocation's UFC
}

// TestSolverFloatsGolden pins the solver's floats: for each configuration
// it digests the iterate after 60 steps, the final state and allocation
// of a full solve, and records the iteration count and the UFC bits.
// Restructuring the kernels must leave every one of them unchanged; a
// mismatch means some float operation changed its inputs or its order.
// Linear and Exponential{K: 50} stop at the iteration cap, which is pinned
// like any other outcome.
func TestSolverFloatsGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// The Go compiler may fuse x*y+z into one FMA instruction on arm64,
		// ppc64 and s390x, which rounds once instead of twice, so the bits
		// pinned below hold only where no fusion happens.
		t.Skipf("float bits are pinned on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	sc, err := experiments.NewScenario(experiments.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	hour := func(u utility.Func) *core.Instance {
		inst := sc.InstanceAt(12)
		if u != nil {
			inst.Utility = u
		}
		return inst
	}
	st, fleet := sparseTopology(t, 8, 48, 4, 13)
	cases := []struct {
		name string
		inst *core.Instance
		opts core.Options
		want goldenRun
	}{
		{"hour12-hybrid", hour(nil), core.Options{},
			goldenRun{"fcfed5c9ff4e6a33", "f9c9083069d2055f", "6da65bf43647d6eb", 137, 0xc0943233eede71ee}},
		{"hour12-gridonly", hour(nil), core.Options{Strategy: core.GridOnly},
			goldenRun{"6f6296e8d46ed6bc", "af5a14866d03d3cd", "e119ebc30bcefd40", 185, 0xc09842b0b8331f96}},
		{"hour12-fuelcellonly", hour(nil), core.Options{Strategy: core.FuelCellOnly},
			goldenRun{"ded2816762edc63b", "6f6c69522f1dfbb8", "b14e1e2a05f4c176", 137, 0xc096bd812edcf911}},
		{"hour12-linear", hour(utility.Linear{}), core.Options{},
			goldenRun{"a64745af496f3990", "706f0594a82babfd", "729b3a0658f2839b", 2000, 0xc0c40aa7997d4e57}},
		{"hour12-exponential", hour(utility.Exponential{K: 50}), core.Options{},
			goldenRun{"40a399012d2225eb", "27d404e0f49244aa", "6c0d9e7e9e51e608", 2000, 0xc127987f064d0588}},
		{"hour12-nocorrection", hour(nil), core.Options{DisableCorrection: true},
			goldenRun{"091e0a4738680fa6", "6aa976fa735ebeac", "01cbc05a9d7b3303", 151, 0xc094321b6d9b790a}},
		{"hour12-workers3", hour(nil), core.Options{Workers: 3},
			goldenRun{"fcfed5c9ff4e6a33", "f9c9083069d2055f", "6da65bf43647d6eb", 137, 0xc0943233eede71ee}},
		{"fleet-cutoff", fleet, core.Options{SparsityCutoff: st.CutoffSec},
			goldenRun{"1b272210d0bd2ab5", "f08245fed6a88c18", "2958548a6cec1f2a", 229, 0xc08e30246ab6887e}},
		{"fleet-cutoff-workers3", fleet, core.Options{SparsityCutoff: st.CutoffSec, Workers: 3},
			goldenRun{"1b272210d0bd2ab5", "f08245fed6a88c18", "2958548a6cec1f2a", 229, 0xc08e30246ab6887e}},
		{"fleet-dense", fleet, core.Options{},
			goldenRun{"81c4049af029d95e", "2caa69d701fd9e32", "15f4f204d393f89b", 177, 0xc08e07b2fb3ca784}},
		{"fleet-dense-workers3", fleet, core.Options{Workers: 3},
			goldenRun{"81c4049af029d95e", "2caa69d701fd9e32", "15f4f204d393f89b", 177, 0xc08e07b2fb3ca784}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m, n := c.inst.Cloud.M(), c.inst.Cloud.N()
			eng, err := core.NewEngine(c.inst, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			s := core.NewState(m, n)
			for k := 0; k < 60; k++ {
				if err := eng.Iterate(s); err != nil {
					t.Fatal(err)
				}
			}
			got := goldenRun{iter60: stateDigest(s)}
			s = core.NewState(m, n)
			alloc, bd, stats, err := eng.SolveState(s)
			if err != nil && !errors.Is(err, core.ErrNotConverged) {
				t.Fatal(err)
			}
			got.final, got.alloc = stateDigest(s), allocDigest(alloc)
			got.iters, got.ufc = stats.Iterations, math.Float64bits(bd.UFC)
			if got != c.want {
				t.Errorf("got  {%q, %q, %q, %d, 0x%016x}\nwant {%q, %q, %q, %d, 0x%016x}",
					got.iter60, got.final, got.alloc, got.iters, got.ufc,
					c.want.iter60, c.want.final, c.want.alloc, c.want.iters, c.want.ufc)
			}
		})
	}
}
