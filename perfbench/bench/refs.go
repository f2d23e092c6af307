package bench

import (
	"embed"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"

	"repro/internal/core"
	"repro/internal/experiments"
)

// The rolling-sparse references: for one trace seed of the 20×200×4 fleet,
// the UFC of every slot of the day solved to RefTolerance. They are made
// apart from any run by MakeRollingRefs (cmd/mkref) and stored in refs/.

// RefTolerance is the residual tolerance of the reference solves: 250×
// tighter than core.DefaultTolerance. At this tolerance slot 0 of trace
// seed 1 reaches UFC −982.771 after 2347 cold iterations; tightening it a
// further 10× moves the UFC by 0.0035 %, well inside aboveTol.
const RefTolerance = 1e-6

// Fleet is the rolling-sparse, dist-tcp and serve-lookups topology and its
// fixed geometry seed.
var Fleet = experiments.Topology{N: 20, M: 200, Regions: 4}

// FleetSeed seeds the fleet's geometry; TraceSeed seeds its slot trace.
const FleetSeed = 1

// DaySlots is the rolling horizon's day.
const DaySlots = 24

//go:embed refs/*.json
var refFiles embed.FS

// RollingRefs is one stored reference file.
type RollingRefs struct {
	Fleet     string    `json:"fleet"`
	FleetSeed int64     `json:"fleet_seed"`
	TraceSeed int64     `json:"trace_seed"`
	Tolerance float64   `json:"tolerance"`
	Slots     []SlotRef `json:"slots"`
}

// SlotRef is the reference for one slot of the day.
type SlotRef struct {
	Slot       int     `json:"slot"`
	UFC        float64 `json:"ufc"`
	Iterations int     `json:"iterations"`
	Residual   float64 `json:"residual"`
}

// RefFileName is the stored reference file of a trace seed, relative to
// the bench package directory.
func RefFileName(traceSeed int64) string {
	return fmt.Sprintf("refs/rolling-sparse-trace%d.json", traceSeed)
}

// ErrNoReference is returned for a trace seed without stored references.
var ErrNoReference = errors.New("bench: no stored rolling-sparse reference for this trace seed (make one with cmd/mkref)")

// loadRollingRefs reads and validates the stored references of a trace
// seed.
func loadRollingRefs(traceSeed int64) (*RollingRefs, error) {
	b, err := refFiles.ReadFile(RefFileName(traceSeed))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("trace seed %d: %w", traceSeed, ErrNoReference)
	}
	if err != nil {
		return nil, err
	}
	var refs RollingRefs
	if err := json.Unmarshal(b, &refs); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", RefFileName(traceSeed), err)
	}
	if refs.Fleet != Fleet.String() || refs.FleetSeed != FleetSeed || refs.TraceSeed != traceSeed || len(refs.Slots) != DaySlots {
		return nil, fmt.Errorf("bench: %s describes fleet %s seed %d, trace seed %d, %d slots; want %s, %d, %d, %d",
			RefFileName(traceSeed), refs.Fleet, refs.FleetSeed, refs.TraceSeed, len(refs.Slots), Fleet, FleetSeed, traceSeed, DaySlots)
	}
	for t, s := range refs.Slots {
		if s.Slot != t {
			return nil, fmt.Errorf("bench: %s: entry %d is slot %d", RefFileName(traceSeed), t, s.Slot)
		}
	}
	return &refs, nil
}

// MakeRollingRefs solves every slot of a trace seed's day to RefTolerance
// and returns the references. The slots are solved as one warm-started
// chain (the problem is convex, so the chain reaches the same optima as
// cold solves, sooner); each UFC is computed by the benchmark's own
// formulas from the routing with the exact power split, like the run's.
// Two solver workers: the iterates do not depend on the worker count.
func MakeRollingRefs(traceSeed int64, progress func(SlotRef)) (*RollingRefs, error) {
	topo, err := experiments.NewSyntheticTopology(Fleet, FleetSeed)
	if err != nil {
		return nil, err
	}
	opts := core.Options{SparsityCutoff: topo.CutoffSec, Workers: 2, Tolerance: RefTolerance, MaxIterations: 200000}
	eng, err := core.NewEngine(topo.SlotInstance(traceSeed, 0), opts)
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	state := core.NewState(Fleet.M, Fleet.N)
	refs := &RollingRefs{Fleet: Fleet.String(), FleetSeed: FleetSeed, TraceSeed: traceSeed, Tolerance: RefTolerance}
	for t := 0; t < DaySlots; t++ {
		inst := topo.SlotInstance(traceSeed, int64(t))
		if err := eng.Reset(inst); err != nil {
			return nil, err
		}
		alloc, _, st, err := eng.SolveState(state)
		if err != nil {
			return nil, fmt.Errorf("slot %d: %w", t, err)
		}
		c, err := coeffsOf(inst, core.Hybrid)
		if err != nil {
			return nil, err
		}
		ufc, err := c.splitUFC(alloc.Lambda, topo.CutoffSec, c.capacitySlack(RefTolerance))
		if err != nil {
			return nil, fmt.Errorf("slot %d reference: %w", t, err)
		}
		ref := SlotRef{Slot: t, UFC: ufc, Iterations: st.Iterations, Residual: st.FinalResidual}
		refs.Slots = append(refs.Slots, ref)
		if progress != nil {
			progress(ref)
		}
	}
	return refs, nil
}

// splitUFC checks a routing and returns its UFC under the exact power
// split.
func (c *coeffs) splitUFC(lambda [][]float64, cutoff, slack float64) (float64, error) {
	if err := c.checkRouting(lambda, cutoff, slack); err != nil {
		return 0, err
	}
	mu, nu := make([]float64, c.n), make([]float64, c.n)
	for j := range mu {
		mu[j], nu[j] = c.exactSplit(j, c.demand(j, c.load(lambda, j)))
	}
	return c.ufc(lambda, mu, nu), nil
}
