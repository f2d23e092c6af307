package bench

import (
	"fmt"
	"math"

	"repro/internal/carbon"
	"repro/internal/core"
	"repro/internal/utility"
)

// The checks below read an instance's data fields and apply the paper's
// formulas themselves; they never call the solver's own evaluation or
// feasibility code, so a fault there cannot hide a fault in the answer.

// Tolerances of the checks.
const (
	// feasTol bounds constraint violations relative to the constraint's
	// own scale (A_i for routing sums, S_j for capacity, the facility
	// demand for the power balance and the power bounds).
	feasTol = 1e-9
	// ufcEqualTol bounds the relative difference between the benchmark's
	// UFC and the program's Breakdown.UFC for the same allocation: only
	// summation order differs.
	ufcEqualTol = 1e-9
	// gapBound is the largest accepted relative shortfall of a slot's UFC
	// below its reference optimum. The paper-week worst hour is 0.54 %
	// below SolveQP and rolling-sparse slots at most ~0.4 % below their
	// tight-tolerance reference.
	gapBound = 0.01
	// aboveTol is how far a UFC may exceed its reference, relative. An
	// allocation that loads a datacenter within its capacity slack (see
	// capacitySlack) can beat the feasible optimum: paper-week grid-only
	// hour 88 does so by 0.013 %. The references are also optimal only to
	// their own accuracy.
	aboveTol = 1e-3
)

// coeffs is the benchmark's reading of one instance under one strategy:
// every coefficient of the paper's formulas, in MW and $.
type coeffs struct {
	m, n     int
	arrivals []float64
	lat      [][]float64 // seconds
	servers  []float64
	alpha    []float64 // idle facility power α_j, MW
	beta     []float64 // MW per busy server β_j
	muMax    []float64 // fuel-cell capacity under the strategy, MW
	price    []float64 // grid $/MWh
	carbon   []float64 // t/MWh
	tax      []float64 // $/t
	p0, w    float64
	strategy core.Strategy
}

func coeffsOf(inst *core.Instance, strategy core.Strategy) (*coeffs, error) {
	if _, ok := inst.Utility.(utility.Quadratic); !ok {
		return nil, fmt.Errorf("bench: utility %s: the checks implement the paper's quadratic utility only", inst.Utility.Name())
	}
	if inst.RightSizing {
		return nil, fmt.Errorf("bench: right-sized instances are not checked")
	}
	cl := inst.Cloud
	c := &coeffs{
		m: cl.M(), n: cl.N(),
		arrivals: inst.Arrivals,
		price:    inst.PriceUSD,
		carbon:   inst.CarbonRate,
		p0:       inst.FuelCellPriceUSD,
		w:        inst.WeightW,
		strategy: strategy,
	}
	for i := 0; i < c.m; i++ {
		row := make([]float64, c.n)
		for j := range row {
			row[j] = cl.LatencySec(i, j)
		}
		c.lat = append(c.lat, row)
	}
	for j, dc := range cl.Datacenters {
		tax, ok := inst.EmissionCost[j].(carbon.LinearTax)
		if !ok {
			return nil, fmt.Errorf("bench: emission cost %s: the checks implement the paper's linear carbon tax only", inst.EmissionCost[j].Name())
		}
		mu := dc.FuelCellMaxMW
		if strategy == core.GridOnly {
			mu = 0
		}
		c.servers = append(c.servers, dc.Servers)
		c.alpha = append(c.alpha, dc.Servers*dc.Power.IdleW*dc.Power.PUE/1e6)
		c.beta = append(c.beta, (dc.Power.PeakW-dc.Power.IdleW)*dc.Power.PUE/1e6)
		c.muMax = append(c.muMax, mu)
		c.tax = append(c.tax, tax.Rate)
	}
	return c, nil
}

// ufc is the paper's objective (3) with the quadratic utility (2):
// w·Σ_i −A_i·(Σ_j λ_ij L_ij / A_i)² − Σ_j (p_j ν_j + p0 μ_j + tax_j C_j ν_j).
func (c *coeffs) ufc(lambda [][]float64, mu, nu []float64) float64 {
	var util float64
	for i, row := range lambda {
		a := c.arrivals[i]
		if a <= 0 {
			continue
		}
		var wl float64
		for j, v := range row {
			wl += v * c.lat[i][j]
		}
		avg := wl / a
		util -= a * avg * avg
	}
	var cost float64
	for j := 0; j < c.n; j++ {
		cost += c.price[j]*nu[j] + c.p0*mu[j] + c.tax[j]*c.carbon[j]*nu[j]
	}
	return c.w*util - cost
}

func (c *coeffs) load(lambda [][]float64, j int) float64 {
	var s float64
	for i := range lambda {
		s += lambda[i][j]
	}
	return s
}

func (c *coeffs) demand(j int, load float64) float64 { return c.alpha[j] + c.beta[j]*load }

// exactSplit covers datacenter j's demand at the least cost: with linear
// prices and a linear carbon tax the cheaper source takes all it can.
func (c *coeffs) exactSplit(j int, demand float64) (mu, nu float64) {
	switch c.strategy {
	case core.GridOnly:
		return 0, demand
	case core.FuelCellOnly:
		return demand, 0
	}
	if c.p0 < c.price[j]+c.tax[j]*c.carbon[j] {
		mu = math.Min(demand, c.muMax[j])
		return mu, demand - mu
	}
	return 0, demand
}

// capacitySlack is how far past S_j a routing from a solve stopped at
// routing-residual tolerance tol may load datacenter j, in servers. The
// a-step keeps Σ_i a_ij ≤ S_j exactly, the stopping rule bounds every
// |λ_ij − a_ij| by tol·max_i A_i, and the routing is taken from λ, so a
// column exceeds S_j by at most M·tol·max_i A_i.
func (c *coeffs) capacitySlack(tol float64) float64 {
	var peak float64
	for _, a := range c.arrivals {
		peak = math.Max(peak, a)
	}
	return float64(c.m) * tol * math.Max(1, peak)
}

// checkRouting verifies Σ_j λ_ij = A_i, λ ≥ 0, Σ_i λ_ij ≤ S_j + slack and,
// when cutoff > 0, λ_ij = 0 on every pair slower than the cutoff. "Zero"
// allows feasTol·A_i: a snapshot's cumulative table hands its rounding
// residue (~3e-14) to the last datacenter, feasible or not.
func (c *coeffs) checkRouting(lambda [][]float64, cutoff, slack float64) error {
	if len(lambda) != c.m {
		return fmt.Errorf("routing has %d rows, want %d", len(lambda), c.m)
	}
	for i, row := range lambda {
		if len(row) != c.n {
			return fmt.Errorf("routing row %d has %d entries, want %d", i, len(row), c.n)
		}
		var sum float64
		for j, v := range row {
			if v < -feasTol*math.Max(1, c.arrivals[i]) || math.IsNaN(v) {
				return fmt.Errorf("λ[%d][%d] = %g is negative", i, j, v)
			}
			if cutoff > 0 && c.lat[i][j] > cutoff && v > feasTol*c.arrivals[i] {
				return fmt.Errorf("λ[%d][%d] = %g on a pair beyond the %.3g s cutoff", i, j, v, cutoff)
			}
			sum += v
		}
		if math.Abs(sum-c.arrivals[i]) > feasTol*math.Max(1, c.arrivals[i]) {
			return fmt.Errorf("front-end %d routes %.12g, arrivals are %.12g", i, sum, c.arrivals[i])
		}
	}
	for j := 0; j < c.n; j++ {
		if l := c.load(lambda, j); l > c.servers[j]*(1+feasTol)+slack {
			return fmt.Errorf("datacenter %d carries %.12g servers, capacity %.12g (+%.4g slack)", j, l, c.servers[j], slack)
		}
	}
	return nil
}

// checkPower verifies μ_j + ν_j = α_j + β_j·load_j, 0 ≤ μ_j ≤ μ_j^max,
// ν_j ≥ 0 and the strategy's exclusions (μ ≡ 0 grid-only, ν ≡ 0
// fuel-cell-only). μ_j^max is the facility's peak demand, so a routing
// within its capacity slack may need β_j·slack more fuel-cell power.
func (c *coeffs) checkPower(lambda [][]float64, mu, nu []float64, slack float64) error {
	if len(mu) != c.n || len(nu) != c.n {
		return fmt.Errorf("power vectors have %d/%d entries, want %d", len(mu), len(nu), c.n)
	}
	for j := 0; j < c.n; j++ {
		d := c.demand(j, c.load(lambda, j))
		tol := feasTol * math.Max(1, d)
		if math.Abs(mu[j]+nu[j]-d) > tol {
			return fmt.Errorf("datacenter %d: μ+ν = %.12g MW, demand is %.12g MW", j, mu[j]+nu[j], d)
		}
		if mu[j] < -tol || mu[j] > c.muMax[j]+tol+c.beta[j]*slack || nu[j] < -tol {
			return fmt.Errorf("datacenter %d: μ = %.12g MW (max %.12g), ν = %.12g MW out of bounds", j, mu[j], c.muMax[j], nu[j])
		}
		if c.strategy == core.GridOnly && mu[j] != 0 {
			return fmt.Errorf("datacenter %d: grid-only strategy burns μ = %g MW", j, mu[j])
		}
		if c.strategy == core.FuelCellOnly && nu[j] != 0 {
			return fmt.Errorf("datacenter %d: fuel-cell-only strategy draws ν = %g MW", j, nu[j])
		}
	}
	return nil
}

// checkAllocation runs both constraint checks and returns the
// allocation's UFC by the paper's formulas.
func (c *coeffs) checkAllocation(a *core.Allocation, cutoff, slack float64) (float64, error) {
	if err := c.checkRouting(a.Lambda, cutoff, slack); err != nil {
		return 0, err
	}
	if err := c.checkPower(a.Lambda, a.MuMW, a.NuMW, slack); err != nil {
		return 0, err
	}
	return c.ufc(a.Lambda, a.MuMW, a.NuMW), nil
}

// checkUFCEqual verifies the program's reported UFC against the
// benchmark's own computation for the same allocation.
func checkUFCEqual(own, reported float64) error {
	if math.Abs(own-reported) > ufcEqualTol*math.Max(1, math.Abs(own)) {
		return fmt.Errorf("reported UFC %.12g, the paper's formulas give %.12g", reported, own)
	}
	return nil
}

// ufcGap is the relative shortfall of got below the reference optimum;
// negative when got is higher.
func ufcGap(got, ref float64) float64 { return (ref - got) / math.Max(1e-12, math.Abs(ref)) }

// checkGap verifies a UFC against its reference and returns the gap.
func checkGap(got, ref float64) (float64, error) {
	g := ufcGap(got, ref)
	if g > gapBound || math.IsNaN(g) {
		return g, fmt.Errorf("UFC %.10g is %.3g%% below the reference %.10g (bound %.3g%%)", got, 100*g, ref, 100*gapBound)
	}
	if g < -aboveTol {
		return g, fmt.Errorf("UFC %.10g exceeds the reference optimum %.10g by %.3g%%", got, ref, -100*g)
	}
	return g, nil
}

// routingFromWeights rebuilds λ from a snapshot's per-front-end routing
// fractions: λ_ij = w_ij · A_i.
func routingFromWeights(weights [][]float64, arrivals []float64) [][]float64 {
	lambda := make([][]float64, len(weights))
	for i, w := range weights {
		row := make([]float64, len(w))
		for j, v := range w {
			row[j] = v * arrivals[i]
		}
		lambda[i] = row
	}
	return lambda
}

// uniform maps a lookup's 64-bit draw onto [0, 1) the way the serving
// plane's wire format defines it: the top 53 bits as a float64 mantissa.
func uniform(u uint64) float64 { return float64(u>>11) * (1.0 / (1 << 53)) }

// pick inverts a uniform draw through one front-end's routing weights:
// the first datacenter whose cumulative weight exceeds the draw.
func pick(w []float64, u01 float64) int {
	var c float64
	for j, v := range w {
		c += v
		if u01 < c {
			return j
		}
	}
	return len(w) - 1
}

// checkLookup verifies an answered datacenter against the benchmark's own
// inversion of the draw. The two cumulative sums may differ in the last
// bit, so a draw within 1e-12 of a bucket boundary may land on either side
// of it; the answer must still carry nonzero weight.
func checkLookup(w []float64, u uint64, answered int) error {
	if answered < 0 || answered >= len(w) {
		return fmt.Errorf("answered datacenter %d out of range", answered)
	}
	if w[answered] <= 0 {
		return fmt.Errorf("answered datacenter %d has zero routing weight", answered)
	}
	u01 := uniform(u)
	want := pick(w, u01)
	if want == answered {
		return nil
	}
	lo, hi := min(want, answered), max(want, answered)
	var c float64
	for j := 0; j < hi; j++ {
		c += w[j]
		if j >= lo && math.Abs(u01-c) <= 1e-12 {
			return nil
		}
	}
	return fmt.Errorf("answered datacenter %d, the weights and draw %.17g give %d", answered, u01, want)
}
