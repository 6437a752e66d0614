package hotspot

import (
	"fmt"

	"thermalsched/internal/linalg"
)

// Transient integrates the thermal network over time with fixed-step
// backward Euler. Construct one with Model.NewTransient; feed it power
// samples with Step. The state starts at ambient.
//
// A Transient owns only its state: the factor of C/dt + G is the
// model's, shared read-only with every other Transient at the same dt.
// The state and power workspace are kept in the factor's elimination
// order, so a step touches no permutation beyond the block entries it
// reads and writes, takes no lock and allocates nothing. Transients are
// not safe for concurrent use; distinct Transients of one model are.
type Transient struct {
	m     *Model
	be    *linalg.BackwardEuler
	pos   []int     // node → elimination position (the model's, read-only)
	state []float64 // temperature rise over ambient, elimination order
	pbuf  []float64 // node powers, elimination order; non-block entries stay zero
	now   float64   // elapsed simulated seconds
}

// NewTransient creates a transient simulation with time step dt
// seconds. Transient stepping always uses the model's cached sparse
// Cholesky factor of C/dt + G, whatever Config.Solver selects for the
// steady state.
func (m *Model) NewTransient(dt float64) (*Transient, error) {
	be, err := m.stepFactor(dt)
	if err != nil {
		return nil, fmt.Errorf("hotspot: transient init: %w", err)
	}
	_, pos := m.elimination()
	return &Transient{
		m:     m,
		be:    be,
		pos:   pos,
		state: make([]float64, m.total),
		pbuf:  make([]float64, m.total),
	}, nil
}

// Reset returns the simulation to ambient at t = 0.
func (tr *Transient) Reset() {
	for i := range tr.state {
		tr.state[i] = 0
	}
	tr.now = 0
}

// Time returns the elapsed simulated time in seconds.
func (tr *Transient) Time() float64 { return tr.now }

// SetRise overwrites the full node state with the given temperature
// rises over ambient (all nodes, in the model's node layout — the shape
// Model.SteadyNodeRise returns). It warm-starts a transient at a chosen
// operating point without advancing time.
func (tr *Transient) SetRise(rise []float64) error {
	if len(rise) != len(tr.state) {
		return fmt.Errorf("hotspot: rise vector length %d, want %d", len(rise), len(tr.state))
	}
	for i, r := range rise {
		tr.state[tr.pos[i]] = r
	}
	return nil
}

// Step advances one time step under the given per-block power map and
// returns the block temperatures after the step.
func (tr *Transient) Step(power map[string]float64) (Temps, error) {
	p, err := tr.m.powerVector(power)
	if err != nil {
		return Temps{}, err
	}
	for i, w := range p {
		tr.pbuf[tr.pos[i]] = w
	}
	if err := tr.step(); err != nil {
		return Temps{}, err
	}
	return tr.snapshot(), nil
}

// StepVec advances one time step with powers indexed by block node order.
func (tr *Transient) StepVec(power []float64) (Temps, error) {
	vals := make([]float64, tr.m.n)
	if err := tr.StepVecInto(vals, power); err != nil {
		return Temps{}, err
	}
	return Temps{names: tr.m.names, byName: tr.m.byName, values: vals}, nil
}

// StepVecInto advances one time step with powers indexed by block node
// order, writing the resulting block temperatures (°C) into dst without
// allocating — the DTM control loop's form.
func (tr *Transient) StepVecInto(dst, power []float64) error {
	if len(power) != tr.m.n {
		return fmt.Errorf("hotspot: power vector length %d, want %d", len(power), tr.m.n)
	}
	if len(dst) != tr.m.n {
		return fmt.Errorf("hotspot: temperature vector length %d, want %d", len(dst), tr.m.n)
	}
	pos := tr.pos[:len(power)]
	for i, w := range power {
		tr.pbuf[pos[i]] = w
	}
	if err := tr.step(); err != nil {
		return err
	}
	ambient := tr.m.cfg.AmbientC
	for i := range dst {
		dst[i] = tr.state[pos[i]] + ambient
	}
	return nil
}

// step advances the state one step under the powers staged in pbuf.
func (tr *Transient) step() error {
	if err := tr.be.StepInto(tr.state, tr.pbuf); err != nil {
		return fmt.Errorf("hotspot: transient step: %w", err)
	}
	tr.now += tr.be.Dt()
	return nil
}

// Temps returns the current block temperatures without advancing time.
func (tr *Transient) Temps() Temps { return tr.snapshot() }

func (tr *Transient) snapshot() Temps {
	vals := make([]float64, tr.m.n)
	for i := range vals {
		vals[i] = tr.state[tr.pos[i]] + tr.m.cfg.AmbientC
	}
	return Temps{names: tr.m.names, byName: tr.m.byName, values: vals}
}

// Run integrates a sequence of power samples (each a per-block vector in
// node order, applied for one step) and returns the trajectory of block
// temperatures, one Temps per step.
func (tr *Transient) Run(samples [][]float64) ([]Temps, error) {
	out := make([]Temps, 0, len(samples))
	for i, s := range samples {
		t, err := tr.StepVec(s)
		if err != nil {
			return nil, fmt.Errorf("hotspot: sample %d: %w", i, err)
		}
		out = append(out, t)
	}
	return out, nil
}

// SelfStepResponses integrates, for each listed block, the unit-step
// response of that block's own temperature: 1 W applied to the block
// alone from an ambient start, stepped with backward Euler at dt. Row
// r holds block blocks[r]'s rise over ambient (K/W) after each of the
// steps. All responses advance together through one sweep of the
// model's shared step factor per step; each is bitwise what a separate
// Transient stepping that load would produce.
func (m *Model) SelfStepResponses(dt float64, blocks []int, steps int) ([][]float64, error) {
	be, err := m.stepFactor(dt)
	if err != nil {
		return nil, fmt.Errorf("hotspot: step responses: %w", err)
	}
	_, pos := m.elimination()
	k := len(blocks)
	x := make([]float64, m.total*k)
	p := make([]float64, m.total*k)
	out := make([][]float64, k)
	for r, b := range blocks {
		if b < 0 || b >= m.n {
			return nil, fmt.Errorf("hotspot: step response block %d out of range [0,%d)", b, m.n)
		}
		p[pos[b]*k+r] = 1
		out[r] = make([]float64, steps)
	}
	if k == 0 {
		return out, nil
	}
	for s := 0; s < steps; s++ {
		if err := be.StepManyInto(x, p, k); err != nil {
			return nil, fmt.Errorf("hotspot: step responses: %w", err)
		}
		for r, b := range blocks {
			out[r][s] = x[pos[b]*k+r]
		}
	}
	return out, nil
}
