package thermalsched

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"thermalsched/internal/hotspot"
)

// parityTempTol is the agreement the sparse stepper owes the dense
// reference on every temperature, in kelvin.
const parityTempTol = 1e-9

// parityThrottleRel bounds the relative drift of the throttled-work
// fields under the PI controller. Its throttle scale is a continuous
// function of the sensed temperature, so a sub-parityTempTol
// temperature difference legitimately moves how long stretched tasks
// run; threshold controllers and the stream policies keep them exact.
const parityThrottleRel = 1e-12

// throttleFields are the fields a continuous controller's rounding
// reaches.
var throttleFields = map[string]bool{"makespan": true, "throttleTime": true, "meanEnergy": true}

// TestClosedLoopDenseParity runs every closed-loop golden case, plus a
// 64-PE admit stream, twice: on the production engine, and on an
// engine whose models step with the dense reference
// (hotspot.NewReferenceModel: natural-order elimination, whose factor
// is bitwise the dense Cholesky of Conductance() + C/dt;
// TestReferenceModelStepsAsDenseCholesky holds its steps to an in-test
// dense Cholesky stepper within 1e-12 K). Temperatures must
// agree to parityTempTol; every discrete field — step counts, denials,
// miss rates, job counts — must match exactly, and so must every
// makespan, throttle time and energy except under the PI controller
// (see parityThrottleRel).
func TestClosedLoopDenseParity(t *testing.T) {
	prod, err := NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	ref.newModel = hotspot.NewReferenceModel

	cases := closedLoopGoldenCases()
	cases = append(cases, struct {
		name string
		req  Request
	}{"stream_admit_64pe", NewRequest(FlowStream, WithStream(StreamSpec{
		Seed: 17, SimSeed: 5, MinFactor: 0.8, Replicas: 2,
		Platform: ScenarioPlatformParams{PEs: 64, MinSpeed: 0.7, MaxSpeed: 1.5},
	}), func(r *Request) { r.Policy = StreamPolicyAdmit })})

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := runGeneric(t, prod, tc.req)
			want := runGeneric(t, ref, tc.req)
			rel := 0.0
			if tc.req.Simulate != nil && tc.req.Simulate.Controller == "pi" {
				rel = parityThrottleRel
			}
			var diffs []string
			compareParity("", got, want, rel, &diffs)
			if len(diffs) > 0 {
				sort.Strings(diffs)
				t.Errorf("%d fields differ from the dense reference:\n%s", len(diffs), strings.Join(diffs, "\n"))
			}
		})
	}
}

// runGeneric runs req and decodes the response into generic JSON.
func runGeneric(t *testing.T, e *Engine, req Request) any {
	t.Helper()
	resp, err := e.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	resp.ElapsedMS = 0
	raw, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	var v any
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatal(err)
	}
	return v
}

// compareParity walks two decoded responses in step. Numbers under a
// temperature key ("...TempC") may differ by parityTempTol and those
// under a throttleFields key by rel (relative); every other value must
// be identical.
func compareParity(path string, got, want any, rel float64, diffs *[]string) {
	switch w := want.(type) {
	case map[string]any:
		g, ok := got.(map[string]any)
		if !ok || len(g) != len(w) {
			*diffs = append(*diffs, fmt.Sprintf("%s: shape %v vs %v", path, got, want))
			return
		}
		for k, wv := range w {
			compareParity(path+"."+k, g[k], wv, rel, diffs)
		}
	case []any:
		g, ok := got.([]any)
		if !ok || len(g) != len(w) {
			*diffs = append(*diffs, fmt.Sprintf("%s: shape %v vs %v", path, got, want))
			return
		}
		for i := range w {
			compareParity(fmt.Sprintf("%s[%d]", path, i), g[i], w[i], rel, diffs)
		}
	case float64:
		g, ok := got.(float64)
		tol := 0.0
		switch {
		case pathHas(path, func(seg string) bool { return strings.HasSuffix(seg, "TempC") }):
			tol = parityTempTol
		case pathHas(path, func(seg string) bool { return throttleFields[seg] }):
			tol = rel * math.Abs(w)
		}
		if !ok || math.Abs(g-w) > tol {
			*diffs = append(*diffs, fmt.Sprintf("%s: %v vs reference %v", path, got, want))
		}
	default:
		if got != want {
			*diffs = append(*diffs, fmt.Sprintf("%s: %v vs reference %v", path, got, want))
		}
	}
}

// pathHas reports whether any segment of a JSON path satisfies match.
func pathHas(path string, match func(seg string) bool) bool {
	for _, seg := range strings.Split(path, ".") {
		if match(seg) {
			return true
		}
	}
	return false
}
