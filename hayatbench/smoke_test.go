package main

import (
	"io"
	"testing"

	"github.com/kit-ces/hayat"
)

// TestSmokeEveryWorkload runs each workload briefly, untraced and traced,
// and requires every output check to pass and every metric to be
// reported. The simulation workloads run on a 4×4 chip for half a year
// so that the test stays short; the code path is the benchmark's own.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	small := map[string]simWorkload{
		"paper-8x8":      {rows: 4, cols: 4, dark: 0.5, years: 0.5, policies: []hayat.Policy{hayat.PolicyHayat, hayat.PolicyVAA}, jobSeconds: 1, probeChips: 1},
		"manycore-16x16": {rows: 4, cols: 4, dark: 0.5, years: 0.5, policies: []hayat.Policy{hayat.PolicyHayat}, jobSeconds: 1, probeChips: 1},
	}
	for _, name := range workloadNames() {
		w := workloads[name]
		if s, ok := small[name]; ok {
			w = s
		}
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(name, w, 11, 1, traced, io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", name, traced, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s: %s missing", name, d.name)
				case !traced && !(m.Value > 0):
					t.Errorf("%s: end-to-end %s = %v, want > 0", name, d.name, m.Value)
				}
			}
		}
	}
}
