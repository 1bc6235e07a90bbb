package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"

	"github.com/kit-ces/hayat/internal/persist"
)

// checkResult decodes one canonical lifetime result and checks what every
// correct result satisfies: the expected policy, chip and epoch count,
// finite values everywhere and health in (0, 1].
func checkResult(data []byte, policy string, seed int64, epochs int) (persist.ResultRecord, error) {
	rec, err := persist.LoadResult(bytes.NewReader(data))
	if err != nil {
		return rec, err
	}
	switch {
	case rec.Policy != policy:
		return rec, fmt.Errorf("policy %q, want %q", rec.Policy, policy)
	case rec.ChipSeed != seed:
		return rec, fmt.Errorf("chip seed %d, want %d", rec.ChipSeed, seed)
	case len(rec.Epochs) != epochs:
		return rec, fmt.Errorf("%d epochs, want %d", len(rec.Epochs), epochs)
	}
	for name, vs := range map[string][]float64{
		"initial_fmax_hz": rec.InitialFMax,
		"final_fmax_hz":   rec.FinalFMax,
		"final_health":    rec.FinalHealth,
	} {
		for i, v := range vs {
			if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
				return rec, fmt.Errorf("%s[%d] = %v", name, i, v)
			}
		}
	}
	for _, h := range rec.FinalHealth {
		if h > 1 {
			return rec, fmt.Errorf("final health %v above 1", h)
		}
	}
	for _, e := range rec.Epochs {
		for _, v := range []float64{e.YearsElapsed, e.AvgFMax, e.MaxFMax, e.AvgTemp, e.PeakTemp, e.AvgIPS} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return rec, fmt.Errorf("epoch %d: non-finite value %v", e.Epoch, v)
			}
		}
		for _, h := range []float64{e.AvgHealth, e.MinHealth} {
			if !(h > 0 && h <= 1) {
				return rec, fmt.Errorf("epoch %d: health %v outside (0, 1]", e.Epoch, h)
			}
		}
	}
	return rec, nil
}

// outputLog collects each job's checked results in job order, so the
// digest and the simulated statistics do not depend on which client
// finished first.
type outputLog struct {
	results [][]output // by job index, then policy order
}

// output is one checked lifetime result.
type output struct {
	sum [sha256.Size]byte
	rec persist.ResultRecord
}

func newOutputLog(jobs int) *outputLog { return &outputLog{results: make([][]output, jobs)} }

// add records job i's results; each job index is written by one client.
func (l *outputLog) add(i int, data []byte, rec persist.ResultRecord) {
	l.results[i] = append(l.results[i], output{sum: sha256.Sum256(data), rec: rec})
}

// digest hashes every result's bytes in job order: equal digests for the
// same seed mean the simulated output is unchanged.
func (l *outputLog) digest() string {
	h := sha256.New()
	for _, outs := range l.results {
		for _, o := range outs {
			h.Write(o.sum[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// simStats are statistics of the simulated chips themselves. They depend
// only on the job list, so they repeat exactly for a seed.
type simStats struct {
	dtmEvents     map[string]float64 // policy → mean DTM events per chip
	finalFMaxGHz  map[string]float64 // policy → mean chip-average f_max after the last epoch
	lifetimeExtYr float64            // Hayat over VAA at half the horizon (0 without both)
}

func (l *outputLog) stats() simStats {
	st := simStats{dtmEvents: map[string]float64{}, finalFMaxGHz: map[string]float64{}}
	count := map[string]int{}
	series := map[string][]float64{}
	var years []float64
	for _, outs := range l.results {
		for _, o := range outs {
			r := o.rec
			p := r.Policy
			count[p]++
			st.dtmEvents[p] += float64(r.Migrations + r.Throttles)
			st.finalFMaxGHz[p] += r.Epochs[len(r.Epochs)-1].AvgFMax / 1e9
			s := avgFMaxSeries(r)
			if series[p] == nil {
				series[p] = make([]float64, len(s))
				years = epochYears(r)
			}
			for i, v := range s {
				series[p][i] += v
			}
		}
	}
	for p, n := range count {
		st.dtmEvents[p] /= float64(n)
		st.finalFMaxGHz[p] /= float64(n)
		for i := range series[p] {
			series[p][i] /= float64(n)
		}
	}
	if h, v := series["Hayat"], series["VAA"]; h != nil && v != nil {
		st.lifetimeExtYr = lifetimeExtension(years, h, v, years[len(years)-1]/2)
	}
	return st
}

// avgFMaxSeries is the chip-average f_max at year 0 and after each epoch.
func avgFMaxSeries(r persist.ResultRecord) []float64 {
	var f0 float64
	for _, f := range r.InitialFMax {
		f0 += f
	}
	s := []float64{f0 / float64(len(r.InitialFMax))}
	for _, e := range r.Epochs {
		s = append(s, e.AvgFMax)
	}
	return s
}

func epochYears(r persist.ResultRecord) []float64 {
	y := []float64{0}
	for _, e := range r.Epochs {
		y = append(y, e.YearsElapsed)
	}
	return y
}

// lifetimeExtension is Fig. 11's measure: the baseline's average f_max
// at the required lifetime marks end of life, and the extension is how
// much later the candidate's average reaches it (horizon − required when
// it never does inside the simulated horizon).
func lifetimeExtension(years, candidate, baseline []float64, required float64) float64 {
	threshold := interpolate(years, baseline, required)
	last := len(years) - 1
	if candidate[last] >= threshold {
		return years[last] - required
	}
	for i := 1; i <= last; i++ {
		if candidate[i] <= threshold {
			f0, f1 := candidate[i-1], candidate[i]
			if f0 == f1 {
				return years[i-1] - required
			}
			return years[i-1] + (f0-threshold)/(f0-f1)*(years[i]-years[i-1]) - required
		}
	}
	return 0
}

func interpolate(xs, ys []float64, x float64) float64 {
	for i := 1; i < len(xs); i++ {
		if x <= xs[i] {
			t := (x - xs[i-1]) / (xs[i] - xs[i-1])
			return ys[i-1] + t*(ys[i]-ys[i-1])
		}
	}
	return ys[len(ys)-1]
}
