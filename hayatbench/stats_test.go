package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want bool
	}{
		{n: 20, q: 0.9, want: false},
		{n: 90, q: 0.9, want: false},
		{n: 101, q: 0.9, want: true},
		{n: 500, q: 0.99, want: false},
		{n: 1001, q: 0.99, want: true},
	} {
		tm := newTiming(seq(tc.n))
		v, ok, why := tm.tail(tc.q)
		if ok != tc.want {
			t.Errorf("n=%d p%g: ok=%v (%s), want %v", tc.n, tc.q*100, ok, why, tc.want)
		}
		if ok {
			if b := tm.beyond(v); b < minBeyondTail {
				t.Errorf("n=%d p%g reported with %d samples beyond", tc.n, tc.q*100, b)
			}
		} else if why == "" || v != 0 {
			t.Errorf("n=%d p%g: omitted tail must be 0 with a reason, got %v %q", tc.n, tc.q*100, v, why)
		}
	}
}

func TestTailNotBelowMedianOfSameSample(t *testing.T) {
	xs := make([]float64, 300)
	for i := range xs {
		xs[i] = math.Exp(math.Sin(float64(i) * 7.3)) // skewed, unsorted
	}
	tm := newTiming(xs)
	v, ok, _ := tm.tail(0.9)
	if !ok {
		t.Fatal("p90 of 300 samples omitted")
	}
	if v < tm.median() {
		t.Fatalf("p90 %v below p50 %v", v, tm.median())
	}
	if tm.n() != len(xs) {
		t.Fatalf("sample count %d, want %d", tm.n(), len(xs))
	}
}

func TestQuantile(t *testing.T) {
	tm := newTiming([]float64{4, 1, 3, 2})
	for q, want := range map[float64]float64{0: 1, 0.5: 2.5, 1: 4, 1.0 / 3: 2} {
		if got := tm.quantile(q); math.Abs(got-want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if got := median([]float64{0.007, 0.5, 0.006}); got != 0.007 {
		t.Errorf("median of repeated set-ups = %v, want 0.007 (one slow build must not move it)", got)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Job: 1, Name: spanJob, Start: 0, End: 100},
		{ID: 2, Parent: 1, Job: 1, Name: spanLifetime, Start: 10, End: 90},
		{ID: 3, Parent: 2, Job: 1, Name: "epoch.thermal.hayat", Start: 20, End: 50},
		{ID: 4, Parent: 2, Job: 1, Name: "epoch.mapping.hayat", Start: 40, End: 70}, // overlaps 3
		{ID: 5, Job: 2, Name: spanJob, Start: 0, End: 1000},                         // not profiled
	}
	self := selfTimes(spans)
	if got := self[2] * 1e9; math.Abs(got-30) > 1e-6 { // 80 − union(20..70)
		t.Errorf("lifetime self = %v ns, want 30", got)
	}
	p := profileJobs(spans, map[int64]bool{1: true})
	if got := p.unaccountedShare(); math.Abs(got-0.2) > 1e-9 {
		t.Errorf("unaccounted share = %v, want 0.2", got)
	}
	if p.spans != 4 || p.jobs != 1 {
		t.Errorf("profile counted %d spans in %d jobs, want 4 in 1", p.spans, p.jobs)
	}
}

func TestNilTracerIsFree(t *testing.T) {
	var tr *tracer
	s := tr.start(spanJob, 0, 1)
	if d := tr.finish(s); d != 0 || s.ID != 0 {
		t.Fatalf("nil tracer recorded a span: %+v %v", s, d)
	}
	tr.record("epoch.aging.hayat", 0, 1, 5)
}
