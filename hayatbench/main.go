// Command hayatbench is the repository benchmark: whole lifetime jobs,
// from platform build to encoded (and, for the service workloads,
// journalled, audited and replicated) result, on four workloads. It is
// run from the repository root through hayatbench/run.sh:
//
//	bash hayatbench/run.sh --workload paper-8x8 --seed 1 --seconds 20 --trace 0
//
// Each run does a fixed job list drawn from --seed and sized from
// --seconds, checks every output, prints every metric with its unit and
// sample count, and ends with one JSON line. --trace 0 reports the
// end-to-end metrics; --trace 1 records spans around the calls into each
// layer and reports the per-layer metrics instead. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/kit-ces/hayat"
)

const (
	// clients is the closed-loop client count: one per core of the
	// two-core reference host.
	clients = 2
	// Set-up is the median of repeated cold builds, sampled twice per run
	// (before the warm-up and after the timed phase) so that one slow
	// stretch of the host does not set it: each time at least
	// minSetupReps builds, more while setupBudget lasts, at most
	// maxSetupReps.
	minSetupReps = 3
	maxSetupReps = 20
	setupBudget  = 150 * time.Millisecond
	// runDeadline bounds a whole run so that it always ends, with its
	// result line, inside the three minutes a run may take.
	runDeadline = 150 * time.Second
	// buildDir holds everything a run leaves behind, relative to the
	// repository root.
	buildDir = ".bench_build"
)

// workload runs its fixed job list and reports through the runner.
type workload interface {
	run(ctx context.Context, r *runner) error
}

// workloads maps each name to its implementation.
var workloads = map[string]workload{
	"paper-8x8": simWorkload{
		rows: 8, cols: 8, dark: 0.5, years: 10,
		policies:   []hayat.Policy{hayat.PolicyHayat, hayat.PolicyVAA},
		jobSeconds: 2.0, probeChips: 3,
	},
	"manycore-16x16": simWorkload{
		rows: 16, cols: 16, dark: 0.5, years: 2,
		policies:   []hayat.Policy{hayat.PolicyHayat},
		jobSeconds: 4.2, probeChips: 2,
	},
	"service-sweep": serviceWorkload{nodes: 1, itemSeconds: 0.0085},
	"cluster-r2":    serviceWorkload{nodes: 3, itemSeconds: 0.056},
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name: paper-8x8, manycore-16x16, service-sweep or cluster-r2")
		seed    = flag.Int64("seed", 1, "seed the job list is drawn from")
		seconds = flag.Int("seconds", 20, "nominal length of the measured phase; sizes the fixed job list")
		trace   = flag.Int("trace", 0, "1 records spans and reports per-layer metrics; 0 reports end-to-end metrics")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "hayatbench: need --workload (one of %s), --seconds ≥ 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	res, err := runWorkload(*name, w, *seed, *seconds, *trace == 1, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hayatbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hayatbench: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runWorkload runs one workload, prints its report to out and returns the
// result line's content. An error means the run could not be measured at
// all; failed jobs and checks are counted in the result instead.
func runWorkload(name string, w workload, seed int64, seconds int, traced bool, out io.Writer) (result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	r := &runner{
		seed: seed, seconds: seconds, clients: clients,
		dir:    filepath.Join(buildDir, fmt.Sprintf("run-%s-%d", name, os.Getpid())),
		values: map[string]float64{}, samples: map[string]int{},
	}
	if traced {
		r.tr = newTracer()
	}
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return result{}, fmt.Errorf("creating run dir: %w", err)
	}
	defer os.RemoveAll(r.dir)

	heap := watchHeap()
	err := w.run(ctx, r)
	peak := heap.stop()
	if err != nil {
		return result{}, err
	}
	attempted, failed := r.attempted.Load(), r.failed.Load()
	if attempted == 0 {
		return result{}, fmt.Errorf("no job was attempted")
	}
	r.set("mem_peak_mb", peak, heap.samples)
	r.set("error_rate", float64(failed)/float64(attempted), int(attempted))

	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	fmt.Fprintf(out, "workload %s seed %d seconds %d trace %v clients %d\n", name, seed, seconds, traced, r.clients)
	for _, d := range endToEnd {
		v, ok := r.values[d.name]
		if !ok {
			return result{}, fmt.Errorf("metric %s was not measured", d.name)
		}
		if !traced {
			res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		}
		// The traced run prints its end-to-end figures too: set against an
		// untraced run of the same seed, they show the tracing overhead.
		fmt.Fprintf(out, "metric %-34s %14.6g %-12s samples %d\n", d.name, v, d.unit, r.samples[d.name])
	}
	var offPath []string
	if traced {
		path, err := writeSpans(filepath.Join(buildDir, "traces"), name, seed, r.tr.snapshot())
		if err != nil {
			return result{}, err
		}
		r.note("spans written to " + path)
		for _, d := range perLayer {
			v, ok := r.values[d.name]
			switch {
			case !d.appliesTo(name):
				v = 0
				offPath = append(offPath, d.name)
			case !ok:
				return result{}, fmt.Errorf("metric %s was not measured", d.name)
			}
			res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
			fmt.Fprintf(out, "layer  %-34s %14.6g %-12s samples %d\n", d.name, v, d.unit, r.samples[d.name])
		}
	}
	if len(offPath) > 0 {
		r.note("reported as 0, not on this workload's job path: " + strings.Join(offPath, ", "))
	}
	fmt.Fprintf(out, "digest %s (sha256 of every timed result's bytes, in job order)\n", r.digest)
	for _, n := range r.notes {
		fmt.Fprintf(out, "note %s\n", n)
	}
	for _, e := range r.errs {
		fmt.Fprintf(os.Stderr, "error %s\n", e)
	}
	return res, nil
}

// runner carries one run's settings and collects what it measures.
type runner struct {
	seed    int64
	seconds int
	clients int
	tr      *tracer // nil in the untraced run
	dir     string  // scratch directory inside the checkout
	probe   *platformParts
	setups  []float64 // cold set-up times in seconds

	attempted, failed atomic.Int64

	mu      sync.Mutex
	values  map[string]float64
	samples map[string]int
	notes   []string
	errs    []string
	digest  string
}

// set records a metric's value and the number of samples behind it.
func (r *runner) set(name string, v float64, n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.values[name] = v
	r.samples[name] = n
}

func (r *runner) note(s string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.notes = append(r.notes, s)
}

// fail counts a failed job or check. The first few reasons are kept for
// the report.
func (r *runner) fail(err error) {
	r.failed.Add(1)
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.errs) < 20 {
		r.errs = append(r.errs, err.Error())
	}
}

// check counts one output check as attempted, and as failed when err is
// not nil.
func (r *runner) check(err error) {
	r.attempted.Add(1)
	if err != nil {
		r.fail(err)
	}
}

// sampleSetup times repeated cold set-ups with build, which returns the
// duration of one. The median of all samples is the run's setup_s.
func (r *runner) sampleSetup(build func() (time.Duration, error)) error {
	begin := time.Now()
	for n := 0; n < minSetupReps || (time.Since(begin) < setupBudget && n < maxSetupReps); n++ {
		d, err := build()
		if err != nil {
			return err
		}
		r.setups = append(r.setups, d.Seconds())
	}
	r.set("setup_s", median(r.setups), len(r.setups))
	return nil
}

// setTail reports a tail percentile when enough samples lie beyond it,
// and otherwise reports 0 and says why.
func (r *runner) setTail(name string, t timing, q float64) {
	v, ok, why := t.tail(q)
	r.set(name, v, t.n())
	if !ok {
		r.note(name + ": omitted (reported as 0), " + why)
	}
}

// setSimStats reports the simulated chips' own statistics.
func (r *runner) setSimStats(st simStats, chips int) {
	for _, p := range []string{"Hayat", "VAA"} {
		label := strings.ToLower(p)
		r.set("sim.dtm_events."+label, st.dtmEvents[p], chips)
		r.set("sim.avg_fmax_ghz_final."+label, st.finalFMaxGHz[p], chips)
	}
	r.set("sim.lifetime_ext_years", st.lifetimeExtYr, chips)
}

// setProfile reports the traced jobs' self time per layer, what share of
// job time no layer accounts for, and the tracing overhead: the measured
// cost of recording one span times the spans recorded, as a share of job
// time.
func (r *runner) setProfile(p jobProfile, layers map[string]string) {
	for metric, layer := range layers {
		r.set(metric, p.perJob(layer), p.jobs)
	}
	r.set("job.unaccounted_share", p.unaccountedShare(), p.jobs)
	cost := spanCost()
	r.set("trace.overhead_share", ratio(float64(p.spans)*cost.Seconds(), p.jobTotal), p.spans)
	r.note(fmt.Sprintf("tracing: %d spans in %d jobs, %v per span", p.spans, p.jobs, cost))
}

// heapWatch samples the live heap — the bytes still reachable after
// the most recent garbage collection — and keeps the largest value seen.
// The peak resident set size would include whatever garbage the
// collector had not yet reclaimed, which varies from run to run with GC
// timing; the live heap is what the program itself holds on to.
type heapWatch struct {
	quit    chan struct{}
	done    chan struct{}
	peak    uint64
	samples int
}

const heapSampleEvery = 5 * time.Millisecond

func watchHeap() *heapWatch {
	h := &heapWatch{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(heapSampleEvery)
		defer tick.Stop()
		for {
			metrics.Read(s)
			h.samples++
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends the sampling and returns the peak live heap in MB.
func (h *heapWatch) stop() float64 {
	close(h.quit)
	<-h.done
	return float64(h.peak) / 1e6
}
