package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/kit-ces/hayat"
	"github.com/kit-ces/hayat/internal/aging"
	"github.com/kit-ces/hayat/internal/floorplan"
	"github.com/kit-ces/hayat/internal/gates"
	"github.com/kit-ces/hayat/internal/power"
	"github.com/kit-ces/hayat/internal/sim"
	"github.com/kit-ces/hayat/internal/thermal"
	"github.com/kit-ces/hayat/internal/thermpredict"
	"github.com/kit-ces/hayat/internal/variation"
)

// simWorkload runs whole chip lifetimes through the library, with no
// service in front: each job draws a new chip and simulates it under
// every listed policy on Systems sharing one ArtifactCache, then encodes
// each result.
type simWorkload struct {
	rows, cols int
	dark       float64
	years      float64
	policies   []hayat.Policy
	// jobSeconds is the nominal latency of one job with both clients
	// busy on the two-core reference host. It only sizes the fixed job
	// list from --seconds; the list itself never depends on timing.
	jobSeconds float64
	// probeChips is how many chips the traced run rebuilds layer by layer
	// to split the artifact time into draw, predictor and aging table.
	probeChips int
}

func (w simWorkload) config() hayat.Config {
	cfg := hayat.DefaultConfig()
	cfg.Rows, cfg.Cols = w.rows, w.cols
	cfg.DarkFraction = w.dark
	cfg.Years = w.years
	return cfg
}

// epochs is the number of aging epochs one lifetime simulates.
func (w simWorkload) epochs() int {
	cfg := w.config()
	return int(math.Round(cfg.Years / cfg.EpochYears))
}

// chipSeeds draws n distinct chip seeds from the workload seed.
func chipSeeds(seed int64, n int) []int64 {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[int64]bool, n)
	out := make([]int64, 0, n)
	for len(out) < n {
		s := rng.Int63n(1 << 40)
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// stageSink turns the engine's per-stage timings into spans under the
// lifetime span that is running on one System. Each client owns one
// System per policy, and runs one lifetime at a time on it.
type stageSink struct {
	tr     *tracer
	policy string
	parent atomic.Int64
	job    atomic.Int64
}

func (s *stageSink) observe(st sim.Stage, d time.Duration) {
	s.tr.record("epoch."+st.String()+"."+s.policy, s.parent.Load(), s.job.Load(), d)
}

// simClient is one closed-loop client with its own Systems.
type simClient struct {
	sys   map[hayat.Policy]*hayat.System
	sinks map[hayat.Policy]*stageSink
}

func (w simWorkload) run(ctx context.Context, r *runner) error {
	cfg := w.config()
	if err := w.setup(r, cfg); err != nil {
		return err
	}

	arts := hayat.NewArtifactCache()
	clients := make([]*simClient, r.clients)
	for c := range clients {
		cl := &simClient{sys: map[hayat.Policy]*hayat.System{}, sinks: map[hayat.Policy]*stageSink{}}
		for _, p := range w.policies {
			sys, err := hayat.NewSystemWith(cfg, arts)
			if err != nil {
				return fmt.Errorf("building system: %w", err)
			}
			if r.tr != nil {
				sink := &stageSink{tr: r.tr, policy: policyLabel(p)}
				sys.SetStageObserver(sink.observe)
				cl.sinks[p] = sink
			}
			cl.sys[p] = sys
		}
		clients[c] = cl
	}

	jobs := max(2*r.clients, int(math.Round(float64(r.seconds)/w.jobSeconds*float64(r.clients))))
	seeds := chipSeeds(r.seed, r.clients+jobs)
	warm, timed := seeds[:r.clients], seeds[r.clients:]

	// Warm-up: one job per client, run and checked but not measured.
	var wg sync.WaitGroup
	for c, cl := range clients {
		wg.Add(1)
		go func(c int, cl *simClient) {
			defer wg.Done()
			r.attempted.Add(1)
			if _, _, err := w.job(ctx, r, cl, 0, warm[c], nil); err != nil {
				r.fail(fmt.Errorf("warm-up chip %d: %w", warm[c], err))
			}
		}(c, cl)
	}
	wg.Wait()

	log := newOutputLog(len(timed))
	lat := make([]float64, len(timed))
	var first []byte
	artsBefore := arts.Stats()
	var msBefore, msAfter runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	var next atomic.Int64
	begin := time.Now()
	for _, cl := range clients {
		wg.Add(1)
		go func(cl *simClient) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(timed) || ctx.Err() != nil {
					return
				}
				r.attempted.Add(1)
				d, outs, err := w.job(ctx, r, cl, int64(i+1), timed[i], log)
				if err != nil {
					r.fail(fmt.Errorf("chip %d: %w", timed[i], err))
					continue
				}
				lat[i] = d.Seconds()
				if i == 0 {
					first = outs[0]
				}
			}
		}(cl)
	}
	wg.Wait()
	wall := time.Since(begin)
	runtime.ReadMemStats(&msAfter)
	artsAfter := arts.Stats()
	for _, cl := range clients {
		for _, sink := range cl.sinks {
			sink.parent.Store(0) // the check below belongs to no job
			sink.job.Store(0)
		}
	}

	// Re-simulating a chip must reproduce its bytes exactly.
	if first != nil {
		p := w.policies[0]
		again, err := w.lifetime(ctx, clients[0].sys[p], timed[0], p)
		switch {
		case err != nil:
			err = fmt.Errorf("re-simulating chip %d: %w", timed[0], err)
		case !bytes.Equal(again, first):
			err = fmt.Errorf("re-simulating chip %d gave different bytes", timed[0])
		}
		r.check(err)
	}

	if err := r.sampleSetup(func() (time.Duration, error) { return coldPlatform(cfg) }); err != nil {
		return err
	}

	var done []float64
	for _, v := range lat {
		if v > 0 {
			done = append(done, v)
		}
	}
	t := newTiming(done)
	r.set("jobs_per_s", float64(len(done))/wall.Seconds(), len(done))
	r.set("job_s_p50", t.median(), t.n())
	r.setTail("job_s_p90", t, 0.9)
	chipYears := float64(len(done)*len(w.policies)) * cfg.Years
	r.note(fmt.Sprintf("chip_years_per_s: %.4f (%d policies × %g years per job)", chipYears/wall.Seconds(), len(w.policies), cfg.Years))

	hits, misses := artsAfter.Hits-artsBefore.Hits, artsAfter.Misses-artsBefore.Misses
	r.set("artifacts.hit_ratio", ratio(float64(hits), float64(hits+misses)), int(hits+misses))
	r.set("runtime.alloc_mb_per_chip_year", float64(msAfter.TotalAlloc-msBefore.TotalAlloc)/1e6/chipYears, len(done))
	r.set("runtime.gc_cycles", float64(msAfter.NumGC-msBefore.NumGC), 1)
	r.setSimStats(log.stats(), len(done))
	r.digest = log.digest()

	if r.tr != nil {
		w.probeArtifacts(r, timed[:min(w.probeChips, len(timed))])
		ids := make(map[int64]bool, len(timed))
		for i := range timed {
			ids[int64(i+1)] = true
		}
		r.setProfile(profileJobs(r.tr.snapshot(), ids), simLayers())
	}
	return nil
}

// setup measures the cold platform build — floorplan, thermal model with
// its factorisation and variation generator with its Cholesky factor —
// through the public constructor. The traced run also times thermal.New
// and variation.NewGenerator alone.
func (w simWorkload) setup(r *runner, cfg hayat.Config) error {
	if err := r.sampleSetup(func() (time.Duration, error) { return coldPlatform(cfg) }); err != nil {
		return err
	}
	if r.tr == nil {
		return nil
	}
	var thermalS, variationS []float64
	for i := 0; i < minSetupReps; i++ {
		fp := floorplan.New(w.rows, w.cols)
		fp.CoreWidth, fp.CoreHeight = floorplan.DefaultCoreWidth, floorplan.DefaultCoreHeight
		s := r.tr.start(spanThermalNew, 0, 0)
		tm, err := thermal.New(fp, thermal.DefaultConfig())
		thermalS = append(thermalS, r.tr.finish(s))
		if err != nil {
			return fmt.Errorf("building thermal model: %w", err)
		}
		s = r.tr.start(spanVariation, 0, 0)
		gen, err := variation.NewGenerator(variation.DefaultModel(), fp)
		variationS = append(variationS, r.tr.finish(s))
		if err != nil {
			return fmt.Errorf("building variation generator: %w", err)
		}
		r.probe = &platformParts{tm: tm, gen: gen}
	}
	r.set("platform.thermal_s", median(thermalS), len(thermalS))
	r.set("platform.variation_s", median(variationS), len(variationS))
	return nil
}

// coldPlatform times one platform build on an empty artifact cache.
func coldPlatform(cfg hayat.Config) (time.Duration, error) {
	t0 := time.Now()
	if _, err := hayat.NewSystemWith(cfg, hayat.NewArtifactCache()); err != nil {
		return 0, fmt.Errorf("building platform: %w", err)
	}
	return time.Since(t0), nil
}

// platformParts is a platform built layer by layer in the traced run.
type platformParts struct {
	tm  *thermal.Model
	gen *variation.Generator
}

// probeArtifacts rebuilds a few of the timed chips' artifacts by direct
// calls, so the traced run can split the per-chip artifact time (which
// System.NewChip spends inside one call) into the variation draw, the
// thermal predictor and the aging table. It mirrors what NewChip does for
// the default "nbti" aging model.
func (w simWorkload) probeArtifacts(r *runner, seeds []int64) {
	pp := r.probe
	if pp == nil {
		return
	}
	var draw, pred, table []float64
	for _, seed := range seeds {
		s := r.tr.start(spanDraw, 0, 0)
		chip := pp.gen.Chip(seed)
		draw = append(draw, r.tr.finish(s))

		s = r.tr.start(spanPredictor, 0, 0)
		_, err := thermpredict.Learn(pp.tm, power.DefaultModel(), chip)
		pred = append(pred, r.tr.finish(s))
		if err != nil {
			r.fail(fmt.Errorf("learning predictor for chip %d: %w", seed, err))
		}

		s = r.tr.start(spanAgingTable, 0, 0)
		aging.DefaultTable(aging.NewCoreAging(aging.DefaultParams(), gates.Generate(gates.DefaultGenerateConfig(), seed)))
		table = append(table, r.tr.finish(s))
	}
	r.set("artifacts.draw_s", median(draw), len(draw))
	r.set("artifacts.predictor_s", median(pred), len(pred))
	r.set("artifacts.aging_table_s", median(table), len(table))
}

// job runs one chip under every policy and returns the job latency and
// the encoded results. Checks run after the clock stops.
func (w simWorkload) job(ctx context.Context, r *runner, cl *simClient, job, seed int64, log *outputLog) (time.Duration, [][]byte, error) {
	tr := r.tr
	begin := time.Now()
	js := tr.start(spanJob, 0, job)
	var outs [][]byte
	for _, p := range w.policies {
		var chip *hayat.Chip
		err := tr.within(spanChip, js.ID, job, func(int64) error {
			var err error
			chip, err = cl.sys[p].NewChip(seed)
			return err
		})
		if err != nil {
			return 0, nil, fmt.Errorf("building chip: %w", err)
		}
		var res *hayat.LifetimeResult
		err = tr.within(spanLifetime, js.ID, job, func(id int64) error {
			if sink := cl.sinks[p]; sink != nil {
				sink.parent.Store(id)
				sink.job.Store(job)
			}
			var err error
			res, err = chip.RunLifetimeContext(ctx, p)
			return err
		})
		if err != nil {
			return 0, nil, fmt.Errorf("%s lifetime: %w", p, err)
		}
		var buf bytes.Buffer
		if err := tr.within(spanEncode, js.ID, job, func(int64) error { return res.WriteJSON(&buf) }); err != nil {
			return 0, nil, fmt.Errorf("encoding %s result: %w", p, err)
		}
		outs = append(outs, buf.Bytes())
	}
	tr.finish(js)
	d := time.Since(begin)

	for k, p := range w.policies {
		rec, err := checkResult(outs[k], p.String(), seed, w.epochs())
		if err != nil {
			return 0, nil, fmt.Errorf("%s result: %w", p, err)
		}
		if log != nil && job > 0 {
			log.add(int(job-1), outs[k], rec)
		}
	}
	return d, outs, nil
}

// lifetime simulates and encodes one chip outside any measurement.
func (w simWorkload) lifetime(ctx context.Context, sys *hayat.System, seed int64, p hayat.Policy) ([]byte, error) {
	chip, err := sys.NewChip(seed)
	if err != nil {
		return nil, err
	}
	res, err := chip.RunLifetimeContext(ctx, p)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// simLayers maps each per-layer metric of a simulation job to the span
// name its self time is read from.
func simLayers() map[string]string {
	m := map[string]string{
		"artifacts.chip_s": spanChip,
		"lifetime.run_s":   spanLifetime,
		"encode_s":         spanEncode,
	}
	for _, p := range []hayat.Policy{hayat.PolicyHayat, hayat.PolicyVAA} {
		for _, st := range sim.Stages() {
			m["epoch."+st.String()+"_s."+policyLabel(p)] = "epoch." + st.String() + "." + policyLabel(p)
		}
	}
	return m
}

// policyLabel is the metric suffix for a policy.
func policyLabel(p hayat.Policy) string {
	if p == hayat.PolicyVAA {
		return "vaa"
	}
	return "hayat"
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
