package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span names. A span's name is the layer its self time is charged to.
const (
	spanJob        = "job"
	spanChip       = "artifacts.chip"
	spanDraw       = "artifacts.draw"
	spanPredictor  = "artifacts.predictor"
	spanAgingTable = "artifacts.aging_table"
	spanThermalNew = "platform.thermal"
	spanVariation  = "platform.variation"
	spanLifetime   = "lifetime.run"
	spanEncode     = "encode"
	spanHTTP       = "service.http"
	spanResult     = "service.result"
	spanProof      = "service.proof"
)

// span is one traced interval, in nanoseconds since the tracer started.
// Parent is 0 for a root span; Job is 0 for work outside any job.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Job    int64  `json:"job"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op and reads no clock.
type tracer struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span. The returned value is passed to finish.
func (t *tracer) start(name string, parent, job int64) span {
	if t == nil {
		return span{}
	}
	return span{ID: t.next.Add(1), Parent: parent, Job: job, Name: name, Start: int64(time.Since(t.t0))}
}

// finish closes and records a span opened by start, returning its
// duration in seconds.
func (t *tracer) finish(s span) float64 {
	if t == nil {
		return 0
	}
	s.End = int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return float64(s.End-s.Start) / 1e9
}

// record adds a span that ended now after lasting d (the shape in which
// the engine's stage observer reports epoch stages).
func (t *tracer) record(name string, parent, job int64, d time.Duration) {
	if t == nil {
		return
	}
	end := int64(time.Since(t.t0))
	s := span{ID: t.next.Add(1), Parent: parent, Job: job, Name: name, Start: end - int64(d), End: end}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// within runs fn inside a span and returns fn's error.
func (t *tracer) within(name string, parent, job int64, fn func(id int64) error) error {
	s := t.start(name, parent, job)
	err := fn(s.ID)
	t.finish(s)
	return err
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns every span's duration minus the part of its interval
// that its children cover, in seconds, keyed by span ID.
func selfTimes(spans []span) map[int64]float64 {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]float64, len(spans))
	for _, s := range spans {
		covered := coveredNanos(s, children[s.ID])
		self[s.ID] = float64(s.End-s.Start-covered) / 1e9
	}
	return self
}

// coveredNanos is the length of the union of the children's intervals,
// clipped to the parent's.
func coveredNanos(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		switch {
		case i == 0:
			curLo, curHi = v[0], v[1]
		case v[0] > curHi:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		case v[1] > curHi:
			curHi = v[1]
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return total
}

// jobProfile is the self time of each layer summed over a set of jobs.
type jobProfile struct {
	jobs     int
	jobTotal float64            // summed duration of the job spans
	self     map[string]float64 // layer → summed self seconds
	spans    int                // spans recorded inside those jobs
}

// profileJobs charges every span belonging to one of the given jobs to
// its layer. The job span's own self time is the share of job time no
// layer accounts for.
func profileJobs(spans []span, jobs map[int64]bool) jobProfile {
	self := selfTimes(spans)
	p := jobProfile{jobs: len(jobs), self: make(map[string]float64)}
	for _, s := range spans {
		if !jobs[s.Job] {
			continue
		}
		p.spans++
		p.self[s.Name] += self[s.ID]
		if s.Name == spanJob {
			p.jobTotal += float64(s.End-s.Start) / 1e9
		}
	}
	return p
}

// perJob is a layer's self time per job, in seconds.
func (p jobProfile) perJob(layer string) float64 {
	if p.jobs == 0 {
		return 0
	}
	return p.self[layer] / float64(p.jobs)
}

// unaccountedShare is the share of job time that no layer's span covers.
func (p jobProfile) unaccountedShare() float64 {
	if p.jobTotal == 0 {
		return 0
	}
	return p.self[spanJob] / p.jobTotal
}

// spanCost measures what recording one span costs on this host: two
// clock reads and an append under the lock, the work the traced run adds
// per span.
func spanCost() time.Duration {
	const n = 20000
	t := newTracer()
	begin := time.Now()
	for i := 0; i < n; i++ {
		t.finish(t.start("calibrate", 0, 0))
	}
	return time.Since(begin) / n
}

// writeSpans stores the run's spans as JSON under dir.
func writeSpans(dir, workload string, seed int64, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("creating trace dir: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	data, err := json.Marshal(spans)
	if err != nil {
		return "", fmt.Errorf("encoding spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("writing spans: %w", err)
	}
	return path, nil
}
