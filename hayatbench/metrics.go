package main

// metricDef is one reported metric. BENCHMARK.json at the repository
// root lists the same names, units and directions (a test keeps the two
// in step). A metric restricted to some workloads (on) reports 0 on the
// others, where its layer is not on the job path.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median a change may lose
	on     []string
}

var (
	simOnly     = []string{"paper-8x8", "manycore-16x16"}
	paperOnly   = []string{"paper-8x8"}
	serviceOnly = []string{"service-sweep", "cluster-r2"}
	clusterOnly = []string{"cluster-r2"}
)

// endToEnd are the metrics a user of the system sees, reported by the
// untraced run. Each is defined, and never 0, on every workload.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "jobs_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "job_s_p50", unit: "s", better: "lower", bound: 0.25},
	{name: "mem_peak_mb", unit: "MB", better: "lower", bound: 0.25},
}

// perLayer are the traced run's metrics. A time named *_s without a
// percentile is self time per timed job, except platform.* (median cold
// build), artifacts.{draw,predictor,aging_table}_s (median per chip) and
// service.{admission,queue_wait,setup,simulate,encode}_s (the service's
// own mean per observation, from its metrics snapshot).
var perLayer = []metricDef{
	{name: "job_s_p90", unit: "s", better: "lower", on: serviceOnly},
	{name: "hit_s_p50", unit: "s", better: "lower", on: serviceOnly},
	{name: "error_rate", unit: "share", better: "lower"},
	{name: "job.unaccounted_share", unit: "share", better: "lower"},
	{name: "trace.overhead_share", unit: "share", better: "lower"},
	{name: "platform.variation_s", unit: "s", better: "lower", on: simOnly},
	{name: "platform.thermal_s", unit: "s", better: "lower", on: simOnly},
	{name: "artifacts.chip_s", unit: "s", better: "lower", on: simOnly},
	{name: "artifacts.draw_s", unit: "s", better: "lower", on: simOnly},
	{name: "artifacts.predictor_s", unit: "s", better: "lower", on: simOnly},
	{name: "artifacts.aging_table_s", unit: "s", better: "lower", on: simOnly},
	{name: "artifacts.hit_ratio", unit: "share", better: "higher"},
	{name: "epoch.mapping_s.hayat", unit: "s", better: "lower"},
	{name: "epoch.mapping_s.vaa", unit: "s", better: "lower", on: paperOnly},
	{name: "epoch.thermal_s.hayat", unit: "s", better: "lower"},
	{name: "epoch.thermal_s.vaa", unit: "s", better: "lower", on: paperOnly},
	{name: "epoch.aging_s.hayat", unit: "s", better: "lower"},
	{name: "epoch.aging_s.vaa", unit: "s", better: "lower", on: paperOnly},
	{name: "lifetime.run_s", unit: "s", better: "lower", on: simOnly},
	{name: "encode_s", unit: "s", better: "lower", on: simOnly},
	{name: "service.http_s", unit: "s", better: "lower", on: serviceOnly},
	{name: "service.result_s", unit: "s", better: "lower", on: serviceOnly},
	{name: "service.proof_s", unit: "s", better: "lower", on: serviceOnly},
	{name: "service.admission_s", unit: "s", better: "lower", on: serviceOnly},
	{name: "service.queue_wait_s", unit: "s", better: "lower", on: serviceOnly},
	{name: "service.setup_s", unit: "s", better: "lower", on: serviceOnly},
	{name: "service.simulate_s", unit: "s", better: "lower", on: serviceOnly},
	{name: "service.encode_s", unit: "s", better: "lower", on: serviceOnly},
	{name: "service.cache_hit_ratio", unit: "share", better: "higher", on: serviceOnly},
	{name: "service.hit_share", unit: "share", better: "higher", on: serviceOnly},
	{name: "service.sim_runs", unit: "count", better: "lower", on: serviceOnly},
	{name: "service.coalesced", unit: "count", better: "higher", on: serviceOnly},
	{name: "cluster.forward_s", unit: "s", better: "lower", on: clusterOnly},
	{name: "cluster.forwards", unit: "count", better: "lower", on: clusterOnly},
	{name: "store.replica_puts", unit: "count", better: "lower", on: clusterOnly},
	{name: "store.replica_put_errors", unit: "count", better: "lower", on: clusterOnly},
	{name: "store.replication_debt_end", unit: "count", better: "lower", on: clusterOnly},
	{name: "runtime.alloc_mb_per_chip_year", unit: "MB/chip-year", better: "lower"},
	{name: "runtime.gc_cycles", unit: "count", better: "lower"},
	{name: "sim.dtm_events.hayat", unit: "count", better: "lower"},
	{name: "sim.dtm_events.vaa", unit: "count", better: "lower", on: paperOnly},
	{name: "sim.avg_fmax_ghz_final.hayat", unit: "GHz", better: "higher"},
	{name: "sim.avg_fmax_ghz_final.vaa", unit: "GHz", better: "higher", on: paperOnly},
	{name: "sim.lifetime_ext_years", unit: "years", better: "higher", on: paperOnly},
}

// appliesTo reports whether the metric is measured on the workload.
func (d metricDef) appliesTo(workload string) bool {
	if d.on == nil {
		return true
	}
	for _, w := range d.on {
		if w == workload {
			return true
		}
	}
	return false
}
