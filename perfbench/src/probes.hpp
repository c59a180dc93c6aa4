// Per-layer metrics of traced runs. Each workload fills what it can
// observe and reports zero for what it cannot (an ooc workload has no
// service phases, a service job's private runtime exposes no storage
// counters), so every traced run prints the same metric names.
#pragma once

#include <cstdint>

#include "common.hpp"
#include "host_speed.hpp"
#include "northup/core/runtime.hpp"
#include "northup/obs/event_log.hpp"
#include "northup/svc/job.hpp"
#include "northup/topo/tree.hpp"

namespace perfbench {

/// Counter deltas and gauges of one traced run.
struct LayerCounters {
  double data_moves = 0;
  double data_bytes_moved = 0;
  double memsim_read_bytes = 0;   ///< root node
  double memsim_write_bytes = 0;
  double memsim_reads = 0;
  double memsim_writes = 0;
  double cache_hits = 0;
  double cache_misses = 0;
  double cache_evictions = 0;
  double pool_high_water_mb = 0;  ///< staging level
  double core_spawns = 0;
  double resil_retries = 0;
  double resil_corruptions = 0;
  double sim_tasks = 0;
  double sim_makespan_s = 0;      ///< virtual EventSim seconds
  double obs_dropped = 0;
};
void add_layer_counters(const LayerCounters& c, Report& report);

/// The events of `run` that start and end between two EventLog
/// timestamps: one traced operation's share of a longer recording.
northup::obs::RecordedRun record_window(const northup::obs::RecordedRun& run,
                                        std::uint64_t from_ns,
                                        std::uint64_t to_ns);

/// Measured critical path of a flight recording, by phase (cp.*). The
/// phases are checked to sum to cp.length_s.
void add_critical_path_metrics(const northup::obs::RecordedRun& run,
                               Report& report);

/// What the svc-http phases observed (all zero for the ooc workloads).
struct ServiceMetrics {
  double queue_wait_p50_ms = 0;  ///< nominal phase, JobResult
  double queue_wait_p99_ms = 0;
  double exec_p50_ms = 0;
  double nominal_refused_share = 0;  ///< typed refusals in the nominal phase
  double shed_share = 0;         ///< overload phase, share of offered jobs
  double rate_limited_share = 0;
  double queue_full_share = 0;
  double infeasible_share = 0;
  double brownout_max = 0;
  double nominal_p50_ms = 0;     ///< due time -> Done, nominal phase
  double nominal_p99_ms = 0;
  double overload_goodput_per_s = 0;  ///< Done within deadline per second
  double overload_p99_ms = 0;    ///< due time -> Done, overload phase
  double post_p50_ms = 0;        ///< POST /jobs round trip, nominal phase
  double post_p99_ms = 0;
  double nominal_lag_p99_ms = 0;   ///< generator lateness per phase
  double overload_lag_p99_ms = 0;
};
void add_service_metrics(const ServiceMetrics& s, Report& report);

/// The raw latency quantiles behind the scaled end-to-end ones, and the
/// host-speed reference kernel's median time (bench.*).
void add_bench_metrics(double raw_p50_s, double raw_p90_s,
                       const HostSpeed& speed, Report& report);

/// The workload's shape, for the probes.
struct ProbeShape {
  northup::topo::TopoTree tree;        ///< the workload's machine
  northup::core::RuntimeOptions options;
  std::uint64_t chunk_bytes = 0;       ///< one level-1 chunk
  northup::svc::JobRequest job;        ///< a representative job
  std::uint64_t seed = 1;              ///< input seed of the run
};

/// Times calls into each layer's public functions at the workload's
/// shape (medians of repeated calls) and reports them.
void run_probes(const ProbeShape& shape, Report& report, Spans& spans);

/// Seconds one bench span costs to record (measured once per process).
double span_cost_s();

}  // namespace perfbench
