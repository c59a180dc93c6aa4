// ooc-gemm and ooc-hotspot: closed-loop Plan::run on one Runtime, one run
// at a time, on the out-of-core discrete-GPU machines.
//
//   set-up   kSetups times: construct a Runtime (fresh temp root files)
//            and run the plan once, cold. setup_s is the median of
//            construction + cold run; the last runtime is kept.
//   timed    Plan::run back to back for --seconds (at least kMinRuns),
//            each followed by a HostSpeed reference kernel of the
//            workload's kind (tile multiply for GEMM, stream for
//            HotSpot). latency_p50_norm_ms / latency_p90_norm_ms are the
//            run's quantiles times HostSpeed::scale(). Each set-up and
//            timed run starts on the next CPU in turn (CpuRotation).
//   traced   (--trace 1) the same loop with bench spans and a larger
//            flight recorder; the last run's counter deltas and EventLog
//            window give the per-layer metrics, then the layer probes run.
//
// Every run is checked: the plan's own verification (GEMM samples C
// against exact dot products; HotSpot compares the full grid with a host
// reference on the set-up runs) and the result hash against the known
// answer for the seed, or against the first run's hash when the seed has
// none. A mismatch or a throw counts as a failed operation.
#include <cinttypes>
#include <map>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>

#include "host_speed.hpp"
#include "northup/algos/plan.hpp"
#include "northup/core/runtime.hpp"
#include "probes.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace nc = northup::core;
namespace nobs = northup::obs;

namespace {

constexpr int kSetups = 5;
constexpr std::size_t kMinRuns = 3;
/// Flight-recorder ring per thread in traced runs (64 B events): large
/// enough that a whole traced loop records without dropping.
constexpr std::size_t kTraceEventCapacity = std::size_t{1} << 18;

struct OocWorkload {
  bool hotspot = false;
  nt::PresetOptions machine;
  nm::StorageKind kind = nm::StorageKind::Ssd;
  std::uint64_t seed = 0;

  nt::TopoTree tree() const { return nt::dgpu_three_level(kind, machine); }

  /// RuntimeOptions defaults (inline execution, shard cache, recorder),
  /// plus end-to-end checksums on HotSpot.
  nc::RuntimeOptions options(bool trace) const {
    nc::RuntimeOptions o;
    o.resilience.verify_checksums = hotspot;
    if (trace) o.event_log_capacity = kTraceEventCapacity;
    return o;
  }

  std::unique_ptr<na::Plan> plan(bool setup_run) const {
    if (hotspot) return na::make_plan(hotspot_config(seed, setup_run));
    return na::make_plan(gemm_config(seed));
  }
};

/// Runs the plan once and checks its result. Returns false on failure.
bool checked_run(const na::Plan& plan, nc::Runtime& rt,
                 std::uint64_t& expected_hash, Report& report,
                 na::RunStats* out = nullptr) {
  report.attempt();
  na::RunStats stats;
  try {
    stats = plan.run(rt);
  } catch (const std::exception& e) {
    report.fail(plan.name() + " threw: " + e.what());
    return false;
  }
  if (out) *out = stats;
  if (!stats.verified) {
    report.fail(plan.name() + " failed verification (max rel err " +
                std::to_string(stats.max_rel_err) + ")");
    return false;
  }
  if (expected_hash == 0) expected_hash = stats.result_hash;
  if (stats.result_hash != expected_hash) {
    char msg[128];
    std::snprintf(msg, sizeof msg,
                  " result hash 0x%08" PRIx64 " != expected 0x%08" PRIx64,
                  stats.result_hash, expected_hash);
    report.fail(plan.name() + msg);
    return false;
  }
  return true;
}

}  // namespace

void run_ooc(const Args& args, Report& report, Spans& spans) {
  OocWorkload w;
  w.hotspot = args.workload == "ooc-hotspot";
  w.machine = w.hotspot ? hotspot_machine() : gemm_machine();
  w.kind = w.hotspot ? nm::StorageKind::Hdd : nm::StorageKind::Ssd;
  w.seed = args.seed;

  std::uint64_t expected = 0;
  if (!args.expect_hash.empty()) {
    expected = std::stoull(args.expect_hash, nullptr, 16);
  } else if (const auto known = known_answer(args.seed)) {
    expected = w.hotspot ? known->hotspot : known->gemm;
  }

  const auto setup_plan = w.plan(/*setup_run=*/true);
  const auto timed_plan = w.plan(/*setup_run=*/false);

  // Set-up: construction plus the cold first run, several times.
  std::optional<CpuRotation> cpus(std::in_place);
  std::vector<double> setup_s;
  std::unique_ptr<nc::Runtime> rt;
  for (int i = 0; i < kSetups; ++i) {
    rt.reset();  // the previous runtime's teardown is not set-up time
    cpus->next();
    const auto t0 = Clock::now();
    const Spans::Id span = spans.open("setup", Spans::kNone, i + 1);
    {
      Spans::Scope ctor(spans, "core.runtime_new", span, i + 1);
      rt = std::make_unique<nc::Runtime>(w.tree(), w.options(args.trace));
    }
    {
      Spans::Scope run(spans, "algos.plan_run", span, i + 1);
      checked_run(*setup_plan, *rt, expected, report);
    }
    spans.close(span);
    setup_s.push_back(seconds_since(t0));
  }

  // Timed loop. In traced runs the last iteration is bracketed by counter
  // snapshots and EventLog timestamps.
  nobs::EventLog* elog = rt->event_log();
  std::vector<double> latency_s;
  std::uint64_t ok_runs = 0;
  na::RunStats last;
  std::map<std::string, std::uint64_t> before;
  std::uint64_t bytes_before = 0;
  std::uint64_t window_from = 0;
  std::uint64_t window_to = 0;
  // The reference kernel runs after each plan run, on the same CPU.
  HostSpeed speed(w.hotspot ? HostSpeed::Kernel::kStream
                            : HostSpeed::Kernel::kTileMultiply);
  const auto loop0 = Clock::now();
  while (latency_s.size() < kMinRuns || seconds_since(loop0) < args.seconds) {
    if (args.trace) {
      before = rt->metrics().counter_values();
      bytes_before = rt->dm().bytes_moved();
      window_from = elog ? elog->now_ns() : 0;
    }
    cpus->next();
    const std::uint64_t request = kSetups + latency_s.size() + 1;
    const auto t0 = Clock::now();
    bool ok = false;
    {
      Spans::Scope run(spans, "algos.plan_run", Spans::kNone, request);
      ok = checked_run(*timed_plan, *rt, expected, report, &last);
    }
    latency_s.push_back(seconds_since(t0));
    if (ok) ++ok_runs;
    if (args.trace) window_to = elog ? elog->now_ns() : 0;
    speed.sample();
  }
  const double loop_s = seconds_since(loop0);
  cpus.reset();  // the probes run wherever the scheduler puts them

  std::printf("%s: seed %" PRIu64 ", %zu timed runs (%" PRIu64
              " correct) in %.3f s, hash 0x%08" PRIx64 "%s\n",
              args.workload.c_str(), args.seed, latency_s.size(), ok_runs,
              loop_s, expected, known_answer(args.seed) ? " (known answer)" : "");
  const double p50_ms = quantile(latency_s, 0.5) * 1e3;
  const double p90_ms = quantile(latency_s, 0.9) * 1e3;
  std::printf("%s: raw latency p50 %.3f ms, p90 %.3f ms; reference kernel "
              "%.4f ms (scale %.4f)\n",
              args.workload.c_str(), p50_ms, p90_ms, speed.median_s() * 1e3,
              speed.scale());

  if (!args.trace) {
    report.metric("latency_p50_norm_ms", p50_ms * speed.scale(), "ms");
    report.metric("latency_p90_norm_ms", p90_ms * speed.scale(), "ms");
    report.metric("setup_s", quantile(setup_s, 0.5), "s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  // --- Per-layer metrics of the last traced run. ---
  const auto after = rt->metrics().counter_values();
  auto delta = [&](const std::string& prefix) {
    std::uint64_t d = 0;
    for (const auto& [name, v] : after) {
      if (name.compare(0, prefix.size(), prefix) != 0) continue;
      const auto it = before.find(name);
      d += v - (it != before.end() ? it->second : 0);
    }
    return static_cast<double>(d);
  };
  const northup::mem::StorageStats root =
      rt->dm().storage(rt->tree().root()).stats();

  LayerCounters c;
  c.data_moves = delta("dm.moves");
  c.data_bytes_moved =
      static_cast<double>(rt->dm().bytes_moved() - bytes_before);
  c.memsim_read_bytes = static_cast<double>(root.bytes_read);
  c.memsim_write_bytes = static_cast<double>(root.bytes_written);
  c.memsim_reads = static_cast<double>(root.num_reads);
  c.memsim_writes = static_cast<double>(root.num_writes);
  c.cache_hits = delta("cache.hits.");
  c.cache_misses = delta("cache.misses.");
  c.cache_evictions = delta("cache.evictions.");
  const nt::NodeId staging = rt->tree().get_children_list(rt->tree().root())[0];
  if (auto* pool = rt->pool_at(staging)) {
    c.pool_high_water_mb = static_cast<double>(pool->high_water()) / (1 << 20);
  }
  c.core_spawns = delta("runtime.spawns");
  c.resil_retries = delta("resil.retries.");
  c.resil_corruptions = delta("resil.corruption.detected");
  c.sim_tasks = rt->event_sim()
                    ? static_cast<double>(rt->event_sim()->task_count())
                    : 0.0;
  c.sim_makespan_s = last.makespan;
  c.obs_dropped = elog ? static_cast<double>(elog->dropped()) : 0.0;
  add_layer_counters(c, report);

  if (elog) {
    add_critical_path_metrics(record_window(elog->snapshot(), window_from, window_to),
                              report);
  }

  ProbeShape shape;
  shape.tree = w.tree();
  shape.options = w.options(false);
  const std::uint64_t block = w.hotspot ? hotspot_block() : gemm_block();
  shape.chunk_bytes = block * block * 4;
  if (w.hotspot) {
    shape.job.config = hotspot_config(args.seed, false);
  } else {
    shape.job.config = gemm_config(args.seed);
  }
  shape.seed = args.seed;
  run_probes(shape, report, spans);

  report.metric("trace.overhead",
                spans.size() * span_cost_s() / loop_s, "ratio");
  report.metric("proc.cpu_s", process_cpu_s(), "s");
  add_bench_metrics(p50_ms * 1e-3, p90_ms * 1e-3, speed, report);
  add_service_metrics({}, report);
}

}  // namespace perfbench
