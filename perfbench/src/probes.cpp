// Layer probes: each times repeated calls into one layer's public API
// and reports the median, at the workload's shape where the layer has
// one (leaf blocks, level-1 chunk, the workload's tree and options).
#include "probes.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "http_client.hpp"
#include "northup/algos/gemm.hpp"
#include "northup/algos/hotspot.hpp"
#include "northup/analyze/analyze.hpp"
#include "northup/exec/task_graph.hpp"
#include "northup/http/control_plane.hpp"
#include "northup/http/server.hpp"
#include "northup/io/posix_file.hpp"
#include "northup/plan/feasibility.hpp"
#include "northup/sched/pool.hpp"
#include "northup/sim/event_sim.hpp"
#include "northup/svc/service.hpp"
#include "northup/util/crc32.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace nc = northup::core;
namespace nd = northup::data;
namespace nobs = northup::obs;

namespace {

/// Median seconds per call of `fn` (called `batch` times per sample),
/// sampling until `min_samples` samples and `budget_s` have elapsed.
double median_per_call(const std::function<void()>& fn, int batch = 1,
                       int min_samples = 7, double budget_s = 0.1) {
  fn();  // warm
  std::vector<double> samples;
  const auto start = Clock::now();
  while (static_cast<int>(samples.size()) < min_samples ||
         (seconds_since(start) < budget_s && samples.size() < 10000)) {
    const auto t0 = Clock::now();
    for (int i = 0; i < batch; ++i) fn();
    samples.push_back(seconds_since(t0) / batch);
  }
  return quantile(samples, 0.5);
}

/// xorshift64: deterministic probe inputs.
std::uint64_t next_random(std::uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

/// Median of `samples` timed batches, each returning seconds per call;
/// for probes whose state must be rebuilt between batches.
constexpr int kBatch = 1000;
double median_of_batches(const std::function<double()>& batch,
                         int samples = 31) {
  std::vector<double> per_call;
  for (int i = 0; i < samples; ++i) per_call.push_back(batch());
  return quantile(per_call, 0.5);
}

std::vector<std::byte> random_bytes(std::size_t size) {
  std::vector<std::byte> out(size);
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (auto& b : out) b = static_cast<std::byte>(next_random(x));
  return out;
}

/// Floats in [0, 1) as bytes: kernel inputs must not be denormal or NaN,
/// which random bit patterns often are.
std::vector<std::byte> random_floats(std::size_t count) {
  std::vector<float> values(count);
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (float& v : values) {
    v = static_cast<float>(next_random(x) >> 40) / static_cast<float>(1 << 24);
  }
  std::vector<std::byte> out(count * sizeof(float));
  std::memcpy(out.data(), values.data(), out.size());
  return out;
}

/// A runtime like the workload's with room at every level, for probes
/// that need whole blocks resident at one node.
nc::Runtime roomy_runtime(nt::PresetOptions machine, nm::StorageKind kind) {
  machine.staging_capacity = 64ULL << 20;
  machine.device_capacity = 64ULL << 20;
  return nc::Runtime(nt::dgpu_three_level(kind, machine));
}

double gemm_leaf_gflops(Spans& spans) {
  Spans::Scope span(spans, "probe.device.gemm_leaf");
  const nt::PresetOptions m = gemm_machine();
  const std::uint64_t l1 = gemm_block();
  const std::uint64_t leaf =
      na::choose_gemm_block(l1, 16, m.device_capacity, true, 0.85);
  nc::Runtime rt = roomy_runtime(m, nm::StorageKind::Ssd);
  const nt::NodeId gpu = na::gpu_node(rt);
  const std::uint64_t bytes = leaf * leaf * 4;
  nd::Buffer a = rt.dm().alloc(bytes, gpu);
  nd::Buffer b = rt.dm().alloc(bytes, gpu);
  nd::Buffer c = rt.dm().alloc(bytes, gpu);
  const auto data = random_floats(leaf * leaf);
  rt.dm().write_from_host(a, data.data(), bytes);
  rt.dm().write_from_host(b, data.data(), bytes);
  rt.dm().fill(c, std::byte{0}, bytes);
  const double s = median_per_call(
      [&] {
        rt.run_from(gpu, [&](nc::ExecContext& ctx) {
          na::gemm_leaf(ctx, {&a, 0, leaf * 4}, {&b, 0, leaf * 4},
                        {&c, 0, leaf * 4}, leaf, leaf, leaf, 16);
        });
      },
      1, 5, 0.3);
  for (nd::Buffer* buf : {&a, &b, &c}) rt.dm().release(*buf);
  std::printf("probe gemm_leaf: %llu^3 block, %.3f ms/call\n",
              static_cast<unsigned long long>(leaf), s * 1e3);
  return 2.0 * std::pow(static_cast<double>(leaf), 3) / s / 1e9;
}

double hotspot_leaf_gbps(Spans& spans) {
  Spans::Scope span(spans, "probe.device.hotspot_leaf");
  const nt::PresetOptions m = hotspot_machine();
  const std::uint64_t l1 = hotspot_block();
  const std::uint64_t leaf =
      na::choose_hotspot_block(l1, 16, m.device_capacity, 0.85);
  nc::Runtime rt = roomy_runtime(m, nm::StorageKind::Hdd);
  const nt::NodeId gpu = na::gpu_node(rt);
  const std::uint64_t bytes = leaf * leaf * 4;
  nd::Buffer tin = rt.dm().alloc(bytes, gpu);
  nd::Buffer pw = rt.dm().alloc(bytes, gpu);
  nd::Buffer tout = rt.dm().alloc(bytes, gpu);
  nd::Buffer halo = rt.dm().alloc(4 * leaf * 4, gpu);
  const auto data = random_floats(leaf * leaf);
  rt.dm().write_from_host(tin, data.data(), bytes);
  rt.dm().write_from_host(pw, data.data(), bytes);
  rt.dm().write_from_host(halo, data.data(), 4 * leaf * 4);
  const na::HotspotConfig config = hotspot_config(1, false);
  const na::StencilBlock block{&tin, &pw, &halo, &tout, leaf};
  const double s = median_per_call(
      [&] {
        rt.run_from(gpu, [&](nc::ExecContext& ctx) {
          na::hotspot_recurse(ctx, block, config);
        });
      },
      1, 5, 0.3);
  for (nd::Buffer* buf : {&tin, &pw, &tout, &halo}) rt.dm().release(*buf);
  std::printf("probe hotspot_leaf: %llu^2 block, %.3f ms/call\n",
              static_cast<unsigned long long>(leaf), s * 1e3);
  return 3.0 * static_cast<double>(bytes) / s / 1e9;  // in, power, out
}

double crc32_gbps(std::uint64_t chunk, Spans& spans) {
  Spans::Scope span(spans, "probe.util.crc32");
  const auto data = random_bytes(chunk);
  std::uint32_t sink = 0;
  const double s = median_per_call(
      [&] { sink ^= northup::util::crc32(data.data(), data.size()); }, 4);
  if (sink == 0x12345678u) std::printf(" ");  // keep the result live
  return static_cast<double>(chunk) / s / 1e9;
}

/// DRAM->DRAM 4 KiB move_data, and root<->staging chunk moves, on a
/// runtime built like the workload's.
void data_probes(const ProbeShape& shape, Report& report, Spans& spans) {
  Spans::Scope span(spans, "probe.data");
  nc::Runtime rt(shape.tree, shape.options);
  const nt::NodeId root = rt.tree().root();
  const nt::NodeId staging = rt.tree().get_children_list(root)[0];
  auto& dm = rt.dm();

  nd::Buffer a = dm.alloc(4096, staging);
  nd::Buffer b = dm.alloc(4096, staging);
  const double move_s =
      median_per_call([&] { dm.move_data(b, a, {.size = 4096}); }, 200);
  dm.release(a);
  dm.release(b);

  const std::uint64_t chunk = shape.chunk_bytes;
  constexpr std::uint64_t kSlots = 8;
  nd::Buffer file = dm.alloc(chunk * kSlots, root);
  nd::Buffer stage = dm.alloc(chunk, staging);
  const auto data = random_bytes(chunk * kSlots);
  dm.write_from_host(file, data.data(), chunk * kSlots);
  std::uint64_t slot = 0;
  const double down_s = median_per_call([&] {
    dm.move_data_down(stage, file, {.size = chunk, .src_offset = (slot++ % kSlots) * chunk});
  });
  const double up_s = median_per_call([&] {
    dm.move_data_up(file, stage, {.size = chunk, .dst_offset = (slot++ % kSlots) * chunk});
  });
  dm.release(stage);
  dm.release(file);

  report.metric("data.move_4k_us", move_s * 1e6, "us");
  report.metric("data.down_gbps", static_cast<double>(chunk) / down_s / 1e9, "GB/s");
  report.metric("data.up_gbps", static_cast<double>(chunk) / up_s / 1e9, "GB/s");
}

/// PosixFile pread/pwrite at the chunk size (page-cache resident).
void io_probes(std::uint64_t chunk, Report& report, Spans& spans) {
  Spans::Scope span(spans, "probe.io");
  northup::io::TempDir dir("perfbench-io");
  northup::io::PosixFile file(dir.file("probe.bin"));
  constexpr std::uint64_t kSlots = 8;
  const auto data = random_bytes(chunk);
  std::vector<std::byte> back(chunk);
  for (std::uint64_t i = 0; i < kSlots; ++i) file.pwrite_exact(data.data(), chunk, i * chunk);
  std::uint64_t slot = 0;
  const double write_s = median_per_call(
      [&] { file.pwrite_exact(data.data(), chunk, (slot++ % kSlots) * chunk); });
  const double read_s = median_per_call(
      [&] { file.pread_exact(back.data(), chunk, (slot++ % kSlots) * chunk); });
  file.close();
  report.metric("io.pread_gbps", static_cast<double>(chunk) / read_s / 1e9, "GB/s");
  report.metric("io.pwrite_gbps", static_cast<double>(chunk) / write_s / 1e9, "GB/s");
}

/// Runtime construction on the workload's tree; teardown is not timed.
double runtime_new_s(const ProbeShape& shape, Spans& spans) {
  Spans::Scope span(spans, "probe.core.runtime_new");
  std::vector<double> samples;
  for (int i = 0; i < 9; ++i) {
    const auto t0 = Clock::now();
    auto rt = std::make_unique<nc::Runtime>(shape.tree, shape.options);
    samples.push_back(seconds_since(t0));
  }
  return quantile(samples, 0.5);
}

/// WorkStealingPool submit -> task start, workers idle between tasks.
double pool_submit_s(Spans& spans) {
  Spans::Scope span(spans, "probe.sched.submit");
  northup::sched::WorkStealingPool pool(2);
  std::vector<double> samples;
  for (int i = 0; i < 400; ++i) {
    std::atomic<bool> started{false};
    Clock::time_point start_time;
    const auto t0 = Clock::now();
    pool.submit([&] {
      start_time = Clock::now();
      started.store(true, std::memory_order_release);
    });
    while (!started.load(std::memory_order_acquire)) std::this_thread::yield();
    samples.push_back(seconds_between(t0, start_time));
    pool.wait_idle();
  }
  return quantile(samples, 0.5);
}

/// try_submit on an idle service and GET /healthz on an idle server,
/// over the svc-http workload's service configuration.
void service_probes(std::uint64_t seed, Report& report, Spans& spans) {
  Spans::Scope span(spans, "probe.svc");
  nsv::JobService service(service_options(mean_job_bytes(seed)));
  std::vector<double> submit;
  for (int i = 0; i < 30; ++i) {
    const nsv::JobRequest request = svc_request(i, seed, 0.0);
    const auto t0 = Clock::now();
    nsv::JobHandle handle = service.try_submit(request);
    submit.push_back(seconds_since(t0));
    handle.wait();
  }

  northup::http::HttpServer server({}, &service.metrics());
  northup::http::ControlPlane plane(service, nullptr);
  plane.mount(server);
  server.start();
  double healthz_s = 0.0;
  {
    HttpClient client(server.port(), server.options().max_keepalive_requests);
    std::string body;
    healthz_s = median_per_call([&] {
      if (client.request("GET", "/healthz", "", body) != 200) {
        report.check(false, "GET /healthz did not return 200");
      }
    });
  }
  server.stop();
  report.metric("svc.try_submit_us", quantile(submit, 0.5) * 1e6, "us");
  report.metric("http.healthz_us", healthz_s * 1e6, "us");
}

}  // namespace

double span_cost_s() {
  static const double cost = [] {
    Spans spans(true);
    const auto t0 = Clock::now();
    constexpr int kSpans = 20000;
    for (int i = 0; i < kSpans; ++i) spans.close(spans.open("probe"));
    return seconds_since(t0) / kSpans;
  }();
  return cost;
}

void add_layer_counters(const LayerCounters& c, Report& report) {
  report.metric("data.moves", c.data_moves, "count");
  report.metric("data.bytes_moved", c.data_bytes_moved, "B");
  report.metric("memsim.read_bytes", c.memsim_read_bytes, "B");
  report.metric("memsim.write_bytes", c.memsim_write_bytes, "B");
  report.metric("memsim.reads", c.memsim_reads, "count");
  report.metric("memsim.writes", c.memsim_writes, "count");
  const double lookups = c.cache_hits + c.cache_misses;
  report.metric("cache.hit_rate", lookups > 0 ? c.cache_hits / lookups : 0.0, "ratio");
  report.metric("cache.hits", c.cache_hits, "count");
  report.metric("cache.misses", c.cache_misses, "count");
  report.metric("cache.evictions", c.cache_evictions, "count");
  report.metric("pool.high_water_mb", c.pool_high_water_mb, "MB");
  report.metric("core.spawns", c.core_spawns, "count");
  report.metric("resil.retries", c.resil_retries, "count");
  report.metric("resil.corruptions", c.resil_corruptions, "count");
  report.metric("sim.tasks", c.sim_tasks, "count");
  report.metric("sim.makespan_s", c.sim_makespan_s, "virtual_s");
  report.metric("obs.dropped", c.obs_dropped, "count");
  report.check(c.resil_corruptions == 0, "data-plane corruptions detected");
  report.check(c.obs_dropped == 0, "flight recorder dropped events");
}

nobs::RecordedRun record_window(const nobs::RecordedRun& run,
                                std::uint64_t from_ns, std::uint64_t to_ns) {
  nobs::RecordedRun out = run;
  out.events.clear();
  for (const nobs::Event& e : run.events) {
    if (e.ts_ns >= from_ns && e.ts_ns + e.dur_ns <= to_ns) out.events.push_back(e);
  }
  return out;
}

void add_critical_path_metrics(const nobs::RecordedRun& run, Report& report) {
  const northup::analyze::CriticalPath cp =
      northup::analyze::measured_critical_path(run);
  // A fixed phase set; whatever else the analyzer attributes lands in
  // cp.other_s, so the printed phases always sum to cp.length_s.
  static const char* const kPhases[] = {"gpu", "cpu",     "transfer", "io",
                                        "job", "runtime", "idle"};
  double named = 0.0;
  for (const char* phase : kPhases) {
    const auto it = cp.phase_seconds.find(phase);
    const double s = it != cp.phase_seconds.end() ? it->second : 0.0;
    named += s;
    report.metric(std::string("cp.") + phase + "_s", s, "s");
  }
  double total = 0.0;
  std::printf("critical path %.6f s:", cp.length_s);
  for (const auto& [phase, s] : cp.phase_seconds) {
    total += s;
    std::printf(" %s=%.6f", phase.c_str(), s);
  }
  std::printf("\n");
  report.metric("cp.other_s", total - named, "s");
  report.metric("cp.length_s", cp.length_s, "s");
  report.check(std::abs(total - cp.length_s) <= 1e-9 * (1.0 + cp.length_s),
               "critical-path phases do not sum to cp.length_s");
}

void add_service_metrics(const ServiceMetrics& s, Report& report) {
  report.metric("svc.queue_wait_p50_ms", s.queue_wait_p50_ms, "ms");
  report.metric("svc.queue_wait_p99_ms", s.queue_wait_p99_ms, "ms");
  report.metric("svc.exec_p50_ms", s.exec_p50_ms, "ms");
  report.metric("svc.nominal_refused", s.nominal_refused_share, "ratio");
  report.metric("svc.shed", s.shed_share, "ratio");
  report.metric("svc.rate_limited", s.rate_limited_share, "ratio");
  report.metric("svc.queue_full", s.queue_full_share, "ratio");
  report.metric("svc.infeasible", s.infeasible_share, "ratio");
  report.metric("svc.brownout_max", s.brownout_max, "level");
  report.metric("svc.nominal_p50_ms", s.nominal_p50_ms, "ms");
  report.metric("svc.nominal_p99_ms", s.nominal_p99_ms, "ms");
  report.metric("svc.overload_goodput_per_s", s.overload_goodput_per_s, "1/s");
  report.metric("svc.overload_p99_ms", s.overload_p99_ms, "ms");
  report.metric("http.post_p50_ms", s.post_p50_ms, "ms");
  report.metric("http.post_p99_ms", s.post_p99_ms, "ms");
  report.metric("gen.nominal_lag_p99_ms", s.nominal_lag_p99_ms, "ms");
  report.metric("gen.overload_lag_p99_ms", s.overload_lag_p99_ms, "ms");
}

void add_bench_metrics(double raw_p50_s, double raw_p90_s,
                       const HostSpeed& speed, Report& report) {
  report.metric("bench.raw_p50_ms", raw_p50_s * 1e3, "ms");
  report.metric("bench.raw_p90_ms", raw_p90_s * 1e3, "ms");
  report.metric("bench.reference_ms", speed.median_s() * 1e3, "ms");
}

void run_probes(const ProbeShape& shape, Report& report, Spans& spans) {
  report.metric("device.gemm_leaf_gflops", gemm_leaf_gflops(spans), "GFLOP/s");
  report.metric("device.hotspot_leaf_gbps", hotspot_leaf_gbps(spans), "GB/s");
  report.metric("util.crc32_gbps", crc32_gbps(shape.chunk_bytes, spans), "GB/s");
  data_probes(shape, report, spans);
  io_probes(shape.chunk_bytes, report, spans);
  report.metric("core.runtime_new_ms", runtime_new_s(shape, spans) * 1e3, "ms");

  {
    Spans::Scope span(spans, "probe.exec.node");
    // A fresh graph per sample keeps the node store small.
    const double s = median_of_batches([] {
      northup::exec::TaskGraph graph;  // inline mode, as RuntimeOptions defaults
      const auto t0 = Clock::now();
      for (int i = 0; i < kBatch; ++i) {
        graph.wait(graph.add([](northup::exec::RunStatus) {}));
      }
      return seconds_since(t0) / kBatch;
    });
    report.metric("exec.node_us", s * 1e6, "us");
  }
  report.metric("sched.submit_us", pool_submit_s(spans) * 1e6, "us");
  {
    Spans::Scope span(spans, "probe.sim.add_task");
    // Chains of (read, kernel) task pairs on a fresh simulator per sample.
    const double s = median_of_batches([] {
      northup::sim::EventSim sim;
      const auto io = sim.add_resource("io");
      const auto gpu = sim.add_resource("gpu");
      northup::sim::TaskId prev = northup::sim::kInvalidTask;
      const auto t0 = Clock::now();
      for (int i = 0; i < kBatch; ++i) {
        const auto read = sim.add_task("r", "io", io, 1e-3);
        std::vector<northup::sim::TaskId> deps{read};
        if (prev != northup::sim::kInvalidTask) deps.push_back(prev);
        prev = sim.add_task("k", "gpu", gpu, 1e-3, deps);
      }
      return seconds_since(t0) / (2 * kBatch);
    });
    report.metric("sim.add_task_ns", s * 1e9, "ns");
  }
  {
    Spans::Scope span(spans, "probe.obs.record");
    nobs::EventLog log(std::size_t{1} << 12);
    nobs::Event e;
    e.kind = nobs::EventKind::kInstant;
    const double s = median_per_call([&] { log.record(e); }, 1000);
    report.metric("obs.record_ns", s * 1e9, "ns");
  }
  {
    Spans::Scope span(spans, "probe.plan.feasibility");
    const auto estimator =
        northup::plan::FeasibilityEstimator::from_tree(shape.tree);
    const northup::plan::WorkEstimate work = nsv::work_estimate(shape.job);
    bool sink = false;
    const double s = median_per_call(
        [&] { sink ^= estimator.feasible(work, kJobDeadlineS, 1.0, 0.01); }, 100);
    if (sink) std::fflush(stdout);
    report.metric("plan.feasibility_us", s * 1e6, "us");
  }
  service_probes(shape.seed, report, spans);
}

}  // namespace perfbench
