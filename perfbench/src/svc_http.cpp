// svc-http: the job service behind the HTTP control plane, in-process,
// wired as tools/northup-serve wires it (JobService + MetricsSampler +
// HttpServer + ControlPlane), driven open-loop over one keep-alive
// loopback connection.
//
// BENCHMARK.json does not list this workload, so the gated runs never
// execute it: on a shared 4-vCPU host its latencies swing with the host's
// load by more than a regression bound from run to run (per-job fixed
// costs of about 2 ms, and queueing at the nominal rate, multiply every
// slowdown of the CPUs). Run it by name for the service and HTTP layers'
// figures, untraced or traced.
//
//   set-up    kSetups times: start the service and server, then POST one
//             job of each kind and wait for it (the cold first jobs, and
//             the run's reference hashes). setup_s is the median.
//   nominal   Poisson POST /jobs at kNominalRate for half of --seconds.
//   overload  Poisson POST /jobs at kOverloadRate for the other half.
//
// Two load-generator threads: the generator sleeps until each job's due time,
// POSTs it, and keeps the JobHandle the moment the response names the job
// id (terminal jobs past ServiceOptions::max_finished_jobs are evicted
// from the registry, so a late lookup would miss). The observer polls
// every outstanding handle and stamps the time it first sees it terminal,
// so one slow job never delays the observation of later ones. Latency
// runs from the job's due time, so generator stalls count against it.
#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <deque>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "host_speed.hpp"
#include "http_client.hpp"
#include "northup/analyze/analyze.hpp"
#include "northup/http/control_plane.hpp"
#include "northup/http/server.hpp"
#include "northup/obs/sampler.hpp"
#include "northup/util/json.hpp"
#include "northup/util/rng.hpp"
#include "probes.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace nh = northup::http;
namespace nobs = northup::obs;
namespace nuj = northup::util::json;

namespace {

constexpr int kSetups = 5;
constexpr double kInf = std::numeric_limits<double>::infinity();
/// A phase whose generator ran later than this at p99 did not offer its
/// nominal rate; it is reported as invalid.
constexpr double kMaxGeneratorLagS = 0.05;
/// How often the generator times the host-speed reference kernel.
constexpr double kSpeedSampleS = 0.1;
/// Generous bound on draining a phase's admitted jobs.
constexpr double kDrainTimeoutS = 60.0;

/// The POST /jobs body for `request` (the same fields parse_job_request
/// reads back, so the HTTP job equals the in-process request).
std::string job_spec(const nsv::JobRequest& request) {
  char config[256];
  const char* kind = "gemm";
  if (const auto* g = std::get_if<na::GemmConfig>(&request.config)) {
    std::snprintf(config, sizeof config,
                  "{\"n\": %" PRIu64 ", \"verify_samples\": %" PRIu64
                  ", \"seed\": %" PRIu64 "}",
                  g->n, g->verify_samples, g->seed);
  } else if (const auto* h = std::get_if<na::HotspotConfig>(&request.config)) {
    kind = "hotspot";
    std::snprintf(config, sizeof config,
                  "{\"n\": %" PRIu64 ", \"iterations\": %" PRIu64
                  ", \"verify\": %s, \"seed\": %" PRIu64 "}",
                  h->n, h->iterations, h->verify ? "true" : "false", h->seed);
  } else {
    const auto& s = std::get<na::SpmvConfig>(request.config);
    kind = "spmv";
    std::snprintf(config, sizeof config,
                  "{\"rows\": %u, \"avg_nnz\": %u, \"verify\": %s, "
                  "\"seed\": %" PRIu64 "}",
                  s.rows, s.avg_nnz, s.verify ? "true" : "false", s.seed);
  }
  char spec[768];
  std::snprintf(spec, sizeof spec,
                "{\"kind\": \"%s\", \"tenant\": \"%s\", \"weight\": %g, "
                "\"deadline_s\": %g, \"footprint\": {\"root_bytes\": %" PRIu64
                ", \"staging_bytes\": %" PRIu64 ", \"device_bytes\": %" PRIu64
                "}, \"config\": %s}",
                kind, request.tenant.c_str(), request.weight,
                request.deadline_s, request.footprint.root_bytes,
                request.footprint.staging_bytes,
                request.footprint.device_bytes, config);
  return spec;
}

/// Service + sampler + server + control plane, started. Members are
/// destroyed in reverse order: the server stops before the plane and the
/// service it calls into go away.
struct Rig {
  std::unique_ptr<nsv::JobService> service;
  std::unique_ptr<nobs::MetricsSampler> sampler;
  std::unique_ptr<nh::ControlPlane> plane;
  std::unique_ptr<nh::HttpServer> server;

  Rig(const nsv::ServiceOptions& options, Spans& spans, Spans::Id parent) {
    {
      Spans::Scope s(spans, "svc.service_new", parent);
      service = std::make_unique<nsv::JobService>(options);
    }
    Spans::Scope s(spans, "http.server_start", parent);
    sampler = std::make_unique<nobs::MetricsSampler>(
        service->metrics(), std::chrono::milliseconds(250), 2048,
        /*include_counters=*/true);
    sampler->start();
    server = std::make_unique<nh::HttpServer>(nh::ServerOptions{},
                                              &service->metrics());
    plane = std::make_unique<nh::ControlPlane>(*service, sampler.get());
    plane->mount(*server);
    server->start();
  }
  ~Rig() {
    server->stop();
    sampler->stop();
    service->wait_all();
  }
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;
};

/// One POSTed job, from its due time to the first time the observer saw
/// it terminal.
struct Posted {
  int kind = 0;
  Clock::time_point due;
  Clock::time_point sent;
  Clock::time_point responded;
  std::string error;      ///< POST failure
  std::uint64_t id = 0;   ///< job id; 0 when the POST failed
  nsv::JobHandle handle;  ///< held until the job is seen terminal
  // Written by the observer.
  Clock::time_point terminal;
  nsv::JobResult result;
  bool seen = false;
};

/// POSTs `request` and returns the handle of the job it created.
nsv::JobHandle post_job(HttpClient& client, nsv::JobService& service,
                        const nsv::JobRequest& request, std::string& error) {
  std::string body;
  try {
    const int status = client.request("POST", "/jobs", job_spec(request), body);
    if (status != 200) {
      error = "POST /jobs returned " + std::to_string(status) + ": " + body;
      return {};
    }
    const nuj::Value doc = nuj::parse(body, "POST /jobs response");
    const std::uint64_t id = doc.at("jobs").array.at(0).u64("id");
    nsv::JobHandle handle = service.find_job(id);
    if (!handle.valid()) error = "job " + std::to_string(id) + " not found";
    return handle;
  } catch (const std::exception& e) {
    error = std::string("POST /jobs: ") + e.what();
    return {};
  }
}

struct Phase {
  const char* name;
  double rate;
  double seconds;
  std::deque<Posted> jobs;
  double wall_s = 0.0;  ///< first due time -> last job terminal
  double brownout_max = 0.0;
  std::uint64_t ev_from = 0;  ///< flight-recorder window
  std::uint64_t ev_to = 0;
};

/// Offers Poisson arrivals for one phase and waits until every job is
/// terminal. With `speed`, the generator also times the host-speed
/// reference kernel in its idle time.
void run_phase(Phase& phase, Rig& rig, HttpClient& client,
               northup::util::Xoshiro256& rng, std::uint64_t seed,
               int& job_index, HostSpeed* speed, Spans& spans) {
  std::mutex mu;
  std::vector<Posted*> fresh;  ///< published by the generator
  std::atomic<bool> generating{true};
  nobs::Gauge& brownout = rig.service->metrics().gauge("svc.brownout");
  nobs::EventLog* elog = rig.service->machine().event_log();
  phase.ev_from = elog ? elog->now_ns() : 0;

  std::exception_ptr observer_error;
  std::thread observer([&]() noexcept {
    try {
      std::vector<Posted*> open;
      Clock::time_point drain_start{};
      for (;;) {
        bool done_generating = false;
        {
          std::lock_guard<std::mutex> lock(mu);
          open.insert(open.end(), fresh.begin(), fresh.end());
          fresh.clear();
          done_generating = !generating.load();
        }
        bool progressed = false;
        for (std::size_t i = 0; i < open.size();) {
          Posted* p = open[i];
          if (p->handle.done()) {
            p->terminal = Clock::now();
            p->result = p->handle.result();
            p->seen = true;
            p->handle = {};  // let the service retire the job
            open[i] = open.back();
            open.pop_back();
            progressed = true;
          } else {
            ++i;
          }
        }
        phase.brownout_max = std::max(phase.brownout_max, brownout.value());
        if (done_generating && open.empty()) break;
        if (done_generating) {
          if (drain_start == Clock::time_point{}) drain_start = Clock::now();
          if (seconds_since(drain_start) > kDrainTimeoutS) break;
        }
        if (!progressed) {
          std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
      }
    } catch (...) {
      observer_error = std::current_exception();
    }
  });

  const auto start = Clock::now();
  Clock::time_point last_sample{};
  double next_s = 0.0;
  for (;;) {
    next_s += -std::log(1.0 - rng.uniform()) / phase.rate;
    if (next_s >= phase.seconds) break;
    Posted& p = phase.jobs.emplace_back();
    p.kind = job_index % kJobKinds;
    p.due = start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(next_s));
    // The reference kernel takes under a millisecond on a quiet host.
    if (speed && p.due - Clock::now() > std::chrono::milliseconds(3) &&
        seconds_since(last_sample) > kSpeedSampleS) {
      speed->sample();
      last_sample = Clock::now();
    }
    std::this_thread::sleep_until(p.due);
    const nsv::JobRequest request = svc_request(job_index, seed, kJobDeadlineS);
    ++job_index;
    p.sent = Clock::now();
    p.handle = post_job(client, *rig.service, request, p.error);
    p.responded = Clock::now();
    p.id = p.handle.id();
    if (p.id != 0) {
      std::lock_guard<std::mutex> lock(mu);
      fresh.push_back(&p);
    }
  }
  generating.store(false);
  observer.join();
  if (observer_error) std::rethrow_exception(observer_error);
  phase.wall_s = seconds_since(start);
  phase.ev_to = elog ? elog->now_ns() : 0;

  for (Posted& p : phase.jobs) {
    if (p.id == 0) continue;
    const Spans::Id job =
        spans.add("svc.job", p.due, p.seen ? p.terminal : p.responded,
                  Spans::kNone, p.id);
    spans.add("http.post", p.sent, p.responded, job, p.id);
  }
}

}  // namespace

void run_svc_http(const Args& args, Report& report, Spans& spans) {
  const nsv::ServiceOptions options = service_options(mean_job_bytes(args.seed));
  const auto known = known_answer(args.seed);

  // Set-up: service + server start and the cold first job of each kind.
  std::vector<double> setup_s;
  std::unique_ptr<Rig> rig;
  std::unique_ptr<HttpClient> client;
  // Each kind's reference hash: the known answer for the seed, else the
  // first reference job's.
  std::uint64_t reference[kJobKinds] = {0, 0, 0};
  if (known) std::copy(known->svc, known->svc + kJobKinds, reference);
  na::RunStats reference_stats[kJobKinds];
  for (int i = 0; i < kSetups; ++i) {
    client.reset();
    rig.reset();
    const auto t0 = Clock::now();
    const Spans::Id span = spans.open("setup", Spans::kNone, i + 1);
    rig = std::make_unique<Rig>(options, spans, span);
    client = std::make_unique<HttpClient>(
        rig->server->port(), rig->server->options().max_keepalive_requests);
    for (int kind = 0; kind < kJobKinds; ++kind) {
      Spans::Scope s(spans, "svc.reference_job", span, i + 1);
      report.attempt();
      std::string error;
      nsv::JobHandle handle = post_job(
          *client, *rig->service, svc_request(kind, args.seed, 0.0), error);
      if (!handle.valid()) {
        report.fail("reference " + error);
        continue;
      }
      const nsv::JobResult& result = handle.wait();
      if (result.state != nsv::JobState::Done) {
        report.fail(std::string("reference job ended ") +
                    nsv::state_name(result.state) + ": " + result.error);
        continue;
      }
      if (reference[kind] == 0) reference[kind] = result.stats.result_hash;
      if (result.stats.result_hash != reference[kind]) {
        report.fail("reference job kind " + std::to_string(kind) +
                    " hash mismatch");
        continue;
      }
      reference_stats[kind] = result.stats;
    }
    spans.close(span);
    setup_s.push_back(seconds_since(t0));
  }

  northup::util::Xoshiro256 rng(args.seed);
  int job_index = 0;
  Phase nominal{"nominal", kNominalRate, args.seconds / 2, {}};
  Phase overload{"overload", kOverloadRate, args.seconds / 2, {}};
  // Host speed during the nominal phase, whose latencies it scales.
  HostSpeed speed(HostSpeed::Kernel::kTileMultiply);
  run_phase(nominal, *rig, *client, rng, args.seed, job_index, &speed, spans);
  nobs::EventLog* elog = rig->service->machine().event_log();
  // The nominal phase's flight recording, taken before overload traffic
  // can wrap the recorder's rings.
  nobs::RecordedRun nominal_run;
  double dropped = 0.0;
  if (args.trace && elog) {
    nominal_run = elog->snapshot();
    dropped = static_cast<double>(nominal_run.dropped);
  }
  run_phase(overload, *rig, *client, rng, args.seed, job_index, nullptr, spans);

  // --- Outcomes and correctness. ---
  // A failed operation is a POST that did not create a job, a job that
  // never finished, failed or was cancelled, or a Done job whose result
  // hash differs from its kind's reference. Typed refusals (Rejected,
  // Expired) are the overload layer answering as designed: in the
  // nominal phase they count as missing any latency limit and are
  // reported as svc.nominal_refused.
  auto judge = [&](Phase& phase) {
    for (Posted& p : phase.jobs) {
      report.attempt();
      const std::string what = std::string(phase.name) + " job " + std::to_string(p.id);
      if (p.id == 0) {
        report.fail(std::string(phase.name) + " " + p.error);
      } else if (!p.seen) {
        report.fail(what + " never finished");
      } else if (p.result.state == nsv::JobState::Done) {
        if (p.result.stats.result_hash != reference[p.kind]) {
          report.fail(what + " hash mismatch");
        }
      } else if (p.result.state != nsv::JobState::Rejected &&
                 p.result.state != nsv::JobState::Expired) {
        report.fail(what + " ended " + nsv::state_name(p.result.state) + " " +
                    p.result.error);
      }
    }
  };
  judge(nominal);
  judge(overload);

  auto lag_p99 = [](const Phase& phase) {
    std::vector<double> lag;
    for (const Posted& p : phase.jobs) lag.push_back(seconds_between(p.due, p.sent));
    return quantile(lag, 0.99);
  };
  for (const Phase* phase : {&nominal, &overload}) {
    const double lag = lag_p99(*phase);
    std::printf("svc-http %s: %zu jobs offered at %.0f/s over %.2f s, "
                "generator lag p99 %.3f ms%s\n",
                phase->name, phase->jobs.size(), phase->rate, phase->wall_s,
                lag * 1e3, lag > kMaxGeneratorLagS ? " (INVALID: generator late)" : "");
  }
  std::printf("svc-http: %llu reconnects after the server's keep-alive limit\n",
              static_cast<unsigned long long>(client->reconnects()));

  // Nominal latency: due time -> terminal; a job that did not finish Done
  // counts as missing any limit.
  std::vector<double> latency_s;
  double refused = 0.0;
  for (const Posted& p : nominal.jobs) {
    const bool done = p.seen && p.result.state == nsv::JobState::Done;
    latency_s.push_back(done ? seconds_between(p.due, p.terminal) : kInf);
    if (p.seen && (p.result.state == nsv::JobState::Rejected ||
                   p.result.state == nsv::JobState::Expired)) {
      refused += 1.0;
    }
  }
  std::uint64_t good = 0;
  std::vector<double> overload_latency_s;
  for (const Posted& p : overload.jobs) {
    if (!p.seen || p.result.state != nsv::JobState::Done) continue;
    overload_latency_s.push_back(seconds_between(p.due, p.terminal));
    if (p.result.latency_s <= kJobDeadlineS) ++good;
  }
  const double goodput = static_cast<double>(good) / overload.wall_s;

  if (!args.trace) {
    report.metric("latency_p50_norm_ms",
                  quantile(latency_s, 0.5) * 1e3 * speed.scale(), "ms");
    report.metric("latency_p90_norm_ms",
                  quantile(latency_s, 0.9) * 1e3 * speed.scale(), "ms");
    report.metric("setup_s", quantile(setup_s, 0.5), "s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  // --- Per-layer metrics. ---
  LayerCounters c;
  const nobs::RecordedRun window =
      record_window(nominal_run, nominal.ev_from, nominal.ev_to);
  const northup::analyze::Summary summary = northup::analyze::summarize(window);
  c.data_moves = static_cast<double>(summary.moves);
  c.data_bytes_moved = static_cast<double>(summary.bytes_moved);
  for (const northup::mem::IoRecord& io : northup::analyze::io_records(window)) {
    (io.is_write ? c.memsim_write_bytes : c.memsim_read_bytes) +=
        static_cast<double>(io.bytes);
    (io.is_write ? c.memsim_writes : c.memsim_reads) += 1.0;
  }
  c.cache_hits = static_cast<double>(summary.cache_hits);
  c.cache_misses = static_cast<double>(summary.cache_misses);
  c.resil_retries = static_cast<double>(summary.retries);
  const nt::NodeId staging =
      rig->service->machine().tree().get_children_list(
          rig->service->machine().tree().root())[0];
  if (auto* pool = rig->service->machine().pool_at(staging)) {
    c.pool_high_water_mb = static_cast<double>(pool->high_water()) / (1 << 20);
  }
  for (const na::RunStats& s : reference_stats) {
    c.core_spawns += static_cast<double>(s.spawns);
    c.sim_makespan_s += s.makespan;
  }
  for (const Phase* phase : {&nominal, &overload}) {
    for (const Posted& p : phase->jobs) {
      if (p.seen) c.resil_corruptions += static_cast<double>(p.result.corruptions);
    }
  }
  c.obs_dropped = dropped;
  add_layer_counters(c, report);
  add_critical_path_metrics(window, report);

  ServiceMetrics s;
  std::vector<double> queue_wait, exec, post;
  for (const Posted& p : nominal.jobs) {
    if (p.id != 0) post.push_back(seconds_between(p.sent, p.responded));
    if (!p.seen || p.result.state != nsv::JobState::Done) continue;
    queue_wait.push_back(p.result.queue_wait_s);
    exec.push_back(p.result.latency_s - p.result.queue_wait_s);
  }
  s.queue_wait_p50_ms = quantile(queue_wait, 0.5) * 1e3;
  s.queue_wait_p99_ms = quantile(queue_wait, 0.99) * 1e3;
  s.exec_p50_ms = quantile(exec, 0.5) * 1e3;
  s.post_p50_ms = quantile(post, 0.5) * 1e3;
  s.post_p99_ms = quantile(post, 0.99) * 1e3;
  double offered = static_cast<double>(overload.jobs.size());
  for (const Posted& p : overload.jobs) {
    if (!p.seen || p.result.state != nsv::JobState::Rejected) continue;
    switch (p.result.reject) {
      case nsv::RejectReason::Shed: s.shed_share += 1.0; break;
      case nsv::RejectReason::RateLimited: s.rate_limited_share += 1.0; break;
      case nsv::RejectReason::QueueFull: s.queue_full_share += 1.0; break;
      case nsv::RejectReason::InfeasibleDeadline: s.infeasible_share += 1.0; break;
      default: break;
    }
  }
  if (offered > 0) {
    s.shed_share /= offered;
    s.rate_limited_share /= offered;
    s.queue_full_share /= offered;
    s.infeasible_share /= offered;
  }
  s.nominal_refused_share =
      nominal.jobs.empty() ? 0.0 : refused / static_cast<double>(nominal.jobs.size());
  s.brownout_max = std::max(nominal.brownout_max, overload.brownout_max);
  s.nominal_p50_ms = quantile(latency_s, 0.5) * 1e3;
  s.nominal_p99_ms = quantile(latency_s, 0.99) * 1e3;
  s.overload_goodput_per_s = goodput;
  s.overload_p99_ms = quantile(overload_latency_s, 0.99) * 1e3;
  s.nominal_lag_p99_ms = lag_p99(nominal) * 1e3;
  s.overload_lag_p99_ms = lag_p99(overload) * 1e3;
  add_service_metrics(s, report);

  ProbeShape shape;
  shape.tree = nt::apu_two_level(nm::StorageKind::Ssd, service_machine());
  shape.chunk_bytes = 64ULL * 64 * 4;  // a whole svc GEMM/HotSpot grid
  shape.job = svc_request(0, args.seed, kJobDeadlineS);
  shape.seed = args.seed;
  run_probes(shape, report, spans);

  report.metric("trace.overhead",
                spans.size() * span_cost_s() / (nominal.wall_s + overload.wall_s),
                "ratio");
  report.metric("proc.cpu_s", process_cpu_s(), "s");
  add_bench_metrics(quantile(latency_s, 0.5), quantile(latency_s, 0.9), speed,
                    report);
}

}  // namespace perfbench
