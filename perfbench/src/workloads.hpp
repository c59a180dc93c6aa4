// The benchmark's workload definitions. The literals mirror the figure
// harness presets (bench/bench_common.hpp) as of the commit that added the
// benchmark; they are copied, not included, so that later edits to the
// harnesses cannot silently change what the benchmark measures. The ooc
// problems are half the figures' edge (fig_gemm n=1024, fig_hotspot
// 2048^2) on the same machines: a timed run then holds 60-200 plan runs
// of 0.15-0.7 s instead of 15-40 of 1-2.5 s, so its quantiles rest on
// enough samples and no single slow spell of the host decides them.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>

#include "northup/algos/csr_adaptive.hpp"
#include "northup/algos/gemm.hpp"
#include "northup/algos/hotspot.hpp"
#include "northup/sim/models.hpp"
#include "northup/svc/service.hpp"
#include "northup/topo/presets.hpp"

namespace perfbench {

namespace na = northup::algos;
namespace nm = northup::mem;
namespace nsv = northup::svc;
namespace nt = northup::topo;

/// Level-1 block dim of the scaled inputs over the paper's (256 / 4096):
/// processor FLOP/s and storage access latencies are scaled by it.
inline constexpr double kModelScale = 1.0 / 16.0;

inline northup::sim::BandwidthModel scaled_storage(nm::StorageKind kind) {
  northup::sim::BandwidthModel m =
      kind == nm::StorageKind::Hdd ? northup::sim::ModelPresets::hdd()
                                   : northup::sim::ModelPresets::ssd();
  m.access_latency_s *= kModelScale;
  return m;
}

// --- ooc-gemm: dense-mm, n=512, on the discrete-GPU SSD machine. --------

inline nt::PresetOptions gemm_machine() {
  nt::PresetOptions o;
  o.root_capacity = 256ULL << 20;
  o.staging_capacity = 2ULL << 20;
  o.device_capacity = 1ULL << 20;
  o.storage_model = scaled_storage(nm::StorageKind::Ssd);
  o.proc_flops_scale = kModelScale;
  return o;
}

inline na::GemmConfig gemm_config(std::uint64_t seed) {
  na::GemmConfig c;
  c.n = 512;
  c.verify_samples = 32;
  c.hash_result = true;
  c.seed = seed;
  return c;
}

// --- ooc-hotspot: 1024^2 grid, 4 sweeps, on the discrete-GPU HDD machine.

inline nt::PresetOptions hotspot_machine() {
  nt::PresetOptions o;
  o.root_capacity = 256ULL << 20;
  o.staging_capacity = 4ULL << 20;
  o.device_capacity = 4ULL << 20;
  o.storage_model = scaled_storage(nm::StorageKind::Hdd);
  o.proc_flops_scale = kModelScale;
  return o;
}

inline na::HotspotConfig hotspot_config(std::uint64_t seed, bool verify) {
  na::HotspotConfig c;
  c.n = 1024;
  c.iterations = 4;
  c.verify = verify;  // full-grid reference compare (O(n^2) per sweep)
  c.hash_result = true;
  c.seed = seed;
  return c;
}

/// Level-1 block dims the planners choose for the ooc workloads (the
/// probes' chunk and leaf shapes).
inline std::uint64_t gemm_block() {
  return na::choose_gemm_block(gemm_config(1).n, 16,
                               gemm_machine().staging_capacity, true, 0.85);
}
inline std::uint64_t hotspot_block() {
  return na::choose_hotspot_block(hotspot_config(1, false).n, 16,
                                  hotspot_machine().staging_capacity, 0.85);
}

// --- svc-http: the svc_overload job mix behind the HTTP control plane. --

inline constexpr int kJobKinds = 3;
inline const char* const kTenants[kJobKinds] = {"alice", "bob", "carol"};
inline const double kTenantWeights[kJobKinds] = {1.0, 2.0, 4.0};
inline constexpr double kJobDeadlineS = 0.5;

/// Open-loop phases: rates fixed in jobs per second. The mix's SpMV job
/// takes about 16 ms and the other two about 2.5 ms, so at the nominal
/// rate the 2 workers are about half busy; the overload rate is several
/// times what the service completes.
inline constexpr double kNominalRate = 150.0;
inline constexpr double kOverloadRate = 1200.0;

/// The job service machine: root big enough for every tenant's data,
/// staging tight enough that load queues on admission.
inline nt::PresetOptions service_machine() {
  nt::PresetOptions o;
  o.root_capacity = 512ULL << 20;
  o.staging_capacity = 4ULL << 20;
  return o;
}

/// svc_overload's service: 2-level machine, 2 workers, weighted-fair,
/// overload control on. The per-tenant byte rate is svc_overload's 0.6 x
/// saturation x mean job bytes with saturation fixed at 360 jobs/s
/// instead of measured, so the configuration does not depend on the host.
inline nsv::ServiceOptions service_options(double mean_job_bytes) {
  nsv::ServiceOptions o;
  o.machine_levels = 2;
  o.machine = service_machine();
  o.workers = 2;
  o.max_queue_depth = 64;
  o.policy = nsv::SchedulingPolicy::WeightedFair;
  o.overload.enable = true;
  o.overload.target_queue_delay_s = 0.1;
  o.overload.shed_interval_s = 0.02;
  const double tenant_rate = 0.6 * 360.0 * mean_job_bytes;
  o.overload.default_rate_bytes_per_s = tenant_rate;
  o.overload.default_burst_bytes = std::max(tenant_rate, 8.0 * mean_job_bytes);
  return o;
}

/// Job `index` of the mix: kinds and tenants rotate together. Footprints
/// are pinned (preferred == floor), so brownout never changes a job's
/// decomposition and every Done job of a kind hashes identically.
inline nsv::JobRequest svc_request(int index, std::uint64_t seed,
                                   double deadline_s) {
  nsv::JobRequest request;
  const int kind = index % kJobKinds;
  switch (kind) {
    case 0: {
      na::GemmConfig c;
      c.n = 64;
      c.verify_samples = 0;
      c.hash_result = true;
      c.seed = seed;
      request.config = c;
      break;
    }
    case 1: {
      na::HotspotConfig c;
      c.n = 64;
      c.iterations = 1;
      c.verify = false;
      c.hash_result = true;
      c.seed = seed;
      request.config = c;
      break;
    }
    default: {
      na::SpmvConfig c;
      c.rows = 20000;
      c.avg_nnz = 8;
      c.verify = false;
      c.hash_result = true;
      c.seed = seed;
      request.config = c;
      break;
    }
  }
  request.tenant = kTenants[kind];
  request.weight = kTenantWeights[kind];
  request.deadline_s = deadline_s;
  request.footprint = {.root_bytes = 8ULL << 20,
                       .staging_bytes = 1ULL << 20,
                       .device_bytes = 0};
  return request;
}

/// Mean estimated bytes of one job of the mix (the rate-limit currency).
inline double mean_job_bytes(std::uint64_t seed) {
  double total = 0.0;
  for (int kind = 0; kind < kJobKinds; ++kind) {
    total += nsv::work_estimate(svc_request(kind, seed, kJobDeadlineS))
                 .total_bytes();
  }
  return total / kJobKinds;
}

// --- Known answers. ------------------------------------------------------

/// Result hashes measured on the commit that added the benchmark, per
/// input seed. A run whose seed is listed must reproduce them bit for
/// bit; other seeds fall back to verification plus run-to-run identity.
struct KnownAnswer {
  std::uint64_t seed;
  std::uint64_t gemm;        ///< ooc-gemm
  std::uint64_t hotspot;     ///< ooc-hotspot
  std::uint64_t svc[kJobKinds];  ///< svc-http job kinds, mix order
};

std::optional<KnownAnswer> known_answer(std::uint64_t seed);

}  // namespace perfbench
