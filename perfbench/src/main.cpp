// northup-perfbench: the repository benchmark's binary.
//
//   northup-perfbench --workload ooc-gemm|ooc-hotspot|svc-http --seed N
//                     --seconds S --trace 0|1 [--spans-out FILE]
//                     [--expect-hash HEX]
//   northup-perfbench --print-known-answers FIRST LAST
//
// A run prints progress lines, then one JSON result line (see Report).
// Untraced runs report the end-to-end metrics, traced runs the per-layer
// ones. perfbench/run.py builds this binary and checks the metric names
// against BENCHMARK.json.
#include <malloc.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "common.hpp"
#include "northup/algos/plan.hpp"
#include "workloads.hpp"

namespace perfbench {
void run_ooc(const Args& args, Report& report, Spans& spans);
void run_svc_http(const Args& args, Report& report, Spans& spans);
}  // namespace perfbench

namespace pb = perfbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: northup-perfbench --workload ooc-gemm|ooc-hotspot|svc-http "
               "--seed N --seconds S --trace 0|1 [--spans-out FILE] "
               "[--expect-hash HEX]\n"
               "       northup-perfbench --print-known-answers FIRST LAST\n");
  return 2;
}

/// Computes the known-answer rows for seeds FIRST..LAST in the form
/// known_answers.cpp lists them.
int print_known_answers(std::uint64_t first, std::uint64_t last) {
  namespace nc = northup::core;
  for (std::uint64_t seed = first; seed <= last; ++seed) {
    std::uint64_t gemm = 0;
    std::uint64_t hotspot = 0;
    {
      nc::Runtime rt(pb::nt::dgpu_three_level(pb::nm::StorageKind::Ssd,
                                              pb::gemm_machine()));
      const auto stats = pb::na::make_plan(pb::gemm_config(seed))->run(rt);
      if (!stats.verified) {
        std::fprintf(stderr, "gemm seed %" PRIu64 " failed verification\n", seed);
        return 1;
      }
      gemm = stats.result_hash;
    }
    {
      nc::RuntimeOptions options;
      options.resilience.verify_checksums = true;
      nc::Runtime rt(pb::nt::dgpu_three_level(pb::nm::StorageKind::Hdd,
                                              pb::hotspot_machine()),
                     options);
      const auto stats =
          pb::na::make_plan(pb::hotspot_config(seed, true))->run(rt);
      if (!stats.verified) {
        std::fprintf(stderr, "hotspot seed %" PRIu64 " failed verification\n", seed);
        return 1;
      }
      hotspot = stats.result_hash;
    }
    std::uint64_t svc[pb::kJobKinds] = {0, 0, 0};
    {
      pb::nsv::JobService service(pb::service_options(pb::mean_job_bytes(seed)));
      for (int kind = 0; kind < pb::kJobKinds; ++kind) {
        const auto& result =
            service.submit(pb::svc_request(kind, seed, 0.0)).wait();
        if (result.state != pb::nsv::JobState::Done) {
          std::fprintf(stderr, "svc job kind %d ended %s: %s\n", kind,
                       pb::nsv::state_name(result.state), result.error.c_str());
          return 1;
        }
        svc[kind] = result.stats.result_hash;
      }
    }
    std::printf("    {%" PRIu64 ", 0x%08" PRIx64 ", 0x%08" PRIx64
                ", {0x%08" PRIx64 ", 0x%08" PRIx64 ", 0x%08" PRIx64 "}},\n",
                seed, gemm, hotspot, svc[0], svc[1], svc[2]);
    std::fflush(stdout);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Fixed malloc thresholds: every block under 32 MiB comes from the heap
  // and freed memory stays there for reuse. glibc otherwise raises its
  // mmap threshold and trims the heap depending on the order of frees,
  // and the same build's peak RSS read 91 or 113 MB from run to run.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  pb::Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--print-known-answers" && i + 2 < argc) {
      return print_known_answers(std::stoull(argv[i + 1]), std::stoull(argv[i + 2]));
    } else if (flag == "--workload" && has_value) {
      args.workload = argv[++i];
      have_workload = true;
    } else if (flag == "--seed" && has_value) {
      args.seed = std::stoull(argv[++i]);
    } else if (flag == "--seconds" && has_value) {
      args.seconds = std::stod(argv[++i]);
    } else if (flag == "--trace" && has_value) {
      args.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (flag == "--spans-out" && has_value) {
      args.spans_out = argv[++i];
    } else if (flag == "--expect-hash" && has_value) {
      args.expect_hash = argv[++i];
    } else {
      return usage();
    }
  }
  if (!have_workload || args.seconds <= 0) return usage();

  pb::Report report;
  pb::Spans spans(args.trace);
  try {
    if (args.workload == "ooc-gemm" || args.workload == "ooc-hotspot") {
      pb::run_ooc(args, report, spans);
    } else if (args.workload == "svc-http") {
      pb::run_svc_http(args, report, spans);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "northup-perfbench: %s\n", e.what());
    return 1;
  }
  if (args.trace) {
    report.metric("bench.error_rate",
                  report.attempted() > 0
                      ? static_cast<double>(report.failed()) /
                            static_cast<double>(report.attempted())
                      : 0.0,
                  "ratio");
    spans.write_json(args.spans_out);
  }
  std::printf("%s\n", report.json().c_str());
  return 0;
}
