// Reference kernels for the host's speed: fixed loops that belong to the
// benchmark, timed between the operations of a run, so that the run's
// latencies can be reported on the scale of a quiet host.
//
// The benchmark runs on a few virtual CPUs of a shared machine whose
// speed swings with other tenants' load: for seconds to minutes at a time
// every CPU runs floating-point loops 1.3 to 3 times slower (CPU time
// grows with wall time, so it is not time taken from the VM). A run's raw
// median GEMM time then moves by more than a regression bound from one
// run to the next. A reference kernel doing the same kind of work as the
// workload slows alike, and
//
//   scaled latency = raw latency x reference time / median kernel time
//
// keeps the program's cost and drops most of the host's swing: over sets
// of ten 40-second runs, the spread of the p50 (quartile distance over
// median) went from 0.16-0.33 raw to 0.06-0.08 scaled on ooc-gemm, and
// from 0.09-0.16 to 0.02-0.04 on ooc-hotspot. The kernels are benchmark
// code: a change to the program moves the scaled latency as it moves the
// raw one.
#pragma once

#include <cstdint>
#include <vector>

#include "common.hpp"

namespace perfbench {

class HostSpeed {
 public:
  enum class Kernel {
    kTileMultiply,  ///< 16x16 tiles staged and multiplied, as a GEMM leaf
    kStream,        ///< copy, CRC-32 and a 5-point stencil over 1 MiB
  };

  explicit HostSpeed(Kernel kernel);

  /// Times the kernel once on the calling thread.
  void sample();
  /// Median seconds of the kernel over the samples taken (0 if none).
  double median_s() const { return quantile(samples_, 0.5); }
  /// The kernel's reference time / median_s(): multiplies a latency
  /// measured alongside the samples onto the quiet-host scale (1 without
  /// samples).
  double scale() const;

 private:
  void tile_multiply();
  void stream();

  /// The kernels' times in the quiet spells of the 4-vCPU Xeon VM the
  /// benchmark was written on.
  static constexpr double kTileMultiplyReferenceS = 0.5e-3;
  static constexpr double kStreamReferenceS = 4.0e-3;

  Kernel kernel_;
  std::vector<float> a_, b_, c_;
  std::vector<std::uint32_t> crc_table_;
  std::uint32_t sink_ = 0;
  std::vector<double> samples_;
};

}  // namespace perfbench
