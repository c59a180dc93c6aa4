// Shared pieces of the benchmark binary: the command line, the result
// line, order statistics, process counters, and the bench-side span
// recorder used by traced runs.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

inline double seconds_since(Clock::time_point from) {
  return seconds_between(from, Clock::now());
}

/// Nearest-rank quantile (q in [0, 1]) of `values`; 0 for an empty set.
/// With fewer than 1/(1-q) samples the top quantiles are the maximum.
double quantile(std::vector<double> values, double q);

/// Process peak resident set size in MB (getrusage high-water mark).
double peak_rss_mb();

/// Process CPU time, user + system, in seconds.
double process_cpu_s();

/// Round-robin placement of the calling thread over the CPUs the process
/// may use. The virtual CPUs of a shared host slow down for seconds to
/// minutes at a time, often independently of each other, when other
/// tenants load their physical cores; moving each timed operation to the
/// next CPU keeps one CPU's slow spell from setting a run's quantiles.
/// The destructor puts the thread back on every CPU it could use before.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Pins the calling thread (the one that constructed this) to the next
  /// CPU in turn.
  void next();

 private:
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;  ///< traced runs: where the bench spans go
  /// Replaces the known-answer result hash of an ooc workload (hex); the
  /// self-test passes a wrong one to prove mismatches count as errors.
  std::string expect_hash;
};

/// The run's result: the last stdout line is its JSON form,
/// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);

  /// One operation attempted (a plan run, a POSTed job).
  void attempt() { ++attempted_; }
  /// One attempted operation failed; `why` goes to stderr.
  void fail(const std::string& why);
  /// A whole-run consistency check (not an operation) did not hold.
  void check(bool ok, const std::string& what);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  bool correct() const { return checks_ok_ && failed_ == 0; }
  std::string json() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool checks_ok_ = true;
};

/// Bench-side spans around calls into each layer: name, start, end,
/// parent, and a request id shared by the spans of one job or run. Kept
/// in memory and written once when the run ends. Disabled recorders
/// ignore every call, so untraced runs pay one branch per span.
class Spans {
 public:
  using Id = std::uint32_t;
  static constexpr Id kNone = 0;

  explicit Spans(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// Records a finished span; `name` must be a string literal.
  Id add(const char* name, Clock::time_point start, Clock::time_point end,
         Id parent = kNone, std::uint64_t request = 0);
  /// Opens a span ending at the matching close().
  Id open(const char* name, Id parent = kNone, std::uint64_t request = 0);
  void close(Id id);

  std::size_t size() const;
  void write_json(const std::string& path) const;

  /// RAII open/close.
  class Scope {
   public:
    Scope(Spans& spans, const char* name, Id parent = kNone,
          std::uint64_t request = 0)
        : spans_(spans), id_(spans.open(name, parent, request)) {}
    ~Scope() { spans_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    Id id() const { return id_; }

   private:
    Spans& spans_;
    Id id_;
  };

 private:
  struct Span {
    const char* name;
    Clock::time_point start;
    Clock::time_point end;
    Id parent;
    std::uint64_t request;
  };
  const bool enabled_;
  const Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;  ///< spans_[id - 1]
};

}  // namespace perfbench
