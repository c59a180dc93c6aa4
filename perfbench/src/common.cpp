#include "common.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

namespace {

void pin_thread(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof set, &set);  // best effort: timing only
}

}  // namespace

CpuRotation::CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus_.push_back(cpu);
  }
}

CpuRotation::~CpuRotation() {
  if (!cpus_.empty()) pin_thread(cpus_);
}

void CpuRotation::next() {
  if (cpus_.empty()) return;
  pin_thread({cpus_[next_++ % cpus_.size()]});
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  // JSON has no infinity: an unbounded value (a refused job's latency)
  // prints as the largest double, worse than any measured one.
  metrics_.push_back(
      {name, std::isfinite(value) ? value : std::numeric_limits<double>::max(),
       unit});
}

void Report::fail(const std::string& why) {
  // The first few reasons are enough to diagnose; a broken build would
  // otherwise print one line per operation.
  if (++failed_ <= 10) std::fprintf(stderr, "perfbench: FAILED %s\n", why.c_str());
}

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  checks_ok_ = false;
  std::fprintf(stderr, "perfbench: CHECK FAILED %s\n", what.c_str());
}

std::string Report::json() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics_[i].value);
    if (i > 0) out += ", ";
    out += "\"" + metrics_[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics_[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

Spans::Id Spans::add(const char* name, Clock::time_point start,
                     Clock::time_point end, Id parent, std::uint64_t request) {
  if (!enabled_) return kNone;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, start, end, parent, request});
  return static_cast<Id>(spans_.size());
}

Spans::Id Spans::open(const char* name, Id parent, std::uint64_t request) {
  const auto now = Clock::now();
  return add(name, now, now, parent, request);
}

void Spans::close(Id id) {
  if (!enabled_ || id == kNone) return;
  const auto now = Clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id - 1].end = now;
}

std::size_t Spans::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

void Spans::write_json(const std::string& path) const {
  if (!enabled_ || path.empty()) return;
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  out << "{\"spans\": [";
  auto us = [this](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  };
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char line[256];
    std::snprintf(line, sizeof line,
                  "%s\n {\"id\": %zu, \"parent\": %u, \"request\": %llu, "
                  "\"name\": \"%s\", \"start_us\": %.3f, \"end_us\": %.3f}",
                  i == 0 ? "" : ",", i + 1, s.parent,
                  static_cast<unsigned long long>(s.request), s.name,
                  us(s.start), us(s.end));
    out << line;
  }
  out << "\n]}\n";
  if (!out) std::fprintf(stderr, "perfbench: cannot write spans to %s\n", path.c_str());
}

}  // namespace perfbench
