// Shared pieces of the repository benchmark: options, timing samples, the
// host-clock span log built on trace::Tracer, and the per-run outcome that
// main.cpp prints.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "trace/tracer.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline double ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch = ".bench_build/run";  ///< sockets, disk tiers, traces
};

/// Timing samples; percentiles interpolate linearly between order
/// statistics, so a run's figures keep all their digits.
class Samples {
 public:
  void add(double x) { v_.push_back(x); }
  std::size_t size() const { return v_.size(); }
  bool empty() const { return v_.empty(); }
  double percentile(double p) const;  ///< p in [0, 100]; 0 when empty
  double median() const { return percentile(50.0); }

 private:
  mutable std::vector<double> v_;
  mutable bool sorted_ = false;
};

/// The untraced pass of a high-rate workload: per-op latencies bucketed
/// into equal slices of the timed window, each figure the median over the
/// slices, so a stall that hits part of the window does not move it.
/// Storage is allocated and touched up front (a reservoir per slice once
/// full), so the run's peak RSS does not depend on its throughput.
class SlicedWindow {
 public:
  static constexpr int kSlices = 40;
  static constexpr std::size_t kPerSlice = 1 << 16;

  explicit SlicedWindow(double seconds);

  /// Open the window now.
  void start();
  Clock::time_point end() const { return end_; }
  /// An op that completed at `done` after `lat_us`; ops past the end of
  /// the window are not counted.
  void add(Clock::time_point done, double lat_us);

  double ops_per_s() const;
  double p50_us() const { return median_over_slices(50.0); }
  double p99_us() const { return median_over_slices(99.0); }

 private:
  double median_over_slices(double p) const;

  Clock::time_point start_, end_;
  double slice_s_ = 0.0;
  std::vector<std::vector<float>> kept_;
  std::vector<std::int64_t> seen_;
  std::uint64_t lcg_ = 0x9E3779B97F4A7C15ull;
};

/// The untraced pass of a workload that runs whole rounds of the same
/// operations (scenario_sim, whose operations differ in cost by 100x): each
/// figure is the median over the rounds of the window, so every figure is
/// taken over the same mix of operations. A time slice would cut rounds at
/// arbitrary points and count a different mix in every slice.
class RoundWindow {
 public:
  explicit RoundWindow(double seconds);

  /// Open the window (and the first round) now.
  void start();
  Clock::time_point end() const { return end_; }
  void add(double lat_us) { current_.add(lat_us); }
  /// Close the current round now and open the next.
  void end_round();

  double ops_per_s() const;
  double p50_us() const { return median_over_rounds(50.0); }
  double p99_us() const { return median_over_rounds(99.0); }

 private:
  double median_over_rounds(double p) const;

  double seconds_ = 0.0;
  Clock::time_point start_, end_, round_start_;
  Samples current_;
  std::vector<double> round_s_;
  std::vector<Samples> rounds_;
};

/// Median of a handful of set-up timings.
double median_of(std::vector<double> xs);

/// Pin the calling thread (and every thread it starts later) to one CPU,
/// the highest-numbered it may use, so client and server threads share a
/// core: the figures then measure the CPU cost of the work instead of how
/// fast the host wakes a thread on another vCPU, which on a shared VM
/// swings from minute to minute (README.md, "One CPU per run"). `unpin`
/// restores the mask saved here.
void pin_to_one_cpu();
void unpin();

/// VmHWM of this process in MiB.
double peak_rss_mb();

/// Traced-pass spans, recorded on the repository's trace::Tracer with its
/// clock set to the host steady clock. Each span carries the operation it
/// belongs to as its category ("op<N>"), so one operation's stages can be
/// summed against its round trip.
class SpanLog {
 public:
  SpanLog();

  /// Time `f()` as span component.name of operation `op`; returns the
  /// duration in ns.
  template <typename F>
  double time(const char* component, const char* name, std::uint64_t op,
              F&& f) {
    const auto t0 = Clock::now();
    f();
    const auto t1 = Clock::now();
    record(component, name, op, t0, t1);
    return ns_between(t0, t1);
  }

  void record(const char* component, const char* name, std::uint64_t op,
              Clock::time_point t0, Clock::time_point t1);

  /// Durations (ns) of every span named component.name.
  Samples durations(const std::string& component,
                    const std::string& name) const;

  /// Per operation: the summed duration (ns) of the spans whose
  /// "component.name" is in `stages`, for every op that has a span named
  /// `whole`; returned alongside the `whole` durations, op by op.
  void per_op(const std::string& whole, const std::vector<std::string>& stages,
              Samples* whole_ns, Samples* stage_sum_ns) const;

  bool write_chrome(const std::string& path) const;

 private:
  pap::trace::Tracer tracer_;
  Clock::time_point origin_;
};

struct Metric {
  std::string name;
  double value = 0.0;
};

/// What one workload run reports back to main. Units come from the metric
/// catalogue in main.cpp.
struct Outcome {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// Of `failed`: operations that failed on a fault of the program that
  /// CHANGES.md records, on inputs that do not depend on the seed. They are
  /// counted and named but leave the exit code 0.
  std::int64_t known_failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> check_failures;
  std::vector<std::string> known_faults;

  void set(const std::string& name, double value);
  /// Record an output check; a false `ok` makes the run incorrect.
  void check(bool ok, const std::string& what);
  /// Count one failed operation of a known fault.
  void fail_known(const std::string& what);
};

/// 1 - median(stage sum) / median(op), in percent.
double unattributed_pct(const Samples& whole_ns, const Samples& stage_sum_ns);

/// (traced - untraced) / untraced op median, in percent.
double overhead_pct(double traced_p50, double untraced_p50);

// Workload entry points (one file each).
Outcome run_papd(const Options& opt, bool cold);
Outcome run_admit_churn(const Options& opt);
Outcome run_scenario_sim(const Options& opt);

}  // namespace perfbench
