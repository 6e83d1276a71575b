#include "bench.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sched.h>
#include <unordered_map>

#include "trace/chrome_trace.hpp"

namespace perfbench {

double Samples::percentile(double p) const {
  if (v_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(v_.begin(), v_.end());
    sorted_ = true;
  }
  const double pos = p / 100.0 * static_cast<double>(v_.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v_[lo] + (v_[hi] - v_[lo]) * frac;
}

SlicedWindow::SlicedWindow(double seconds)
    : slice_s_(seconds / kSlices), kept_(kSlices), seen_(kSlices, 0) {
  for (auto& k : kept_) {
    k.assign(kPerSlice, 0.0f);
    k.clear();
  }
  start();
}

void SlicedWindow::start() {
  start_ = Clock::now();
  end_ = start_ + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(slice_s_ * kSlices));
}

void SlicedWindow::add(Clock::time_point done, double lat_us) {
  if (done >= end_ || done < start_) return;
  const auto i = std::min<std::size_t>(
      kSlices - 1, static_cast<std::size_t>(
                       std::chrono::duration<double>(done - start_).count() /
                       slice_s_));
  auto& k = kept_[i];
  const std::int64_t n = seen_[i]++;
  if (k.size() < kPerSlice) {
    k.push_back(static_cast<float>(lat_us));
    return;
  }
  lcg_ = lcg_ * 6364136223846793005ull + 1442695040888963407ull;
  const std::uint64_t j = (lcg_ >> 11) % static_cast<std::uint64_t>(n + 1);
  if (j < kPerSlice) k[j] = static_cast<float>(lat_us);
}

double SlicedWindow::ops_per_s() const {
  std::vector<double> rates;
  for (auto s : seen_) rates.push_back(static_cast<double>(s) / slice_s_);
  return median_of(rates);
}

double SlicedWindow::median_over_slices(double p) const {
  std::vector<double> per;
  for (const auto& k : kept_) {
    if (k.empty()) continue;
    Samples s;
    for (float x : k) s.add(x);
    per.push_back(s.percentile(p));
  }
  return median_of(per);
}

RoundWindow::RoundWindow(double seconds) : seconds_(seconds) { start(); }

void RoundWindow::start() {
  start_ = round_start_ = Clock::now();
  end_ = start_ + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(seconds_));
  current_ = Samples();
  round_s_.clear();
  rounds_.clear();
}

void RoundWindow::end_round() {
  const auto now = Clock::now();
  round_s_.push_back(std::chrono::duration<double>(now - round_start_).count());
  rounds_.push_back(std::move(current_));
  current_ = Samples();
  round_start_ = now;
}

double RoundWindow::ops_per_s() const {
  std::vector<double> rates;
  for (std::size_t i = 0; i < rounds_.size(); ++i) {
    if (round_s_[i] > 0.0) {
      rates.push_back(static_cast<double>(rounds_[i].size()) / round_s_[i]);
    }
  }
  return median_of(rates);
}

double RoundWindow::median_over_rounds(double p) const {
  std::vector<double> per;
  for (const auto& r : rounds_) {
    if (!r.empty()) per.push_back(r.percentile(p));
  }
  return median_of(per);
}

double median_of(std::vector<double> xs) {
  Samples s;
  for (double x : xs) s.add(x);
  return s.median();
}

namespace {
cpu_set_t g_saved_mask;
bool g_pinned = false;
}  // namespace

void pin_to_one_cpu() {
  if (sched_getaffinity(0, sizeof g_saved_mask, &g_saved_mask) != 0) return;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &g_saved_mask)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    g_pinned = sched_setaffinity(0, sizeof one, &one) == 0;
    return;
  }
}

void unpin() {
  if (g_pinned) sched_setaffinity(0, sizeof g_saved_mask, &g_saved_mask);
  g_pinned = false;
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

SpanLog::SpanLog() : origin_(Clock::now()) {
  // Host steady clock, relative to the log's creation, in the tracer's
  // picosecond Time.
  tracer_.set_clock([origin = origin_] {
    return pap::Time::ps(static_cast<std::int64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             origin)
            .count() *
        1000));
  });
}

void SpanLog::record(const char* component, const char* name,
                     std::uint64_t op, Clock::time_point t0,
                     Clock::time_point t1) {
  const auto ps = [this](Clock::time_point t) {
    return pap::Time::ps(static_cast<std::int64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
            .count() *
        1000));
  };
  tracer_.span(ps(t0), ps(t1) - ps(t0), component, name,
               "op" + std::to_string(op));
}

Samples SpanLog::durations(const std::string& component,
                           const std::string& name) const {
  Samples out;
  for (const auto& e : tracer_.events()) {
    if (e.type == pap::trace::EventType::kComplete &&
        e.component == component && e.name == name) {
      out.add(static_cast<double>(e.dur_ps) / 1000.0);
    }
  }
  return out;
}

void SpanLog::per_op(const std::string& whole,
                     const std::vector<std::string>& stages, Samples* whole_ns,
                     Samples* stage_sum_ns) const {
  struct Acc {
    double whole = -1.0;
    double stages = 0.0;
  };
  std::unordered_map<std::string, Acc> ops;
  std::vector<std::string> order;
  for (const auto& e : tracer_.events()) {
    if (e.type != pap::trace::EventType::kComplete) continue;
    const std::string full = e.component + "." + e.name;
    const double ns = static_cast<double>(e.dur_ps) / 1000.0;
    auto [it, fresh] = ops.try_emplace(e.category);
    if (fresh) order.push_back(e.category);
    if (full == whole) {
      it->second.whole = ns;
    } else if (std::find(stages.begin(), stages.end(), full) != stages.end()) {
      it->second.stages += ns;
    }
  }
  for (const auto& op : order) {
    const Acc& a = ops.at(op);
    if (a.whole < 0.0) continue;
    whole_ns->add(a.whole);
    stage_sum_ns->add(a.stages);
  }
}

bool SpanLog::write_chrome(const std::string& path) const {
  return pap::trace::write_chrome_json(tracer_, path).is_ok();
}

void Outcome::set(const std::string& name, double value) {
  for (auto& m : metrics) {
    if (m.name == name) {
      m.value = value;
      return;
    }
  }
  metrics.push_back(Metric{name, value});
}

void Outcome::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  if (check_failures.size() < 20) check_failures.push_back(what);
}

void Outcome::fail_known(const std::string& what) {
  ++failed;
  ++known_failed;
  if (known_faults.size() < 20 &&
      std::find(known_faults.begin(), known_faults.end(), what) ==
          known_faults.end()) {
    known_faults.push_back(what);
  }
}

double unattributed_pct(const Samples& whole_ns, const Samples& stage_sum_ns) {
  const double whole = whole_ns.median();
  if (whole <= 0.0) return 0.0;
  return 100.0 * (1.0 - stage_sum_ns.median() / whole);
}

double overhead_pct(double traced_p50, double untraced_p50) {
  if (untraced_p50 <= 0.0) return 0.0;
  return 100.0 * (traced_p50 - untraced_p50) / untraced_p50;
}

}  // namespace perfbench
