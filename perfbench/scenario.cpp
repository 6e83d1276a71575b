// scenario_sim: scenario::run_parsed over a scenario set, in whole rounds.
// A round holds the same number of scenarios of each kind: members of the
// four soc families (six each), dram scenarios and admission scenarios, so
// every simulator layer runs (soc: platform, cache, mpam, sched, dram, sim;
// dram: controller and kernel; admission: core, noc, rm) and the analysis
// and serve layers stay idle.
//
// The soc members and the admission scenarios are the same on every seed:
// a soc run costs 2-90 ms depending on the member, so members drawn per
// seed would make the cost of a round depend on the seed, and the
// admission scenarios include the known p99-over-bound fault (CHANGES.md),
// which must fail the same operations in every run. The seed draws the dram
// scenarios.
#include <algorithm>
#include <string>
#include <vector>

#include "bench.hpp"
#include "common/rng.hpp"
#include "scenario/generate.hpp"
#include "scenario/run.hpp"
#include "scenario/scenario.hpp"

namespace perfbench {
namespace {

using pap::Rng;
using pap::Time;
namespace scn = pap::scenario;

constexpr int kPerKind = 24;  // soc, dram and admission scenarios per round
constexpr std::uint64_t kPoolSeed = 1;  // soc members and admission set
constexpr std::size_t kMaxTracedOps = 2000;
// After the timed window, every kRecheckEvery-th scenario of the round is
// run again and must give the identical Result.
constexpr std::size_t kRecheckEvery = 5;
constexpr int kSetups = 31;  // set-up repetitions (4 ms each); setup_s is their median
// The known fault: an admitted app's simulated p99 above its proved bound
// by at most this much (CHANGES.md). A larger excess fails the run.
constexpr std::int64_t kKnownExcessPs = 6000;

enum class RunStatus { kOk, kKnownFault, kError };

struct Item {
  scn::Kind kind = scn::Kind::kSoc;
  std::string family;  // soc only
  int index = 0;       // soc only
  std::string text;    // canonical
  scn::Scenario parsed;
  bool have_result = false;
  pap::exp::Result first;
  std::string known_fault;  // set by the first run, empty if none
};

scn::Scenario make_dram(Rng& rng, int i) {
  static const char* const kDevices[] = {"ddr3_1600", "ddr4_2400",
                                         "lpddr4_3200"};
  scn::Scenario s;
  s.kind = scn::Kind::kDram;
  s.name = "bench_dram_" + std::to_string(i);
  scn::DramScenario& d = s.dram;
  d.sim_time = Time::us(200);
  d.device = kDevices[i % 3];
  d.banks = 1 + i % 4;
  d.w_high = static_cast<int>(rng.uniform(8, 32));
  d.w_low = d.w_high / 2;
  d.n_wd = static_cast<int>(rng.uniform(2, d.w_low));
  d.read_period = Time::ns(rng.uniform(200, 800));
  d.read_bank = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(d.banks)));
  d.read_stride = static_cast<int>(rng.uniform(1, 4));
  d.write_rate_gbps = static_cast<double>(rng.uniform(10, 50)) / 10.0;
  d.write_burst = static_cast<double>(rng.uniform(4, 16));
  d.write_bank = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(d.banks)));
  return s;
}

scn::Scenario make_admission(Rng& rng, int i) {
  scn::Scenario s;
  s.kind = scn::Kind::kAdmission;
  s.name = "bench_admission_" + std::to_string(i);
  scn::AdmissionScenario& a = s.admission;
  a.mesh_cols = 4 + i % 3;
  a.mesh_rows = 4 + (i / 3) % 3;
  a.rm_node = a.mesh_cols * a.mesh_rows - 1;
  a.packets = i % 2 == 0 ? 100 : 200;
  a.enforce = true;
  const int apps = 3 + i % 6;
  for (int k = 0; k < apps; ++k) {
    scn::AdmissionApp app;
    app.id = k + 1;
    app.burst = static_cast<double>(rng.uniform(1, 4));
    app.rate = 1.0 / static_cast<double>(rng.uniform(60, 600));
    app.src_x = static_cast<int>(rng.uniform(0, a.mesh_cols - 1));
    app.src_y = static_cast<int>(rng.uniform(0, a.mesh_rows - 1));
    app.dst_x = static_cast<int>(rng.uniform(0, a.mesh_cols - 1));
    app.dst_y = static_cast<int>(rng.uniform(0, a.mesh_rows - 1));
    app.deadline = Time::ns(rng.uniform(300, 3000));
    app.uses_dram = rng.next_below(4) == 0;
    a.apps.push_back(app);
  }
  return s;
}

/// One round of the set, in a fixed order: soc members of the families in
/// turn, each followed by a dram and an admission scenario. Generation,
/// printing and parsing are the workload's set-up.
bool build_round(std::uint64_t seed, std::vector<Item>* items, Outcome* out) {
  items->clear();
  Rng pool(kPoolSeed * 0xBF58476D1CE4E5B9ull + 17);
  Rng rng(seed * 0xBF58476D1CE4E5B9ull + 17);
  const auto& families = scn::family_names();
  for (int k = 0; k < kPerKind; ++k) {
    const std::string& f = families[static_cast<std::size_t>(k) % families.size()];
    const int member = k / static_cast<int>(families.size());
    auto g = scn::generate_scenario(f, kPoolSeed, member);
    if (!g) {
      out->check(false, "generate_scenario " + f + ": " + g.error_message());
      return false;
    }
    Item soc;
    soc.kind = scn::Kind::kSoc;
    soc.family = f;
    soc.index = member;
    soc.text = g.value().canonical();
    items->push_back(std::move(soc));
    for (scn::Scenario s : {make_dram(rng, k), make_admission(pool, k)}) {
      Item it;
      it.kind = s.kind;
      it.text = s.canonical();
      items->push_back(std::move(it));
    }
  }
  for (auto& it : *items) {
    auto p = scn::parse_scenario(it.text);
    if (!p) {
      out->check(false, "parse_scenario: " + p.error_message());
      return false;
    }
    it.parsed = std::move(p).value();
  }
  return true;
}

std::int64_t accesses_of(const pap::exp::Result& r) {
  return r.at("rt_accesses").as_int() + r.at("hog_accesses").as_int() +
         r.at("trace_accesses").as_int();
}

/// Properties of one run's Result, by scenario kind; returns the known
/// fault the run shows, if any.
std::string check_result(const Item& it, const pap::exp::Result& r, Outcome* out) {
  std::string known;
  if (it.kind == scn::Kind::kSoc) {
    const Time p50 = r.at("rt_p50").as_time();
    const Time p99 = r.at("rt_p99").as_time();
    const Time mx = r.at("rt_max").as_time();
    out->check(r.at("rt_accesses").as_int() > 0, it.parsed.name + ": no RT accesses");
    out->check(p50 <= p99 && p99 <= mx,
               it.parsed.name + ": rt_p50 <= rt_p99 <= rt_max fails");
  } else if (it.kind == scn::Kind::kAdmission && it.parsed.admission.enforce) {
    for (const auto& app : it.parsed.admission.apps) {
      const std::string n = std::to_string(app.id);
      if (!r.at("admit_app" + n).as_bool()) continue;
      const Time p99 = r.at("p99_app" + n).as_time();
      const Time bound = r.at("bound_app" + n).as_time();
      if (p99 <= bound) continue;
      const std::int64_t excess = (p99 - bound).picos();
      out->check(excess <= kKnownExcessPs,
                 it.parsed.name + ": app" + n + " simulated p99 exceeds its bound by " +
                     std::to_string(excess / 1000) + " ns");
      if (known.empty()) {
        known = it.parsed.name + ": app" + n + " simulated p99 " +
                std::to_string(p99.picos() / 1000) + " ns > bound " +
                std::to_string(bound.picos() / 1000) + " ns";
      }
    }
  }
  return known;
}

/// Run item `it`; the first Result is kept and every later one must equal
/// it. An operation that shows the known fault counts as failed every time.
RunStatus run_item(Item& it, Outcome* out, pap::exp::Result* result) {
  auto r = scn::run_parsed(it.parsed);
  if (!r) {
    out->check(false, it.parsed.name + ": " + r.error_message());
    return RunStatus::kError;
  }
  if (!it.have_result) {
    it.known_fault = check_result(it, r.value(), out);
    it.first = r.value();
    it.have_result = true;
  } else {
    out->check(r.value() == it.first, it.parsed.name + ": repeated run differs");
  }
  if (result) *result = std::move(r).value();
  return it.known_fault.empty() ? RunStatus::kOk : RunStatus::kKnownFault;
}

void count(RunStatus st, const Item& it, Outcome* out) {
  ++out->attempted;
  if (st == RunStatus::kError) ++out->failed;
  if (st == RunStatus::kKnownFault) out->fail_known(it.known_fault);
}

}  // namespace

Outcome run_scenario_sim(const Options& opt) {
  Outcome out;
  std::vector<Item> items;
  std::vector<double> setups;
  for (int k = 0; k < kSetups; ++k) {
    const auto t0 = Clock::now();
    const bool ok = build_round(opt.seed, &items, &out);
    setups.push_back(seconds_since(t0));
    if (!ok) {
      out.attempted = out.failed = 1;
      return out;
    }
  }
  for (const auto& it : items) {
    out.check(it.parsed.canonical() == it.text,
              it.parsed.name + ": parse -> print is not a fixed point");
  }

  // Whole rounds until the window closes, so every run attempts the same
  // operations in the same proportions.
  const auto timed_pass = [&](RoundWindow* win) {
    win->start();
    do {
      for (Item& it : items) {
        const auto t0 = Clock::now();
        const RunStatus st = run_item(it, &out, nullptr);
        win->add(ns_between(t0, Clock::now()) / 1000.0);
        count(st, it, &out);
      }
      win->end_round();
    } while (Clock::now() < win->end());
  };

  if (!opt.trace) {
    RoundWindow win(opt.seconds);
    timed_pass(&win);
    out.set("setup_s", median_of(setups));
    out.set("ops_per_s", win.ops_per_s());
    out.set("op_p50_us", win.p50_us());
    out.set("op_p99_us", win.p99_us());
    out.set("peak_rss_mb", peak_rss_mb());
  } else {
    RoundWindow ref(opt.seconds / 2.0);
    timed_pass(&ref);

    // Traced pass, in whole rounds: each op regenerates, prints and parses
    // its scenario, then runs it.
    SpanLog log;
    std::int64_t accesses = 0;
    double soc_run_ns = 0.0;
    Samples run_ns;
    const auto t_start = Clock::now();
    const auto t_end = t_start + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(opt.seconds / 2.0));
    std::size_t op = 0;
    do {
      for (Item& it : items) {
        const auto c0 = Clock::now();
        std::string text = it.text;
        if (it.kind == scn::Kind::kSoc) {
          log.time("scenario", "generate", op, [&] {
            auto g = scn::generate_scenario(it.family, kPoolSeed, it.index);
            text = g ? g.value().canonical() : std::string();
          });
          out.check(text == it.text, it.parsed.name + ": regenerated text differs");
        }
        pap::Expected<scn::Scenario> parsed = pap::Expected<scn::Scenario>::error("");
        log.time("scenario", "parse", op, [&] { parsed = scn::parse_scenario(text); });
        out.check(parsed && parsed.value().canonical() == it.text,
                  it.parsed.name + ": reparse differs");
        const char* name = it.kind == scn::Kind::kSoc    ? "soc_run"
                           : it.kind == scn::Kind::kDram ? "dram_run"
                                                         : "admission_run";
        pap::exp::Result result;
        RunStatus st = RunStatus::kOk;
        const double ns =
            log.time("sim", name, op, [&] { st = run_item(it, &out, &result); });
        run_ns.add(ns);
        count(st, it, &out);
        if (st != RunStatus::kError && it.kind == scn::Kind::kSoc) {
          accesses += accesses_of(result);
          soc_run_ns += ns;
        }
        log.record("scenario", "cycle", op, c0, Clock::now());
        ++op;
      }
    } while (Clock::now() < t_end && op + items.size() <= kMaxTracedOps);
    const double wall = seconds_since(t_start);
    const auto ms = [&](const char* n) { return log.durations("sim", n).median() / 1e6; };
    out.set("scenario.generate_us", log.durations("scenario", "generate").median() / 1000.0);
    out.set("scenario.parse_us", log.durations("scenario", "parse").median() / 1000.0);
    out.set("sim.soc_run_ms", ms("soc_run"));
    out.set("sim.dram_run_ms", ms("dram_run"));
    out.set("sim.admission_run_ms", ms("admission_run"));
    out.set("sim.host_ns_per_access",
            accesses > 0 ? soc_run_ns / static_cast<double>(accesses) : 0.0);
    out.set("sim_accesses_per_s", static_cast<double>(accesses) / wall);
    Samples whole, parts;
    log.per_op("scenario.cycle",
               {"scenario.generate", "scenario.parse", "sim.soc_run", "sim.dram_run",
                "sim.admission_run"},
               &whole, &parts);
    out.set("unattributed_pct", unattributed_pct(whole, parts));
    out.set("trace_overhead_pct", overhead_pct(run_ns.median() / 1000.0, ref.p50_us()));
    log.write_chrome(opt.scratch + "/scenario_sim.trace.json");
  }

  // A repeated run must give the identical Result.
  for (std::size_t i = 0; i < items.size(); i += kRecheckEvery) {
    run_item(items[i], &out, nullptr);
  }
  return out;
}

}  // namespace perfbench
