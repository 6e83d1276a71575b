// perfbench — the repository benchmark (see README.md in this directory).
//
//   perfbench --workload NAME|all --seed N --seconds S --trace 0|1
//             [--scratch DIR]
//
// With --trace 0 a run reports the end-to-end metrics of its untraced
// pass; with --trace 1 it reports the per-layer metrics of a traced pass
// (plus an untraced reference pass for the tracing overhead). The last
// line of stdout is one JSON object: correct, attempted, failed, metrics.
// The exit code is non-zero on any failed output check, and on any failed
// operation other than those of a known fault (see Outcome::fail_known).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "bench.hpp"

using namespace perfbench;

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The metric catalogue: names and units as BENCHMARK.json lists them
// (run.py checks every result against that file).
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},       {"ops_per_s", "op/s"},   {"op_p50_us", "us"},
    {"op_p99_us", "us"},    {"peak_rss_mb", "MB"},
};

// Layers a workload does not call read 0 (see README.md).
constexpr MetricSpec kPerLayer[] = {
    {"serve.transport_us", "us"},
    {"serve.parse_ns", "ns"},
    {"serve.key_ns", "ns"},
    {"serve.service_hit_ns", "ns"},
    {"serve.lru_hit_ratio", "ratio"},
    {"serve.render_ns", "ns"},
    {"serve.dispatch_us.admission_check", "us"},
    {"serve.dispatch_us.wcd_bound", "us"},
    {"serve.dispatch_us.nc_delay", "us"},
    {"serve.disk_store_us", "us"},
    {"serve.disk_load_us", "us"},
    {"core.admission_request_us", "us"},
    {"dram.service_curve_us", "us"},
    {"admit.request_us", "us"},
    {"admit.release_us", "us"},
    {"admit.query_ns", "ns"},
    {"admit.dirty_flows", "count"},
    {"admit.dirty_links", "count"},
    {"admit.self_us", "us"},
    {"core.flat_paths_us", "us"},
    {"core.propagate_flat_us", "us"},
    {"core.chain_view_us", "us"},
    {"core.dram_service_us", "us"},
    {"core.e2e_bounds_into_us", "us"},
    {"nc.deviation_ns", "ns"},
    {"scenario.generate_us", "us"},
    {"scenario.parse_us", "us"},
    {"sim.soc_run_ms", "ms"},
    {"sim.dram_run_ms", "ms"},
    {"sim.admission_run_ms", "ms"},
    {"sim.host_ns_per_access", "ns"},
    {"sim_accesses_per_s", "access/s"},
    {"unattributed_pct", "%"},
    {"trace_overhead_pct", "%"},
};

const char* const kWorkloads[] = {"papd_hot", "papd_cold", "admit_churn",
                                  "scenario_sim"};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "papd_hot|papd_cold|admit_churn|scenario_sim|all --seed N "
               "--seconds S --trace 0|1 [--scratch DIR]\n",
               why);
  std::exit(64);
}

Options parse_args(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      o.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), &end, 10);
      if (end == v.c_str() || *end != '\0') usage("bad --seed");
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || o.seconds <= 0.0 ||
          o.seconds > 120.0) {
        usage("bad --seconds (0 < S <= 120)");
      }
    } else if (a == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      o.trace = v == "1";
    } else if (a == "--scratch") {
      o.scratch = v;
    } else {
      usage(("unknown flag " + a).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  return o;
}

Outcome run_one(const Options& o) {
  if (o.workload == "papd_hot") return run_papd(o, /*cold=*/false);
  if (o.workload == "papd_cold") return run_papd(o, /*cold=*/true);
  if (o.workload == "admit_churn") return run_admit_churn(o);
  if (o.workload == "scenario_sim") return run_scenario_sim(o);
  usage(("unknown workload " + o.workload).c_str());
}

struct Reported {
  std::string name;
  double value;
  const char* unit;
};

/// The run's metrics in catalogue order, with their units; a per-layer
/// metric the workload did not measure reads 0, a missing end-to-end one
/// (or a name outside the catalogue) makes the run incorrect.
std::vector<Reported> complete(const Options& o, Outcome* out) {
  std::vector<Reported> ordered;
  const auto take = [&](const MetricSpec& spec, bool required) {
    for (const auto& m : out->metrics) {
      if (m.name == spec.name) {
        ordered.push_back(Reported{m.name, m.value, spec.unit});
        return;
      }
    }
    if (required) {
      out->check(false, o.workload + " did not report " + spec.name);
    }
    ordered.push_back(Reported{spec.name, 0.0, spec.unit});
  };
  if (o.trace) {
    for (const auto& s : kPerLayer) take(s, false);
  } else {
    for (const auto& s : kEndToEnd) take(s, true);
  }
  for (const auto& m : out->metrics) {
    const bool known = std::any_of(ordered.begin(), ordered.end(),
                                   [&](const Reported& r) { return r.name == m.name; });
    out->check(known, o.workload + " reported " + m.name +
                          ", which is not in this pass's catalogue");
  }
  return ordered;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

std::string metrics_json(const std::vector<Reported>& metrics,
                         const std::string& prefix) {
  std::string s;
  for (const auto& m : metrics) {
    if (!s.empty()) s += ", ";
    s += "\"" + prefix + m.name + "\": {\"value\": " + json_number(m.value) +
         ", \"unit\": \"" + m.unit + "\"}";
  }
  return s;
}

std::string json_line(const Outcome& out, const std::string& metrics) {
  return std::string("{\"correct\": ") + (out.correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(out.attempted) +
         ", \"failed\": " + std::to_string(out.failed) + ", \"metrics\": {" +
         metrics + "}}";
}

void print_table(const Options& o, const Outcome& out,
                 const std::vector<Reported>& metrics) {
  std::printf("== %s (seed %llu, %s pass) ==\n", o.workload.c_str(),
              static_cast<unsigned long long>(o.seed),
              o.trace ? "traced" : "untraced");
  for (const auto& m : metrics) {
    std::printf("%-13s seed=%-6llu attempted=%-9lld failed=%-3lld %-36s %16.6f %s\n",
                o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                static_cast<long long>(out.attempted),
                static_cast<long long>(out.failed), m.name.c_str(), m.value,
                m.unit);
  }
  for (const auto& f : out.known_faults) {
    std::printf("%s KNOWN FAULT (counted in failed): %s\n", o.workload.c_str(),
                f.c_str());
  }
  for (const auto& f : out.check_failures) {
    std::printf("%s CHECK FAILED: %s\n", o.workload.c_str(), f.c_str());
  }
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  std::error_code ec;
  std::filesystem::create_directories(opt.scratch, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s: %s\n",
                 opt.scratch.c_str(), ec.message().c_str());
    return 1;
  }

  std::vector<std::string> names;
  if (opt.workload == "all") {
    names.assign(std::begin(kWorkloads), std::end(kWorkloads));
  } else {
    names.push_back(opt.workload);
  }

  Outcome total;
  std::vector<std::pair<std::string, std::vector<Reported>>> runs;
  for (const auto& name : names) {
    Options o = opt;
    o.workload = name;
    pin_to_one_cpu();
    Outcome out = run_one(o);
    unpin();
    const auto metrics = complete(o, &out);
    print_table(o, out, metrics);
    total.correct = total.correct && out.correct;
    total.attempted += out.attempted;
    total.failed += out.failed;
    total.known_failed += out.known_failed;
    runs.emplace_back(name, metrics);
  }

  // One object for the whole set; with several workloads each metric is
  // prefixed by its workload.
  std::string metrics;
  for (const auto& [name, reported] : runs) {
    if (!metrics.empty()) metrics += ", ";
    metrics += metrics_json(reported, runs.size() == 1 ? "" : name + ".");
  }
  std::printf("%s\n", json_line(total, metrics).c_str());
  std::fflush(stdout);
  // Any failed operation fails the run, except those of a known fault.
  const bool ok = total.correct && total.failed == total.known_failed;
  return ok ? 0 : 1;
}
