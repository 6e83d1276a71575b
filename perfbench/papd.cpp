// papd_hot and papd_cold: an in-process serve::Server on a Unix socket,
// driven by one client thread over one connection in a closed loop with
// one request in flight (a request is sent only when the last one has been
// answered, as a papd caller that waits for its reply does).
//
// Threads: the client (this thread), one reactor and one service worker,
// plus the acceptor, which sleeps in accept() once the connection is up;
// main.cpp pins them all to one CPU (see pin_to_one_cpu).
//
// papd_hot cycles over a small key set that set-up already put in the LRU,
// so the front end does all the work. papd_cold gives every request a
// distinct identity (the Weyl draw below), so every request runs its
// handler and writes the LRU. The server runs without its disk tier: on
// the shared disk this was built on, consecutive 5 s runs of
// DiskCache::store managed anywhere from 10k to 99k stores, which would
// swamp every end-to-end figure. The traced pass times DiskCache::store
// and load in process instead.
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "bench.hpp"
#include "common/rng.hpp"
#include "core/admission.hpp"
#include "dram/wcd.hpp"
#include "noc/topology.hpp"
#include "serve/client.hpp"
#include "serve/diskcache.hpp"
#include "serve/handlers.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace perfbench {
namespace {

using pap::Rng;
using pap::Time;
namespace serve = pap::serve;

// One request in flight: with more, all three threads on one CPU switch
// between batching modes from second to second (README.md), and the
// figures measure the scheduler instead of papd.
constexpr int kPipelineDepth = 1;
constexpr int kHotKeys = 64;
constexpr int kSetups = 11;  // set-up repetitions; setup_s is their median
// Index ranges of the request generator, kept apart so no pass repeats an
// identity another pass (or set-up) already cached.
constexpr std::uint64_t kHotBase = 1ull << 40;
constexpr std::uint64_t kWarmBase = 1ull << 41;
constexpr std::uint64_t kRefBase = 1ull << 42;
constexpr std::uint64_t kTracedBase = 1ull << 43;
// The traced pass keeps every span in memory; this caps its size.
constexpr std::uint64_t kMaxTracedOps = 5000;

// ---------------------------------------------------------------------------
// Request generator: request `index` under `seed` is a pure function of the
// two. A round of ten is 5 admission_check, 3 wcd_bound, 2 nc_delay: the
// mix of the repository's own papd load generator (tools/pap_loadgen.cpp).

enum class Op { kAdmission, kWcd, kNc };

struct GenApp {
  double burst = 1.0, rate = 0.0;
  int sx = 0, sy = 0, dx = 0, dy = 0;
  double deadline_ns = 0.0;
  bool dram = false, critical = true;
};

struct GenReq {
  Op op = Op::kNc;
  std::string params;  // JSON object
  int cols = 4, rows = 4;
  std::vector<GenApp> apps;
  double write_gbps = 0.0;
  int n = 1;
  std::string policy, device;
  double ab = 0.0, ar = 0.0, sr = 1.0, sl = 0.0;
};

const char* op_name(Op op) {
  switch (op) {
    case Op::kAdmission: return "admission_check";
    case Op::kWcd: return "wcd_bound";
    case Op::kNc: return "nc_delay";
  }
  return "?";
}

Op op_of(std::uint64_t index) {
  const std::uint64_t slot = index % 10;
  if (slot < 5) return Op::kAdmission;
  if (slot < 8) return Op::kWcd;
  return Op::kNc;
}

/// Distinct per index by construction: the golden-ratio Weyl sequence
/// never repeats a value, so each request has its own cache identity.
double weyl(std::uint64_t seed, std::uint64_t index) {
  const std::uint64_t w = seed * 0xD1B54A32D192ED03ull +
                          index * 0x9E3779B97F4A7C15ull;
  return static_cast<double>(w >> 11) * 0x1.0p-53;
}

std::string num(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, v);
  return buf;
}

GenReq make_request(std::uint64_t seed, std::uint64_t index) {
  // The shape of a request (op, app count, DRAM and criticality flags,
  // policy, device) is a function of the index alone, so every seed offers
  // the same mix of work; the seed draws the values.
  GenReq g;
  g.op = op_of(index);
  Rng rng(seed * 0x2545F4914F6CDD1Dull ^ (index + 0x632BE59BD9B4E019ull));
  const double w = std::round(weyl(seed, index) * 1e9) / 1e9;
  std::string p = "{";
  switch (g.op) {
    case Op::kAdmission: {
      g.cols = 4 + static_cast<int>(index % 5);
      g.rows = 4 + static_cast<int>((index / 5) % 5);
      const int n = 2 + static_cast<int>(index % 7);
      p += "\"mesh_cols\":" + std::to_string(g.cols) +
           ",\"mesh_rows\":" + std::to_string(g.rows) + ",\"apps\":[";
      for (int i = 0; i < n; ++i) {
        GenApp a;
        a.burst = i == 0 ? 1.0 + 7.0 * w
                         : std::round((1.0 + 7.0 * rng.next_double()) * 1e3) / 1e3;
        a.rate = std::round((0.0005 + 0.0095 * rng.next_double()) * 1e6) / 1e6;
        a.sx = static_cast<int>(rng.uniform(0, g.cols - 1));
        a.sy = static_cast<int>(rng.uniform(0, g.rows - 1));
        a.dx = static_cast<int>(rng.uniform(0, g.cols - 1));
        a.dy = static_cast<int>(rng.uniform(0, g.rows - 1));
        a.deadline_ns = static_cast<double>(rng.uniform(800, 5000));
        a.dram = (index + static_cast<std::uint64_t>(i)) % 3 == 0;
        a.critical = (index + static_cast<std::uint64_t>(i)) % 2 == 0;
        g.apps.push_back(a);
        if (i > 0) p += ",";
        p += "{\"burst\":" + num(a.burst, 9) + ",\"rate\":" + num(a.rate, 6) +
             ",\"src_x\":" + std::to_string(a.sx) +
             ",\"src_y\":" + std::to_string(a.sy) +
             ",\"dst_x\":" + std::to_string(a.dx) +
             ",\"dst_y\":" + std::to_string(a.dy) +
             ",\"deadline_ns\":" + num(a.deadline_ns, 1) +
             ",\"uses_dram\":" + (a.dram ? "true" : "false") +
             ",\"critical\":" + (a.critical ? "true" : "false") + "}";
      }
      p += "]";
      break;
    }
    case Op::kWcd: {
      static const char* const kPolicies[] = {"frfcfs", "fcfs", "close_page",
                                              "starvation_guard"};
      static const char* const kDevices[] = {"ddr3_1600", "ddr4_2400",
                                             "lpddr4_3200"};
      g.write_gbps = 1.0 + 4.5 * w;
      g.n = static_cast<int>(rng.uniform(1, 32));
      g.policy = kPolicies[(index / 10) % 4];
      g.device = kDevices[(index / 40) % 3];
      p += "\"write_gbps\":" + num(g.write_gbps, 9) +
           ",\"n\":" + std::to_string(g.n) + ",\"dram\":{\"policy\":\"" +
           g.policy + "\",\"device\":\"" + g.device + "\"}";
      break;
    }
    case Op::kNc: {
      g.ab = 100.0 * w;
      g.ar = std::round((0.01 + 2.0 * rng.next_double()) * 1e6) / 1e6;
      g.sr = std::round((0.5 + 3.5 * rng.next_double()) * 1e6) / 1e6;
      g.sl = std::round(500.0 * rng.next_double() * 1e3) / 1e3;
      if (g.ar == g.sr) g.ar += 0.001;
      p += "\"arrival\":{\"burst\":" + num(g.ab, 9) +
           ",\"rate\":" + num(g.ar, 6) + "},\"service\":{\"rate\":" +
           num(g.sr, 6) + ",\"latency_ns\":" + num(g.sl, 3) + "}";
      break;
    }
  }
  g.params = p + "}";
  return g;
}

std::string line_for(const GenReq& g, std::int64_t id) {
  return "{\"id\":" + std::to_string(id) + ",\"op\":\"" + op_name(g.op) +
         "\",\"params\":" + g.params + "}";
}

/// In-process answer to a request line: the reply serve::dispatch gives.
struct Local {
  bool ok = false;
  pap::exp::Result result;
  std::string payload;
};

Local dispatch_local(const std::string& line) {
  Local l;
  const auto req = serve::parse_request(line);
  if (!req) return l;
  auto out = serve::dispatch(req.value().op, req.value().params,
                             serve::HandlerLimits{});
  if (!out.ok) return l;
  l.ok = true;
  l.payload = serve::render_result(out.result);
  l.result = std::move(out.result);
  return l;
}

// ---------------------------------------------------------------------------
// Output checks, each against a computation made apart from the program or
// against a property the method must have.

/// admission_check: every granted app meets its deadline.
void check_admission(const GenReq& g, const pap::exp::Result& r,
                     Outcome* out) {
  for (std::size_t i = 0; i < g.apps.size(); ++i) {
    const std::string k = "app" + std::to_string(i + 1);
    const auto* admitted = r.find(k + ".admitted");
    out->check(admitted != nullptr, "admission_check reply lacks " + k);
    if (admitted == nullptr || !admitted->as_bool()) continue;
    const auto* bound = r.find(k + ".bound");
    out->check(bound != nullptr &&
                   bound->as_time().nanos() <= g.apps[i].deadline_ns + 1e-9,
               "admission_check granted " + k + " past its deadline");
  }
}

double metric_ns(const pap::exp::Result& r, const char* name) {
  const auto* v = r.find(name);
  return v == nullptr ? std::nan("") : v->as_double();
}

double wcd_upper(const GenReq& g, double gbps, int n) {
  GenReq h = g;
  h.write_gbps = gbps;
  h.n = n;
  const std::string params = "{\"write_gbps\":" + num(gbps, 9) +
                             ",\"n\":" + std::to_string(n) +
                             ",\"dram\":{\"policy\":\"" + g.policy +
                             "\",\"device\":\"" + g.device + "\"}}";
  h.params = params;
  const Local l = dispatch_local(line_for(h, 0));
  return l.ok ? metric_ns(l.result, "upper") : std::nan("");
}

/// wcd_bound: lower <= upper, and upper does not fall as the write rate
/// or the queue position rises.
void check_wcd(const GenReq& g, const pap::exp::Result& r, Outcome* out) {
  const double lower = metric_ns(r, "lower");
  const double upper = metric_ns(r, "upper");
  out->check(lower <= upper, "wcd_bound lower > upper");
  const double up_rate = wcd_upper(g, g.write_gbps + 0.25, g.n);
  out->check(up_rate >= upper,
             "wcd_bound upper falls as write rate rises (" + g.policy + "/" +
                 g.device + ")");
  if (g.n < 256) {
    const double up_n = wcd_upper(g, g.write_gbps, g.n + 1);
    out->check(up_n >= upper, "wcd_bound upper falls as n rises (" +
                                  g.policy + "/" + g.device + ")");
  }
}

/// nc_delay: token bucket (b, r) through rate-latency (R, T) has delay
/// T + b/R and backlog b + r*T, and no bound when r > R.
void check_nc(const GenReq& g, const pap::exp::Result& r, Outcome* out) {
  const auto* bounded = r.find("bounded");
  out->check(bounded != nullptr, "nc_delay reply lacks 'bounded'");
  if (bounded == nullptr) return;
  if (g.ar > g.sr) {
    out->check(!bounded->as_bool(), "nc_delay bounded although r > R");
    return;
  }
  out->check(bounded->as_bool(), "nc_delay unbounded although r <= R");
  if (!bounded->as_bool()) return;
  const double delay = metric_ns(r, "delay");
  const double backlog = metric_ns(r, "backlog");
  const double want_delay = g.sl + g.ab / g.sr;
  const double want_backlog = g.ab + g.ar * g.sl;
  out->check(std::fabs(delay - want_delay) <= 0.002 + 1e-9 * want_delay,
             "nc_delay delay != T + b/R");
  out->check(std::fabs(backlog - want_backlog) <= 1e-6 + 1e-9 * want_backlog,
             "nc_delay backlog != b + r*T");
}

void check_request(const GenReq& g, const pap::exp::Result& r, Outcome* out) {
  switch (g.op) {
    case Op::kAdmission: check_admission(g, r, out); break;
    case Op::kWcd: check_wcd(g, r, out); break;
    case Op::kNc: check_nc(g, r, out); break;
  }
}

/// Table II of the paper (FR-FCFS DDR3-1600, n = 13): published bounds.
struct PaperRow {
  double gbps, lower, upper;
};
constexpr PaperRow kTable2[] = {{4, 1971.711, 1977.542},
                                {5, 2957.983, 2963.814},
                                {6, 3934.259, 3950.086},
                                {7, 5886.811, 6908.902}};

// ---------------------------------------------------------------------------
// Socket loop.

std::int64_t reply_id(const std::string& reply) {
  // Every reply starts with {"id":N, (serve/protocol.cpp).
  if (reply.compare(0, 6, "{\"id\":") != 0) return -1;
  return std::strtoll(reply.c_str() + 6, nullptr, 10);
}

bool reply_ok(const std::string& reply) {
  const auto comma = reply.find(',');
  return comma != std::string::npos &&
         reply.compare(comma, 11, ",\"ok\":true,") == 0;
}

struct PassStats {
  std::int64_t issued = 0;
  std::int64_t failed = 0;
};

/// Closed loop with `depth` requests in flight on one connection for the
/// window; then the requests still in flight are drained. `make(id)`
/// builds request `id`'s line; `on_reply(id, reply)` checks it.
template <typename Make, typename OnReply>
bool closed_loop(serve::Client& client, int depth, SlicedWindow* win,
                 std::int64_t first_id, Make&& make, OnReply&& on_reply,
                 PassStats* st) {
  constexpr std::size_t kRing = 4096;  // > depth: ids in flight never alias
  std::vector<Clock::time_point> sent(kRing);
  std::int64_t next = first_id;
  int inflight = 0;
  win->start();
  const auto deadline = win->end();
  const auto send = [&]() -> bool {
    const std::string line = make(next);
    sent[static_cast<std::size_t>(next) % kRing] = Clock::now();
    if (!client.send_line(line).is_ok()) return false;
    ++next;
    ++inflight;
    ++st->issued;
    return true;
  };
  for (int i = 0; i < depth; ++i) {
    if (!send()) return false;
  }
  while (inflight > 0) {
    auto reply = client.read_line();
    const auto t1 = Clock::now();
    if (!reply) return false;
    --inflight;
    const std::int64_t id = reply_id(reply.value());
    if (id < first_id || id >= next) return false;
    win->add(t1, ns_between(sent[static_cast<std::size_t>(id) % kRing], t1) /
                     1000.0);
    if (!on_reply(id, reply.value())) ++st->failed;
    if (t1 < deadline && !send()) return false;
  }
  return true;
}

std::uint64_t counter(const serve::AnalysisService& svc, const char* op,
                      const char* what) {
  const auto e = svc.counters().sample("serve", std::string(op) + "/" + what);
  return e ? static_cast<std::uint64_t>(e->value) : 0;
}

struct Rig {
  std::unique_ptr<serve::Server> server;
  serve::Client client;
};

std::string socket_path(const Options& opt, bool cold, int k) {
  return opt.scratch + "/papd-" + std::to_string(::getpid()) +
         (cold ? "-cold" : "-hot") + std::to_string(k) + ".sock";
}

bool start_rig(const std::string& sock, Rig* rig, std::string* why) {
  serve::ServerConfig cfg;
  cfg.unix_path = sock;
  cfg.reactors = 1;
  cfg.service.workers = 1;
  rig->server = std::make_unique<serve::Server>(cfg);
  const auto st = rig->server->start();
  if (!st.is_ok()) {
    *why = "server start: " + st.message();
    return false;
  }
  auto c = serve::Client::connect_unix(sock);
  if (!c) {
    *why = "connect: " + c.error_message();
    return false;
  }
  rig->client = std::move(c).value();
  return true;
}

void stop_rig(Rig* rig) {
  rig->client.close();
  if (rig->server) rig->server->stop();
  rig->server.reset();
}

/// Cold replies are checked after the timed window: request `id` is
/// regenerated, answered in process, and must hash equal to the reply.
void verify_cold(std::uint64_t seed, std::uint64_t base,
                 const std::vector<std::uint64_t>& hashes, Outcome* out) {
  // Untimed: spread over every CPU, then pin again.
  unpin();
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const unsigned nthreads = std::min(4u, hw);
  std::vector<Outcome> parts(nthreads);
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < nthreads; ++t) {
    pool.emplace_back([&, t] {
      for (std::size_t i = t; i < hashes.size(); i += nthreads) {
        const auto id = static_cast<std::int64_t>(base + i);
        const GenReq g = make_request(seed, base + i);
        const Local l = dispatch_local(line_for(g, id));
        parts[t].check(l.ok, "in-process dispatch failed");
        if (!l.ok) continue;
        parts[t].check(serve::fnv1a64(serve::ok_reply(id, l.payload)) ==
                           hashes[i],
                       std::string(op_name(g.op)) +
                           " reply differs from in-process dispatch");
        check_request(g, l.result, &parts[t]);
      }
    });
  }
  for (auto& th : pool) th.join();
  pin_to_one_cpu();
  for (const auto& p : parts) {
    for (const auto& f : p.check_failures) out->check(false, f);
  }
}

}  // namespace

Outcome run_papd(const Options& opt, bool cold) {
  Outcome out;
  const std::string run_dir = opt.scratch + "/papd-" +
                              std::to_string(::getpid()) +
                              (cold ? "-cold" : "-hot");
  std::filesystem::remove_all(run_dir);
  std::filesystem::create_directories(run_dir);

  // Hot key set and its in-process answers.
  std::vector<GenReq> hot;
  std::vector<std::string> hot_suffix;  // reply bytes after {"id":N
  if (!cold) {
    for (int k = 0; k < kHotKeys; ++k) {
      hot.push_back(make_request(opt.seed, kHotBase + k));
      const Local l = dispatch_local(line_for(hot.back(), 0));
      out.check(l.ok, "hot key dispatch failed");
      if (l.ok) check_request(hot.back(), l.result, &out);
      hot_suffix.push_back(",\"ok\":true,\"result\":" + l.payload + "}");
    }
  }
  const auto hot_ok = [&](std::int64_t id, const std::string& reply) {
    const std::string& want = hot_suffix[static_cast<std::size_t>(id) % kHotKeys];
    const std::string prefix = "{\"id\":" + std::to_string(id);
    return reply.size() == prefix.size() + want.size() &&
           reply.compare(0, prefix.size(), prefix) == 0 &&
           reply.compare(prefix.size(), std::string::npos, want) == 0;
  };

  // Set-up, kSetups times: server start + warm-up. Hot warms the LRU with
  // the key set; cold runs the Table II points and a few distinct
  // requests through every handler (arena and page warm-up). The last
  // rig stays up for the measured passes.
  Rig rig;
  std::vector<double> setups;
  std::string why;
  for (int k = 0; k < kSetups; ++k) {
    if (k > 0) stop_rig(&rig);
    const auto t0 = Clock::now();
    if (!start_rig(socket_path(opt, cold, k), &rig, &why)) {
      out.check(false, why);
      stop_rig(&rig);
      return out;
    }
    bool ok = true;
    if (!cold) {
      for (int h = 0; h < kHotKeys && ok; ++h) {
        const auto r = rig.client.call(line_for(hot[h], h));
        ok = r && hot_ok(h, r.value());
      }
    } else {
      for (const auto& row : kTable2) {
        const std::string line = "{\"id\":1,\"op\":\"wcd_bound\",\"params\":"
                                 "{\"write_gbps\":" + num(row.gbps, 1) +
                                 ",\"n\":13}}";
        const auto r = rig.client.call(line);
        ok = ok && r && reply_ok(r.value());
        if (!r || k > 0) continue;
        const auto j = serve::json_parse(r.value());
        const auto* m = j ? j.value().get("result") : nullptr;
        m = m ? m->get("metrics") : nullptr;
        const auto* lo = m ? m->get("lower") : nullptr;
        const auto* up = m ? m->get("upper") : nullptr;
        out.check(lo && up &&
                      std::fabs(lo->number() - row.lower) <= 0.01 * row.lower &&
                      std::fabs(up->number() - row.upper) <= 0.01 * row.upper,
                  "wcd_bound misses Table II at " + num(row.gbps, 0) +
                      " Gbps by more than 1 %");
      }
      for (int w = 0; w < 30 && ok; ++w) {
        const auto idx = kWarmBase + static_cast<std::uint64_t>(w);
        const auto r = rig.client.call(line_for(make_request(opt.seed, idx), 2));
        ok = r && reply_ok(r.value());
      }
    }
    setups.push_back(seconds_since(t0));
    out.check(ok, "set-up warm-up request failed");
    if (!ok) {
      stop_rig(&rig);
      return out;
    }
  }

  serve::AnalysisService& svc = rig.server->service();
  // Touched up front so peak RSS does not track throughput.
  std::vector<std::uint64_t> hashes(cold ? 1 << 21 : 0, 0);
  const auto cold_make = [&](std::int64_t id) {
    return line_for(make_request(opt.seed, static_cast<std::uint64_t>(id)),
                    id);
  };
  const auto cold_record = [&](std::uint64_t base) {
    return [&, base](std::int64_t id, const std::string& reply) {
      const std::size_t i = static_cast<std::size_t>(id) - base;
      if (hashes.size() <= i) hashes.resize(2 * i + 1, 0);
      hashes[i] = serve::fnv1a64(reply);
      return reply_ok(reply);
    };
  };
  const auto hot_make = [&](std::int64_t id) {
    return line_for(hot[static_cast<std::size_t>(id) % kHotKeys], id);
  };

  struct Counts {
    std::uint64_t hits = 0, reqs = 0;
  };
  const auto lru_sample = [&] {
    Counts c;
    for (Op op : {Op::kAdmission, Op::kWcd, Op::kNc}) {
      c.hits += counter(svc, op_name(op), "cache_hits");
      c.reqs += counter(svc, op_name(op), "requests");
    }
    return c;
  };
  Counts c0, c1;

  bool loop_ok = true;
  if (!opt.trace) {
    // Untraced pass: the end-to-end metrics.
    PassStats st;
    SlicedWindow win(opt.seconds);
    c0 = lru_sample();
    if (cold) {
      loop_ok = closed_loop(rig.client, kPipelineDepth, &win, 0, cold_make,
                            cold_record(0), &st);
    } else {
      loop_ok = closed_loop(rig.client, kPipelineDepth, &win, 0, hot_make,
                            hot_ok, &st);
    }
    c1 = lru_sample();
    stop_rig(&rig);
    out.attempted = st.issued;
    out.failed = st.failed;
    out.set("setup_s", median_of(setups));
    out.set("ops_per_s", win.ops_per_s());
    out.set("op_p50_us", win.p50_us());
    out.set("op_p99_us", win.p99_us());
    out.set("peak_rss_mb", peak_rss_mb());
    if (cold) {
      out.check(c1.hits == c0.hits, "a cold request was answered from the LRU");
      hashes.resize(static_cast<std::size_t>(st.issued));
      verify_cold(opt.seed, 0, hashes, &out);
    } else {
      out.check(c1.hits - c0.hits == c1.reqs - c0.reqs,
                "a hot request missed the LRU");
    }
  } else {
    // Untraced reference at one request in flight, for the overhead.
    PassStats ref;
    const double half = opt.seconds / 2.0;
    SlicedWindow ref_win(half);
    if (cold) {
      loop_ok = closed_loop(rig.client, 1, &ref_win, kRefBase, cold_make,
                            cold_record(kRefBase), &ref);
    } else {
      loop_ok = closed_loop(rig.client, 1, &ref_win, 0, hot_make, hot_ok, &ref);
    }
    out.attempted += ref.issued;
    out.failed += ref.failed;
    if (cold) {
      hashes.resize(static_cast<std::size_t>(ref.issued));
      verify_cold(opt.seed, kRefBase, hashes, &out);
    }

    // Traced pass at one request in flight: each stage is timed in
    // process on the same request, then the request goes over the socket.
    SpanLog log;
    serve::DiskCache disk(run_dir + "/bench-disk");
    const serve::HandlerLimits limits;
    c0 = lru_sample();
    std::uint64_t opn = 0;
    const auto t_end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                          std::chrono::duration<double>(half));
    while (Clock::now() < t_end && opn < kMaxTracedOps && loop_ok) {
      const std::uint64_t id = cold ? kTracedBase + opn : opn;
      const GenReq& g = cold ? make_request(opt.seed, id)
                             : hot[static_cast<std::size_t>(id) % kHotKeys];
      const std::string line = line_for(g, static_cast<std::int64_t>(id));
      log.time("serve", "transport", opn, [&] {
        const auto r = rig.client.call("{\"id\":0,\"op\":\"ping\"}");
        loop_ok = loop_ok && r.has_value();
      });
      pap::Expected<serve::Request> req = pap::Expected<serve::Request>::error("");
      log.time("serve", "parse", opn, [&] { req = serve::parse_request(line); });
      if (!req) {
        out.check(false, "parse_request rejected a generated request");
        break;
      }
      std::string key;
      log.time("serve", "key", opn, [&] { key = req.value().key(); });
      std::string want;
      if (!cold) {
        log.time("serve", "service_hit", opn, [&] { want = svc.handle(line); });
        out.check(hot_ok(static_cast<std::int64_t>(id), want),
                  "in-process LRU hit differs from dispatch");
        const Local l = dispatch_local(line);
        log.time("serve", "render", opn, [&] {
          want = serve::ok_reply(static_cast<std::int64_t>(id),
                                 serve::render_result(l.result));
        });
      } else {
        serve::HandlerOutcome res;
        const std::string dname = std::string("dispatch.") + op_name(g.op);
        log.time("serve", dname.c_str(), opn, [&] {
          res = serve::dispatch(req.value().op, req.value().params, limits);
        });
        out.check(res.ok, "in-process dispatch failed");
        std::string payload;
        log.time("serve", "render", opn, [&] {
          payload = serve::render_result(res.result);
          want = serve::ok_reply(static_cast<std::int64_t>(id), payload);
        });
        log.time("serve", "disk_store", opn, [&] { disk.store(key, payload); });
        std::optional<std::string> loaded;
        log.time("serve", "disk_load", opn, [&] { loaded = disk.load(key); });
        out.check(loaded == payload, "disk tier did not return the stored payload");
        if (res.ok) check_request(g, res.result, &out);
        if (g.op == Op::kAdmission) {
          // The handler's admission engine, decision by decision.
          pap::core::PlatformModel model;
          model.noc.cols = g.cols;
          model.noc.rows = g.rows;
          pap::noc::Mesh2D mesh(g.cols, g.rows);
          pap::core::AdmissionController ac(model);
          pap::nc::TokenBucket writes = model.background_writes;
          for (const auto& a : g.apps) {
            if (a.dram) {
              writes.burst += a.burst;
              writes.rate += a.rate;
            }
          }
          for (std::size_t i = 0; i < g.apps.size(); ++i) {
            const GenApp& a = g.apps[i];
            pap::core::AppRequirement r;
            r.app = static_cast<pap::noc::AppId>(i + 1);
            r.name = "app" + std::to_string(i + 1);
            r.traffic = pap::nc::TokenBucket{a.burst, a.rate};
            r.src = mesh.node(a.sx, a.sy);
            r.dst = mesh.node(a.dx, a.dy);
            r.deadline = Time::from_ns(a.deadline_ns);
            r.uses_dram = a.dram;
            if (a.critical) r.asil = pap::sched::Asil::kC;
            log.time("core", "admission_request", opn,
                     [&] { (void)ac.request(r); });
            if (a.dram) {
              pap::nc::TokenBucket others = writes;
              others.burst -= a.burst;
              others.rate -= a.rate;
              pap::dram::WcdAnalysis wcd(model.dram, model.dram_ctrl, others);
              log.time("dram", "service_curve", opn, [&] {
                (void)wcd.service_curve(model.dram_service_depth);
              });
            }
          }
        }
      }
      std::string got;
      log.time("serve", "op", opn, [&] {
        const auto r = rig.client.call(line);
        loop_ok = loop_ok && r.has_value();
        if (r) got = r.value();
      });
      ++out.attempted;
      if (got != want) {
        ++out.failed;
        out.check(false, std::string(op_name(g.op)) +
                             " reply differs from in-process dispatch");
      }
      ++opn;
    }
    c1 = lru_sample();
    stop_rig(&rig);

    const auto us = [&](const char* c, const char* n) {
      return log.durations(c, n).median() / 1000.0;
    };
    const auto ns = [&](const char* c, const char* n) {
      return log.durations(c, n).median();
    };
    out.set("serve.transport_us", us("serve", "transport"));
    out.set("serve.parse_ns", ns("serve", "parse"));
    out.set("serve.key_ns", ns("serve", "key"));
    out.set("serve.render_ns", ns("serve", "render"));
    out.set("serve.lru_hit_ratio",
            c1.reqs > c0.reqs ? static_cast<double>(c1.hits - c0.hits) /
                                    static_cast<double>(c1.reqs - c0.reqs)
                              : 0.0);
    std::vector<std::string> stages = {"serve.transport"};
    if (!cold) {
      out.set("serve.service_hit_ns", ns("serve", "service_hit"));
      stages.push_back("serve.service_hit");
    } else {
      for (Op op : {Op::kAdmission, Op::kWcd, Op::kNc}) {
        const std::string d = std::string("dispatch.") + op_name(op);
        out.set("serve.dispatch_us." + std::string(op_name(op)),
                us("serve", d.c_str()));
        stages.push_back("serve." + d);
      }
      out.set("serve.disk_store_us", us("serve", "disk_store"));
      out.set("serve.disk_load_us", us("serve", "disk_load"));
      out.set("core.admission_request_us", us("core", "admission_request"));
      out.set("dram.service_curve_us", us("dram", "service_curve"));
      for (const char* s : {"serve.parse", "serve.key", "serve.render"}) {
        stages.push_back(s);
      }
    }
    Samples whole, parts;
    log.per_op("serve.op", stages, &whole, &parts);
    out.set("unattributed_pct", unattributed_pct(whole, parts));
    out.set("trace_overhead_pct",
            overhead_pct(whole.median() / 1000.0, ref_win.p50_us()));
    log.write_chrome(opt.scratch + "/" + (cold ? "papd_cold" : "papd_hot") +
                     ".trace.json");
  }
  out.check(loop_ok, "papd connection failed mid-run");
  if (!loop_ok) ++out.failed;
  std::filesystem::remove_all(run_dir);
  return out;
}

}  // namespace perfbench
