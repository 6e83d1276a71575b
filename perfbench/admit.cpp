// admit_churn: an in-process admit::IncrementalAdmission holding 10^4
// resident flows, churned by a fixed round of three operations: release a
// flow, admit it again, and query the cached bound of another flow.
//
// Layout: disjoint 2x2-router tiles of six flows each, so a NoC-only
// decision's dirty component lies inside one tile; the benchmark works it
// out from the flows' paths without asking the engine. One flow in 100
// also uses the DRAM, the one globally shared resource. The seed draws the
// NoC flows and the churn; the DRAM flows' places and rates come from their
// block number alone, so the DRAM load, which every DRAM decision
// re-proves, and the set of tiles it reaches are the same on every seed. Every 100th round churns a DRAM
// flow: the churned flows follow the population's DRAM share exactly.
#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "admit/incremental.hpp"
#include "bench.hpp"
#include "common/rng.hpp"
#include "dram/wcd.hpp"
#include "nc/arena.hpp"
#include "nc/batch.hpp"
#include "noc/topology.hpp"

namespace perfbench {
namespace {

using pap::Rng;
using pap::Time;
namespace core = pap::core;

constexpr int kTiles = 1667;  // 10 002 flows
constexpr int kFlowsPerTile = 6;
constexpr int kDramEvery = 100;  // one flow in 100 uses the DRAM
constexpr int kDramRoundEvery = kDramEvery;
constexpr std::uint64_t kMaxTracedRounds = 4000;
constexpr int kSetups = 11;  // set-up repetitions; setup_s is their median

struct Layout {
  int per_side = 0;
  int side = 0;
  std::vector<core::AppRequirement> reqs;  // by app id - 1
  std::vector<int> dram_apps;              // app ids that use the DRAM
  std::vector<int> noc_apps;               // the others
  std::vector<int> component;              // by app id - 1: component label
};

core::PlatformModel model_for(int side) {
  core::PlatformModel m;
  m.noc.cols = side;
  m.noc.rows = side;
  return m;
}

Layout make_layout(std::uint64_t seed) {
  Layout l;
  l.per_side = static_cast<int>(std::ceil(std::sqrt(double{kTiles})));
  l.side = 2 * l.per_side;
  pap::noc::Mesh2D mesh(l.side, l.side);
  // Six routes over a tile's four routers: they share the tile's links and
  // nothing outside it.
  static constexpr int kRoutes[6][4] = {{0, 0, 1, 0}, {1, 0, 1, 1},
                                        {1, 1, 0, 1}, {0, 1, 0, 0},
                                        {0, 0, 1, 1}, {1, 1, 0, 0}};
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 0xA5);
  // Exactly one DRAM flow per block of kDramEvery, at a position fixed by
  // the block number (the route a flow takes, and so the component a DRAM
  // flow sits in, depends on its position in its tile); dram[i] is the
  // flow's block number + 1, or 0 for a NoC-only flow.
  const int total = kTiles * kFlowsPerTile;
  std::vector<int> dram(static_cast<std::size_t>(total), 0);
  for (int b = 0; b < total; b += kDramEvery) {
    const int span = std::min(kDramEvery, total - b);
    dram[static_cast<std::size_t>(b + (b / kDramEvery * 37) % span)] = 1 + b / kDramEvery;
  }
  for (int t = 0; t < kTiles; ++t) {
    const int bx = 2 * (t % l.per_side);
    const int by = 2 * (t / l.per_side);
    for (int f = 0; f < kFlowsPerTile; ++f) {
      core::AppRequirement a;
      a.app = static_cast<pap::noc::AppId>(1 + t * kFlowsPerTile + f);
      a.name = "app" + std::to_string(a.app);
      a.src = mesh.node(bx + kRoutes[f][0], by + kRoutes[f][1]);
      a.dst = mesh.node(bx + kRoutes[f][2], by + kRoutes[f][3]);
      a.uses_dram = dram[a.app - 1] != 0;
      if (a.uses_dram) {
        // Rate 1-2e-5/ns from a golden-ratio Weyl sequence over the block.
        const double u = std::fmod(0.6180339887498949 * dram[a.app - 1], 1.0);
        a.traffic = pap::nc::TokenBucket{1.0, 1e-5 * (1.0 + u)};
        a.deadline = Time::us(200);
      } else {
        a.traffic = pap::nc::TokenBucket{1.0 + 3.0 * rng.next_double(),
                                         0.0005 + 0.0025 * rng.next_double()};
        a.deadline = Time::us(5);
      }
      (a.uses_dram ? l.dram_apps : l.noc_apps).push_back(static_cast<int>(a.app));
      l.reqs.push_back(a);
    }
  }
  // Connected components of the link-sharing graph, tile by tile (tiles
  // share no link): the set a NoC decision re-proves.
  const core::E2eAnalysis an(model_for(l.side));
  l.component.resize(l.reqs.size());
  for (int t = 0; t < kTiles; ++t) {
    int label[kFlowsPerTile];
    std::vector<core::PathLink> links[kFlowsPerTile];
    for (int f = 0; f < kFlowsPerTile; ++f) {
      label[f] = f;
      links[f] = an.links_of(l.reqs[static_cast<std::size_t>(t * kFlowsPerTile + f)]);
    }
    for (bool changed = true; changed;) {
      changed = false;
      for (int a = 0; a < kFlowsPerTile; ++a) {
        for (int b = a + 1; b < kFlowsPerTile; ++b) {
          if (label[a] == label[b]) continue;
          bool share = false;
          for (const auto& x : links[a]) {
            share = share || std::find(links[b].begin(), links[b].end(), x) !=
                                 links[b].end();
          }
          if (!share) continue;
          const int lo = std::min(label[a], label[b]);
          label[a] = label[b] = lo;
          changed = true;
        }
      }
    }
    for (int f = 0; f < kFlowsPerTile; ++f) {
      l.component[static_cast<std::size_t>(t * kFlowsPerTile + f)] =
          t * kFlowsPerTile + label[f];
    }
  }
  return l;
}

int tile_of(int app) { return (app - 1) / kFlowsPerTile; }

/// Admission order bookkeeping, mirrored from the benchmark's own calls.
struct Order {
  std::vector<std::vector<int>> tiles;  // per tile, apps in admission order
  std::vector<int> dram;                // DRAM apps in admission order

  void admit(const Layout& l, int app) {
    tiles[static_cast<std::size_t>(tile_of(app))].push_back(app);
    if (l.reqs[static_cast<std::size_t>(app - 1)].uses_dram) dram.push_back(app);
  }
  void release(int app) {
    auto& t = tiles[static_cast<std::size_t>(tile_of(app))];
    t.erase(std::find(t.begin(), t.end(), app));
    const auto it = std::find(dram.begin(), dram.end(), app);
    if (it != dram.end()) dram.erase(it);
  }
};

/// Admit every flow of the layout; returns the first rejection, if any.
std::string fill(const Layout& l, pap::admit::IncrementalAdmission* engine,
                 Order* order) {
  order->tiles.assign(kTiles, {});
  order->dram.clear();
  for (const auto& r : l.reqs) {
    const auto g = engine->request(r);
    if (!g) return r.name + ": " + g.error_message();
    order->admit(l, static_cast<int>(r.app));
  }
  return {};
}

/// The round's three picks, drawn from the seed.
struct Round {
  int churn = 0;
  int query = 0;
};

Round draw_round(Rng& rng, const Layout& l, std::uint64_t r) {
  Round rd;
  const auto& pool = r % kDramRoundEvery == 0 ? l.dram_apps : l.noc_apps;
  rd.churn = pool[rng.next_below(pool.size())];
  rd.query = 1 + static_cast<int>(rng.next_below(l.reqs.size()));
  if (rd.query == rd.churn) rd.query = rd.query % static_cast<int>(l.reqs.size()) + 1;
  return rd;
}

}  // namespace

Outcome run_admit_churn(const Options& opt) {
  Outcome out;
  const Layout l = make_layout(opt.seed);
  const core::PlatformModel model = model_for(l.side);

  // Set-up, kSetups times: build the engine and fill every flow.
  std::vector<double> setups;
  std::unique_ptr<pap::admit::IncrementalAdmission> engine;
  Order order;
  for (int k = 0; k < kSetups; ++k) {
    engine.reset();
    const auto t0 = Clock::now();
    engine = std::make_unique<pap::admit::IncrementalAdmission>(model);
    const std::string rejected = fill(l, engine.get(), &order);
    setups.push_back(seconds_since(t0));
    out.check(rejected.empty(), "fill rejected " + rejected);
    if (!rejected.empty()) {
      out.failed = 1;
      out.attempted = 1;
      return out;
    }
  }

  Rng rng(opt.seed ^ 0x5DEECE66Dull);
  std::uint64_t round = 0;
  // One round: release, admit, query. Returns false on a failed op.
  const auto do_round = [&](const Round& rd, Clock::time_point* ts) {
    const auto& req = l.reqs[static_cast<std::size_t>(rd.churn - 1)];
    const auto a = Clock::now();
    const auto rel = engine->release(req.app);
    const auto b = Clock::now();
    const auto grant = engine->request(req);
    const auto c = Clock::now();
    const auto bound = engine->current_bound(static_cast<pap::noc::AppId>(rd.query));
    const auto d = Clock::now();
    ts[0] = a;
    ts[1] = b;
    ts[2] = c;
    ts[3] = d;
    int failed = 0;
    if (!rel.is_ok()) ++failed;
    if (grant) {
      order.release(rd.churn);
      order.admit(l, rd.churn);
    } else {
      ++failed;
      if (rel.is_ok()) order.release(rd.churn);
    }
    if (!bound.has_value()) ++failed;
    return failed;
  };

  const auto timed_pass = [&](SlicedWindow* win) {
    win->start();
    Clock::time_point ts[4];
    while (Clock::now() < win->end()) {
      const Round rd = draw_round(rng, l, round++);
      out.failed += do_round(rd, ts);
      out.attempted += 3;
      for (int k = 0; k < 3; ++k) win->add(ts[k + 1], ns_between(ts[k], ts[k + 1]) / 1000.0);
    }
  };

  if (!opt.trace) {
    SlicedWindow win(opt.seconds);
    timed_pass(&win);
    out.set("setup_s", median_of(setups));
    out.set("ops_per_s", win.ops_per_s());
    out.set("op_p50_us", win.p50_us());
    out.set("op_p99_us", win.p99_us());
    out.set("peak_rss_mb", peak_rss_mb());
  } else {
    SlicedWindow ref(opt.seconds / 2.0);
    timed_pass(&ref);

    SpanLog log;
    pap::nc::Arena arena;
    const core::E2eAnalysis& an = engine->analysis();
    const auto stats0 = engine->stats();
    std::uint64_t decisions = 0;
    Samples self_us, whole_ns, parts_ns, all_ops_ns;
    std::vector<core::AppRequirement> comp;
    std::vector<std::optional<Time>> bounds;
    std::vector<const core::AppRequirement*> dram_ptrs;
    const auto t_end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                          std::chrono::duration<double>(opt.seconds / 2.0));
    for (std::uint64_t n = 0; n < kMaxTracedRounds && Clock::now() < t_end; ++n) {
      const Round rd = draw_round(rng, l, round++);
      const std::uint64_t op = round;
      Clock::time_point ts[4];
      out.failed += do_round(rd, ts);
      out.attempted += 3;
      decisions += 2;
      log.record("admit", "release", op, ts[0], ts[1]);
      log.record("admit", "request", op, ts[1], ts[2]);
      log.record("admit", "query", op, ts[2], ts[3]);
      const double t_rel = ns_between(ts[0], ts[1]);
      const double t_req = ns_between(ts[1], ts[2]);
      const double t_q = ns_between(ts[2], ts[3]);
      all_ops_ns.add(t_rel);
      all_ops_ns.add(t_req);
      all_ops_ns.add(t_q);

      // The decision's component through the core slice API, on a private
      // arena so the engine's thread arena is left alone.
      const auto& req = l.reqs[static_cast<std::size_t>(rd.churn - 1)];
      comp.clear();
      const int label = l.component[static_cast<std::size_t>(rd.churn - 1)];
      for (int app : order.tiles[static_cast<std::size_t>(tile_of(rd.churn))]) {
        if (l.component[static_cast<std::size_t>(app - 1)] == label) {
          comp.push_back(l.reqs[static_cast<std::size_t>(app - 1)]);
        }
      }
      arena.reset();
      double parts = 0.0;
      core::E2eAnalysis::FlatPaths paths;
      parts += log.time("core", "flat_paths", op,
                        [&] { paths = an.flat_paths(comp, arena); });
      core::E2eAnalysis::PropagatedFlat prop;
      parts += log.time("core", "propagate_flat", op,
                        [&] { prop = an.propagate_flat(comp, paths, arena); });
      std::vector<std::optional<pap::nc::CurveView>> chains(comp.size());
      parts += log.time("core", "chain_view", op, [&] {
        for (std::size_t i = 0; i < comp.size(); ++i) {
          if (prop.converged && !prop.flow_unbounded[i]) {
            chains[i] = an.chain_view_for(comp, i, prop, paths, arena);
          }
        }
      });
      if (req.uses_dram) {
        dram_ptrs.clear();
        for (int app : order.dram) {
          dram_ptrs.push_back(&l.reqs[static_cast<std::size_t>(app - 1)]);
        }
        pap::nc::CurveView dram_view{};
        parts += log.time("core", "dram_service", op, [&] {
          dram_view = an.dram_service_from(req, dram_ptrs.data(),
                                           dram_ptrs.size(), arena);
        });
        const std::size_t self =
            static_cast<std::size_t>(std::find_if(comp.begin(), comp.end(),
                                                  [&](const auto& c) {
                                                    return c.app == req.app;
                                                  }) -
                                     comp.begin());
        if (self < comp.size() && chains[self]) {
          chains[self] = pap::nc::convolve_view(arena, *chains[self], dram_view);
        }
        pap::nc::TokenBucket writes = model.background_writes;
        for (const auto* o : dram_ptrs) {
          if (o->app == req.app) continue;
          writes.burst += o->traffic.burst;
          writes.rate += o->traffic.rate;
        }
        pap::dram::WcdAnalysis wcd(model.dram, model.dram_ctrl, writes);
        log.time("dram", "service_curve", op,
                 [&] { (void)wcd.service_curve(model.dram_service_depth); });
      }
      for (std::size_t i = 0; i < comp.size(); ++i) {
        if (!chains[i]) continue;
        const auto alpha = pap::nc::affine_view(arena, comp[i].traffic.burst,
                                                comp[i].traffic.rate);
        parts += log.time("nc", "deviation", op, [&] {
          (void)pap::nc::h_deviation_view(alpha, *chains[i]);
        });
      }
      const double e2e = log.time("core", "e2e_bounds_into", op,
                                  [&] { an.e2e_bounds_into(comp, &bounds); });
      const double self_ns = t_req - e2e;
      self_us.add(self_ns / 1000.0);
      whole_ns.add(t_req);
      parts_ns.add(parts + self_ns);
    }
    const auto stats1 = engine->stats();

    const auto med = [&](const char* c, const char* n) {
      return log.durations(c, n).median();
    };
    out.set("admit.request_us", med("admit", "request") / 1000.0);
    out.set("admit.release_us", med("admit", "release") / 1000.0);
    out.set("admit.query_ns", med("admit", "query"));
    out.set("admit.self_us", self_us.median());
    const double dec = decisions > 0 ? static_cast<double>(decisions) : 1.0;
    out.set("admit.dirty_flows",
            static_cast<double>(stats1.dirty_flows_total - stats0.dirty_flows_total) / dec);
    out.set("admit.dirty_links",
            static_cast<double>(stats1.dirty_links_total - stats0.dirty_links_total) / dec);
    out.set("core.flat_paths_us", med("core", "flat_paths") / 1000.0);
    out.set("core.propagate_flat_us", med("core", "propagate_flat") / 1000.0);
    out.set("core.chain_view_us", med("core", "chain_view") / 1000.0);
    out.set("core.dram_service_us", med("core", "dram_service") / 1000.0);
    out.set("core.e2e_bounds_into_us", med("core", "e2e_bounds_into") / 1000.0);
    out.set("dram.service_curve_us", med("dram", "service_curve") / 1000.0);
    out.set("nc.deviation_ns", med("nc", "deviation"));
    out.set("unattributed_pct", unattributed_pct(whole_ns, parts_ns));
    out.set("trace_overhead_pct",
            overhead_pct(all_ops_ns.median() / 1000.0, ref.p50_us()));
    log.write_chrome(opt.scratch + "/admit_churn.trace.json");
  }

  // Exactness: every cached bound equals a batch re-proof of flows(), and
  // every live flow meets its deadline.
  const auto flows = engine->flows();
  std::vector<std::optional<Time>> oracle;
  engine->analysis().e2e_bounds_into(flows, &oracle);
  out.check(flows.size() == l.reqs.size(), "resident flow count changed");
  std::size_t inexact = 0, late = 0;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const auto cached = engine->current_bound(flows[i].app);
    if (!cached || !oracle[i] || cached->picos() != oracle[i]->picos()) ++inexact;
    if (!cached || *cached > flows[i].deadline) ++late;
  }
  out.check(inexact == 0, std::to_string(inexact) +
                              " cached bounds differ from the batch proof");
  out.check(late == 0, std::to_string(late) + " live flows miss their deadline");
  out.check(engine->stats().diverged_flows == 0, "a component diverged");
  return out;
}

}  // namespace perfbench
