// clos_fabric: a 1024-switch 3-tier Clos carrying 2^20 aggregated Zipf
// fluid-TCP flows, run by the parallel engine. No agents: event dispatch,
// link transit, the pool and the engine barrier do the work, and every
// table lookup is exact on 64 entries.
#include <algorithm>
#include <memory>
#include <numeric>

#include "apps/gray_failure.hpp"
#include "common.hpp"
#include "compile/compiler.hpp"
#include "net/engine.hpp"
#include "net/fabric.hpp"
#include "p4r/sema.hpp"
#include "telemetry/prof/prof.hpp"
#include "util/rng.hpp"
#include "workload/flow_classes.hpp"

namespace perfbench {

using namespace mantis;

namespace {

// 16 pods x (32 leaves + 16 aggs) + 256 cores = 1024 switches, 1 host/leaf.
constexpr net::ClosSpec kClos{16, 32, 16, 256, 1};
constexpr int kClasses = 128;
constexpr int kDstsPerPod = 4;  ///< 64 destinations: 64 routes per switch
constexpr std::uint64_t kFlows = 1ull << 20;
constexpr Time kHorizon = 100 * kMicrosecond;
constexpr Time kSmokeHorizon = 20 * kMicrosecond;
/// After the horizon the sources are silent; this drains what is in flight
/// (longest path: 5 links of 2 us plus queueing) so conservation is exact.
constexpr Duration kDrain = 200 * kMicrosecond;

}  // namespace

Outcome run_clos_fabric(const Options& opt) {
  Outcome out;
  const Time horizon = opt.smoke ? kSmokeHorizon : kHorizon;
  const auto t0 = Clock::now();

  p4r::P4RProgram parsed;
  {
    ScopedSpan s(opt.spans, "p4r.frontend");
    parsed = p4r::frontend(apps::gray_failure_p4r_source());
  }
  compile::Artifacts art;
  {
    ScopedSpan s(opt.spans, "compile.compile");
    art = compile::compile(parsed);
  }

  sim::EventLoop loop;
  net::FabricConfig fc;
  fc.default_link.propagation = 2000;
  fc.switch_cfg.num_ports = 48;  // aggs: 32 leaves + 16 cores
  fc.base_seed = sub_seed(opt.seed, 1);
  std::unique_ptr<net::Fabric> fabric;
  {
    ScopedSpan s(opt.spans, "net.fabric.build");
    fabric = std::make_unique<net::Fabric>(loop, art.prog,
                                           net::Topology::clos(kClos), fc);
  }

  // Seeded endpoint plan: kDstsPerPod distinct destination leaves in every
  // pod (so load spreads over all pods), two classes per destination, each
  // from a random leaf in another pod (every path crosses the core, so
  // all classes have the same hop count); class order (and so the Zipf
  // weight each pair gets) is a seeded shuffle.
  Rng rng(sub_seed(opt.seed, 2));
  std::vector<std::uint32_t> dsts;
  for (int pod = 0; pod < kClos.pods; ++pod) {
    std::vector<int> leaves(static_cast<std::size_t>(kClos.leaves_per_pod));
    std::iota(leaves.begin(), leaves.end(), 0);
    std::shuffle(leaves.begin(), leaves.end(), rng);
    for (int k = 0; k < kDstsPerPod; ++k) {
      dsts.push_back(kClos.host_addr(
          kClos.leaf_id(pod, leaves[static_cast<std::size_t>(k)]), 0));
    }
  }
  std::vector<workload::FlowClasses::Endpoint> endpoints;
  for (int c = 0; c < kClasses; ++c) {
    const std::uint32_t dst = dsts[static_cast<std::size_t>(c) % dsts.size()];
    const int dst_pod = net::ClosSpec::leaf_of_addr(dst) / kClos.leaves_per_pod;
    const int src_pod =
        (dst_pod + 1 + static_cast<int>(rng.uniform(kClos.pods - 1))) % kClos.pods;
    const int src_leaf = kClos.leaf_id(
        src_pod, static_cast<int>(rng.uniform(kClos.leaves_per_pod)));
    endpoints.push_back({kClos.host_addr(src_leaf, 0), dst});
  }
  std::shuffle(endpoints.begin(), endpoints.end(), rng);

  // Structural route install: one exact entry per destination per switch.
  {
    ScopedSpan s(opt.spans, "net.fabric.route_install");
    for (int sw = 0; sw < kClos.num_switches(); ++sw) {
      auto& route = fabric->switch_at(sw).table("route");
      for (const std::uint32_t addr : dsts) {
        const int port = kClos.next_hop_port(sw, addr);
        if (port < 0) continue;
        p4::EntrySpec spec;
        spec.key.push_back(p4::MatchValue{addr, ~std::uint64_t{0}});
        // The isolation pass adds a vv column to malleable tables; with no
        // agent, packets and entries stay on version 0.
        spec.key.push_back(p4::MatchValue{0, ~std::uint64_t{0}});
        spec.action = "set_egress";
        spec.action_args.push_back(static_cast<std::uint64_t>(port));
        route.add_entry(spec);
      }
    }
  }

  workload::FlowClassesConfig wc;
  wc.total_flows = kFlows;
  wc.epoch = 20 * kMicrosecond;
  wc.max_samples_per_epoch = 64;
  std::unique_ptr<workload::FlowClasses> flows;
  {
    ScopedSpan s(opt.spans, "workload.flow_classes");
    flows = std::make_unique<workload::FlowClasses>(*fabric, wc, endpoints);
  }
  std::unique_ptr<net::ParallelFabricEngine> engine;
  {
    ScopedSpan s(opt.spans, "net.engine.build");
    engine = std::make_unique<net::ParallelFabricEngine>(*fabric, opt.threads);
  }
  {
    ScopedSpan s(opt.spans, "workload.flow_classes.start");
    flows->start(horizon, opt.threads > 1 ? engine->lookahead() : 0);
  }
  out.setup_s = seconds_since(t0);

  auto& prof = loop.telemetry().prof();
  prof.set_enabled(opt.traced);
  const auto w0 = Clock::now();
  {
    ScopedSpan s(opt.spans, "net.engine.run_until");
    engine->run_until(horizon + kDrain);
  }
  out.window_s = seconds_since(w0);
  prof.set_enabled(false);
  out.virtual_s = to_s(horizon + kDrain);

  // ---- outcomes and checks ----
  SwitchTotals sw;
  for (int n = 0; n < kClos.num_switches(); ++n) add_switch(sw, fabric->switch_at(n));
  std::uint64_t link_delivered = 0, link_drops = 0;
  for (std::size_t i = 0; i < fabric->num_links(); ++i) {
    for (int d = 0; d < 2; ++d) {
      link_delivered += fabric->link(i).dir_stats(d).delivered_pkts;
      link_drops += fabric->link(i).dir_stats(d).dropped_pkts;
    }
  }
  const auto& fs = fabric->stats();
  const std::uint64_t sent = fs.host_tx_pkts.load();
  const std::uint64_t delivered = fs.host_rx_pkts.load();
  const std::uint64_t drops =
      sw.rx_drops + sw.tm_drops + link_drops + fs.unwired_tx_pkts.load();
  out.pkts = sw.ingress_pkts;
  out.attempted = sent;
  out.check(loop.queue_empty() && sw.tm_queued == 0,
            "drain: events or queued packets left after the horizon");
  check_conservation(out, sent, delivered + drops);
  out.check(delivered > 0, "no packet delivered");

  const double p99_us = histogram_p99(loop, "net.fabric.transit_ns") / 1000.0;
  out.check(p99_us > 0, "no host-to-host transit sample");
  out.virt["transit_p99_us"] = {p99_us, "us"};

  auto& d = out.digest;
  d.add("sent", sent);
  d.add("delivered", delivered);
  d.add("drops", drops);
  d.add("ingress", sw.ingress_pkts);
  d.add("hits", sw.table_hits);
  d.add("link_delivered", link_delivered);
  d.add("samples_sent", flows->samples_sent());
  d.add("samples_delivered", flows->samples_delivered());
  d.add("transit_p99", p99_us);
  for (std::size_t c = 0; c < flows->num_classes(); ++c) {
    d.add("class_rate", flows->rate_pps(c));
  }

  if (!opt.traced) return out;

  // ---- per-layer metrics (traced batch only) ----
  auto& L = out.layer;
  add_switch_layers(out, sw, loop);
  L["net.link.delivered_pkts"] = {static_cast<double>(link_delivered), "count"};
  L["net.link.drops"] = {static_cast<double>(link_drops), "count"};
  add_profile_layers(out, loop);
  const auto rep = loop.telemetry().prof().report();
  const auto rounds = static_cast<double>(engine->rounds());
  L["net.engine.rounds"] = {rounds, "count"};
  L["net.engine.events_per_round"] = {
      rounds > 0 ? static_cast<double>(rep.events) / rounds : 0, "ratio"};
  L["net.engine.round_host_us"] = {
      rounds > 0 ? out.window_s * 1e6 / rounds : 0, "us"};
  L["net.engine.barrier_stall_frac"] = {
      static_cast<double>(rep.rounds.barrier_stall_ns) / (out.window_s * 1e9),
      "ratio"};
  L["net.engine.imbalance"] = {rep.rounds.rounds > 0 ? rep.rounds.imbalance() : 0,
                               "ratio"};

  std::vector<sim::Packet> sample;
  const auto& factory = fabric->factory();
  for (const auto& ep : endpoints) {
    auto pkt = factory.make(wc.pkt_bytes);
    factory.set(pkt, "ipv4.srcAddr", ep.src_addr);
    factory.set(pkt, "ipv4.dstAddr", ep.dst_addr);
    sample.push_back(std::move(pkt));
  }
  // Switch 0 is a leaf; its route table holds one entry per destination.
  const auto tc = time_tables(fabric->switch_at(0), {"route"}, sample, opt.spans);
  L["sim.table.exact_lookup_ns"] = {tc.exact_lookup_ns, "ns"};
  L["sim.table.entries"] = {tc.entries, "count"};
  return out;
}

}  // namespace perfbench
