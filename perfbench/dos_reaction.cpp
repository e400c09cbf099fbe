// dos_reaction: the paper's Fig 15 shape on one switch. 250 AIMD flows
// share a 10 Gbps bottleneck; a 25 Gbps UDP flood starts mid-run; the
// interpreted C body of apps::dos_p4r_source() (busy-loop agent, sync
// driver) detects the flooder and installs a drop rule. The route table is
// full (256 seeded LPM prefixes), so the pipeline's LPM scan dominates the
// per-packet cost.
#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <unordered_map>

#include "apps/dos_mitigation.hpp"
#include "common.hpp"
#include "compile/compiler.hpp"
#include "p4r/creact/cparser.hpp"
#include "p4r/creact/interp.hpp"
#include "p4r/sema.hpp"
#include "telemetry/prof/prof.hpp"
#include "util/bits.hpp"
#include "util/rng.hpp"
#include "workload/fluid_tcp.hpp"
#include "workload/udp_flood.hpp"

namespace perfbench {

using namespace mantis;

namespace {

constexpr int kFlows = 250;
constexpr int kRoutes = 256;  ///< the route table's declared size
constexpr int kBottleneckPort = 1;
constexpr int kAttackPort = 30;
constexpr double kAttackGbps = 25.0;
constexpr std::uint32_t kAttackBytes = 1500;
constexpr std::uint32_t kVictim = 0xc0a80000u;  ///< 192.168.0.0, port 1
/// Times after the prologue (which installs the routes in virtual time).
constexpr Duration kAttackAt = 2 * kMillisecond;
constexpr Duration kHorizon = 30 * kMillisecond;
constexpr Duration kSmokeHorizon = 4 * kMillisecond;

/// Seeded route table: the victim's /32 toward the bottleneck plus
/// distinct prefixes of mixed lengths anywhere in the address space toward
/// the other ports. The /32 is the longest match for the victim whatever
/// else is drawn.
std::vector<p4::EntrySpec> make_routes(Rng& rng) {
  p4::EntrySpec victim;
  victim.key.push_back(p4::MatchValue{kVictim, prefix_mask(32)});
  victim.action = "set_egress";
  victim.action_args = {kBottleneckPort};
  return seeded_lpm_routes(rng, kRoutes, {8, 12, 16, 20, 24, 28, 32}, 0,
                           1ull << 32, 2, 28, {victim});
}

/// Stub environment for replaying the interpreted body off-line: the
/// table call (block.addEntry) is not applied.
class ReplayEnv : public p4r::creact::ReactionEnv {
 public:
  p4r::creact::CValue now = 0;
  p4r::creact::CValue mbl_get(const std::string&) override { return 0; }
  void mbl_set(const std::string&, p4r::creact::CValue) override {}
  p4r::creact::CValue table_call(const std::string&, const std::string&,
                                 const std::vector<p4r::creact::TableCallArg>&) override {
    return 0;
  }
  p4r::creact::CValue now_us() override { return now; }
};

}  // namespace

Outcome run_dos_reaction(const Options& opt) {
  Outcome out;
  const auto t0 = Clock::now();

  p4r::P4RProgram parsed;
  {
    ScopedSpan s(opt.spans, "p4r.frontend");
    parsed = p4r::frontend(apps::dos_p4r_source());
  }
  compile::Artifacts art;
  {
    ScopedSpan s(opt.spans, "compile.compile");
    art = compile::compile(parsed);
  }

  sim::EventLoop loop;
  sim::SwitchConfig sw_cfg;
  sw_cfg.num_ports = 32;
  sw_cfg.port_gbps = 10.0;
  sw_cfg.queue_capacity_bytes = 150 * 1500;
  std::unique_ptr<sim::Switch> sw;
  std::unique_ptr<driver::Driver> drv;
  std::unique_ptr<agent::Agent> agent;
  {
    ScopedSpan s(opt.spans, "stack.build");
    sw = std::make_unique<sim::Switch>(loop, art.prog, sw_cfg);
    drv = std::make_unique<driver::Driver>(*sw);
    agent = std::make_unique<agent::Agent>(*drv, art);  // busy loop, sync push
  }

  Rng rng(sub_seed(opt.seed, 1));
  const auto routes = make_routes(rng);
  {
    ScopedSpan s(opt.spans, "net.fabric.route_install");
    agent->run_prologue([&](agent::ReactionContext& ctx) {
      for (const auto& r : routes) ctx.add_entry("route", r);
    });
  }
  const Time base = loop.now();
  const Time horizon = base + (opt.smoke ? kSmokeHorizon : kHorizon);

  // Seeded senders: distinct 10.x.y.z sources (the last one attacks),
  // ingress ports, AIMD seeds and start times over the first millisecond.
  std::set<std::uint32_t> addrs;
  while (addrs.size() < static_cast<std::size_t>(kFlows) + 1) {
    addrs.insert(0x0a000000u | static_cast<std::uint32_t>(rng.uniform(1u << 24)));
  }
  std::vector<std::uint32_t> srcs(addrs.begin(), addrs.end());
  std::shuffle(srcs.begin(), srcs.end(), rng);
  const std::uint32_t attacker = srcs.back();
  srcs.pop_back();

  std::vector<std::unique_ptr<workload::FluidTcpFlow>> flows;
  std::unordered_map<std::uint32_t, workload::FluidTcpFlow*> by_src;
  for (int i = 0; i < kFlows; ++i) {
    workload::FluidTcpConfig cfg;
    cfg.src_ip = srcs[static_cast<std::size_t>(i)];
    cfg.dst_ip = kVictim;
    cfg.in_port = 2 + static_cast<int>(rng.uniform(24));
    cfg.init_rate_gbps = 0.008;
    cfg.min_rate_gbps = 0.002;
    cfg.max_rate_gbps = 0.012;
    cfg.additive_gbps = 0.002;
    cfg.rtt = 100 * kMicrosecond;
    cfg.seed = rng();
    flows.push_back(std::make_unique<workload::FluidTcpFlow>(*sw, cfg));
    by_src[cfg.src_ip] = flows.back().get();
  }
  const p4::FieldId f_src = art.prog.fields.require("ipv4.srcAddr");
  std::uint64_t delivered = 0;
  sw->set_on_transmit([&](const sim::Packet& pkt, int, Time) {
    ++delivered;
    const auto it = by_src.find(static_cast<std::uint32_t>(pkt.get(f_src)));
    if (it != by_src.end()) it->second->on_transmit(pkt);
  });
  for (auto& f : flows) {
    const Time at = base + static_cast<Time>(rng.uniform(1000)) * kMicrosecond;
    workload::FluidTcpFlow* flow = f.get();
    loop.schedule_at(at, [flow, horizon] { flow->start(horizon); });
  }

  workload::UdpFloodConfig atk;
  atk.src_ip = attacker;
  atk.dst_ip = kVictim;
  atk.in_port = kAttackPort;
  atk.rate_gbps = kAttackGbps;
  atk.pkt_bytes = kAttackBytes;
  atk.start_at = base + kAttackAt;
  workload::UdpFloodSource flood(*sw, atk);
  flood.start(horizon);
  out.setup_s = seconds_since(t0);

  // ---- timed window: the benchmark drives the dialogue itself ----
  auto& prof = loop.telemetry().prof();
  prof.set_enabled(opt.traced);
  DialogueTally tally;
  tally.start(*agent, *drv);
  std::uint64_t passed_at_block = 0;
  bool blocked = false;
  const auto& bindings = art.bindings.reactions.front();
  struct Polled {
    std::uint64_t src = 0, total = 0;
    Time t = 0;
  };
  std::vector<Polled> polled;
  const auto w0 = Clock::now();
  while (loop.now() < horizon) {
    {
      ScopedSpan s(opt.spans, "agent.dialogue_iteration");
      agent->dialogue_iteration();
    }
    tally.add(agent->last_breakdown());
    if (opt.fault == "withhold_block") {
      auto& block = sw->table("block");
      for (const auto h : block.handles()) block.delete_entry(h);
    }
    const auto& ps = sw->port_stats(kAttackPort);
    if (!blocked && ps.rx_drops > 0) {
      blocked = true;
      passed_at_block = ps.rx_pkts - ps.rx_drops;
    }
    if (opt.traced) {
      // The reaction's polled inputs, read raw from the checkpoint the
      // agent just read, for the interpreter replay below.
      const int cp = agent->mv() ^ 1;
      Polled p;
      p.t = loop.now();
      const auto& fs = bindings.fields.front();
      p.src = (sw->registers().read(fs.reg, static_cast<std::uint32_t>(cp)) >>
               fs.bit_offset) & mask_for_width(fs.width);
      const auto& rs = bindings.regs.front();
      p.total = sw->registers().read(rs.dup_reg, static_cast<std::uint32_t>(2 * rs.lo + cp));
      polled.push_back(p);
    }
  }
  loop.run();  // sources stop at the horizon: drain what is in flight
  out.window_s = seconds_since(w0);
  prof.set_enabled(false);
  const Duration window = horizon - base;
  out.virtual_s = to_s(window);

  // ---- outcomes and checks ----
  SwitchTotals st;
  add_switch(st, *sw);
  out.pkts = st.ingress_pkts;
  out.reactions = tally.iterations;
  const std::uint64_t ops = drv->channel().ops_submitted();
  out.attempted = st.rx_pkts + ops;
  // Sources inject straight into switch ports, so every sent packet is
  // received; the flood's own count anchors that.
  out.check(flood.sent() == sw->port_stats(kAttackPort).rx_pkts,
            "flood packets sent != received on the attack port");
  check_conservation(out, st.rx_pkts,
                     delivered + st.rx_drops + st.tm_drops + st.tm_queued);
  out.check(delivered == st.tx_pkts, "transmit hook count != switch tx count");

  const auto& ap = sw->port_stats(kAttackPort);
  const std::uint64_t passed = ap.rx_pkts - ap.rx_drops;
  out.check(blocked, "flood source not blocked within the horizon");
  out.check(!blocked || passed == passed_at_block,
            "flood source not blocked: hostile packets passed after the "
            "first one was dropped");
  // The flood is constant-rate, so the first dropped hostile packet was
  // sent `passed` gaps after the first one.
  const double gap_ns = std::max(1.0, kAttackBytes / (kAttackGbps / 8.0));
  const double mitigation_us =
      blocked ? static_cast<double>(passed) * std::floor(gap_ns) / 1000.0 : 0;
  out.virt["mitigation_us"] = {mitigation_us, "us"};
  add_reaction_virt(out, *agent);
  out.virt["transit_p99_us"] = {histogram_p99(loop, "sim.switch.transit_ns") / 1000.0,
                                "us"};

  auto& d = out.digest;
  d.add("rx", st.rx_pkts);
  d.add("tx", st.tx_pkts);
  d.add("rx_drops", st.rx_drops);
  d.add("tm_drops", st.tm_drops);
  d.add("hits", st.table_hits);
  d.add("ops", ops);
  d.add("flood_sent", flood.sent());
  d.add("mitigation", mitigation_us);
  d.add("transit_p99", out.virt["transit_p99_us"].value);
  d.add("total_bytes", sw->registers().read("total_bytes_r", 0));
  for (const auto& f : flows) {
    d.add("rate", f->rate_gbps());
    d.add("bytes", f->delivered_bytes());
  }

  if (!opt.traced) return out;

  // ---- per-layer metrics (traced batch only) ----
  auto& L = out.layer;
  add_switch_layers(out, st, loop);
  add_profile_layers(out, loop);
  add_control_layers(out, *agent, *drv, tally, window);

  // Interpreter: virtual compute / step cost, and the host cost of a step
  // from replaying the body on the inputs the traced run polled.
  const auto* compute = loop.telemetry().metrics().find_histogram("reaction.compute_ns");
  const agent::AgentOptions defaults;
  L["creact.steps_per_reaction"] = {
      compute != nullptr && compute->count() > 0
          ? compute->stats().mean() / static_cast<double>(defaults.interp_step_cost)
          : 0,
      "ratio"};
  {
    ScopedSpan s(opt.spans, "p4r.creact.replay");
    const auto body = p4r::creact::parse_body(art.reactions.front().body);
    p4r::creact::Interp interp(body);
    ReplayEnv env;
    std::uint64_t steps = 0;
    const auto r0 = Clock::now();
    for (const auto& p : polled) {
      p4r::creact::PolledParams params;
      params.scalars[bindings.fields.front().c_name] =
          static_cast<p4r::creact::CValue>(p.src);
      p4r::creact::PolledParams::Array arr;
      arr.lo = bindings.regs.front().lo;
      arr.values = {static_cast<p4r::creact::CValue>(p.total)};
      params.arrays.emplace(bindings.regs.front().c_name, std::move(arr));
      env.now = static_cast<p4r::creact::CValue>(p.t / 1000);
      steps += interp.run(params, env);
    }
    L["creact.host_ns_per_step"] = {
        steps > 0 ? seconds_since(r0) * 1e9 / static_cast<double>(steps) : 0, "ns"};
  }

  std::vector<sim::Packet> sample;
  for (const auto src : srcs) {
    auto pkt = sw->factory().make(1500);
    sw->factory().set(pkt, "ipv4.srcAddr", src);
    sw->factory().set(pkt, "ipv4.dstAddr", kVictim);
    sample.push_back(std::move(pkt));
  }
  auto pkt = sw->factory().make(kAttackBytes);
  sw->factory().set(pkt, "ipv4.srcAddr", attacker);
  sw->factory().set(pkt, "ipv4.dstAddr", kVictim);
  sample.push_back(std::move(pkt));
  const auto tc = time_tables(*sw, {"block", "route"}, sample, opt.spans);
  L["sim.table.exact_lookup_ns"] = {tc.exact_lookup_ns, "ns"};
  L["sim.table.lpm_lookup_ns"] = {tc.lpm_lookup_ns, "ns"};
  L["sim.table.entries"] = {tc.entries, "count"};
  return out;
}

}  // namespace perfbench
