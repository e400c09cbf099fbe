// acl_churn: the write side of the table layer. One switch with a
// malleable ternary ACL (~480 user entries, twice that installed with the
// isolation pass's version copies) in front of an LPM route table. A
// native reaction deletes, adds and modifies kChurn entries every
// iteration through the batched async driver (AgentOptions::async_push).
// The packet rate is low, so the update protocol, the async driver and
// TableState writes take most of the host time.
#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <tuple>

#include "common.hpp"
#include "compile/compiler.hpp"
#include "p4r/sema.hpp"
#include "telemetry/prof/prof.hpp"
#include "util/rng.hpp"
#include "workload/trace_gen.hpp"

namespace perfbench {

using namespace mantis;

namespace {

constexpr const char* kSource = R"P4R(
header_type ipv4_t {
  fields {
    srcAddr : 32;
    dstAddr : 32;
    protocol : 8;
  }
}
header ipv4_t ipv4;

header_type acl_meta_t {
  fields { cls : 8; }
}
metadata acl_meta_t acl_meta;

action allow() { }
action permit(cls) { modify_field(acl_meta.cls, cls); }

// Reaction-managed ACL, rewritten every dialogue iteration.
malleable table acl {
  reads {
    ipv4.srcAddr : ternary;
    ipv4.dstAddr : ternary;
    ipv4.protocol : ternary;
  }
  actions { permit; _drop; allow; }
  default_action : allow;
  size : 512;
}

action set_egress(port) {
  modify_field(standard_metadata.egress_spec, port);
}
table route {
  reads { ipv4.dstAddr : lpm; }
  actions { set_egress; }
  default_action : set_egress(1);
  size : 64;
}

control ingress {
  apply(acl);
  apply(route);
}
control egress { }

// The benchmark replaces this body with a native churn reaction.
reaction acl_react(ing ipv4.srcAddr) {
  uint32_t src = ipv4_srcAddr;
}
)P4R";

constexpr int kAclEntries = 480;  ///< user entries; the table holds 512
constexpr int kChurn = 8;         ///< deletes, adds and modifies per iteration
constexpr int kRoutes = 64;
constexpr int kTraceFlows = 2000;
constexpr std::uint32_t kDstBase = 0xc0a80000u;  ///< trace dsts: 192.168.0.0/26
constexpr Duration kHorizon = 40 * kMillisecond;
constexpr Duration kSmokeHorizon = 5 * kMillisecond;
constexpr double kPktsPerVirtualSecond = 50'000;

using Key = std::tuple<std::uint64_t, std::uint64_t, std::uint64_t,
                       std::uint64_t, std::uint64_t, std::uint64_t>;

Key key_of(const std::vector<p4::MatchValue>& k) {
  return {k[0].value, k[0].mask, k[1].value, k[1].mask, k[2].value, k[2].mask};
}

/// The reaction's own model of the ACL, and the seeded generator of
/// entries and churn.
struct AclModel {
  Rng rng;
  std::map<agent::UserEntryId, p4::EntrySpec> live;
  std::set<Key> keys;
  std::uint64_t updates = 0;

  explicit AclModel(std::uint64_t seed) : rng(seed) {}

  /// A fresh entry whose key no live entry has. Masks mix prefixes,
  /// sparse bit patterns and wildcards, over the trace's address ranges.
  p4::EntrySpec fresh() {
    static constexpr int kSrcLens[] = {32, 30, 28, 24, 20};
    static constexpr int kDstLens[] = {32, 28, 26, 0};
    for (;;) {
      p4::EntrySpec e;
      const std::uint64_t src =
          0x0a000000u + rng.uniform(static_cast<std::uint64_t>(kTraceFlows));
      const std::uint64_t smask =
          rng.chance(0.25) ? (rng() & 0x00ffffffull) | 0xff000000ull
                           : prefix_mask(kSrcLens[rng.uniform(std::size(kSrcLens))]);
      const std::uint64_t dmask = prefix_mask(kDstLens[rng.uniform(std::size(kDstLens))]);
      const std::uint64_t dst = (kDstBase + rng.uniform(64)) & dmask;
      const std::uint64_t pmask = rng.chance(0.5) ? 0xff : 0;
      e.key = {{src & smask, smask}, {dst, dmask}, {6 & pmask, pmask}};
      e.priority = static_cast<std::int32_t>(rng.uniform(16));
      if (rng.chance(0.2)) {
        e.action = "_drop";
      } else {
        e.action = "permit";
        e.action_args = {1 + rng.uniform(255)};
      }
      if (keys.insert(key_of(e.key)).second) return e;
    }
  }

  void add(agent::ReactionContext& ctx) {
    auto e = fresh();
    const auto id = ctx.add_entry("acl", e);
    live.emplace(id, std::move(e));
  }

  /// One iteration: delete kChurn entries, modify kChurn others, add
  /// kChurn new ones.
  void churn(agent::ReactionContext& ctx) {
    std::vector<agent::UserEntryId> ids;
    for (const auto& [id, e] : live) ids.push_back(id);
    for (int i = 0; i < 2 * kChurn; ++i) {  // partial Fisher-Yates
      const auto j = static_cast<std::size_t>(i) +
                     rng.uniform(ids.size() - static_cast<std::size_t>(i));
      std::swap(ids[static_cast<std::size_t>(i)], ids[j]);
    }
    for (int i = 0; i < kChurn; ++i) {
      const auto id = ids[static_cast<std::size_t>(i)];
      ctx.del_entry("acl", id);
      keys.erase(key_of(live.at(id).key));
      live.erase(id);
    }
    for (int i = kChurn; i < 2 * kChurn; ++i) {
      auto& e = live.at(ids[static_cast<std::size_t>(i)]);
      if (e.action == "permit") {
        e.action_args = {1 + (e.action_args[0] % 255)};
      } else {
        e.action = "permit";
        e.action_args = {1 + rng.uniform(255)};
      }
      ctx.mod_entry("acl", ids[static_cast<std::size_t>(i)], e.action, e.action_args);
    }
    for (int i = 0; i < kChurn; ++i) add(ctx);
    updates += 3 * kChurn;
  }
};

using Row = std::tuple<Key, std::int32_t, std::string, std::vector<std::uint64_t>>;

/// The switch's ACL entries of version `vv`, in user key space.
std::multiset<Row> switch_acl(const sim::TableState& t, int vv_col, int vv) {
  std::multiset<Row> rows;
  for (const auto h : t.handles()) {
    const auto& e = t.entry(h);
    if (e.key[static_cast<std::size_t>(vv_col)].value != static_cast<std::uint64_t>(vv)) {
      continue;
    }
    rows.insert({key_of(e.key), e.priority, e.action, e.action_args});
  }
  return rows;
}

}  // namespace

Outcome run_acl_churn(const Options& opt) {
  Outcome out;
  const auto t0 = Clock::now();

  p4r::P4RProgram parsed;
  {
    ScopedSpan s(opt.spans, "p4r.frontend");
    parsed = p4r::frontend(kSource);
  }
  compile::Artifacts art;
  {
    ScopedSpan s(opt.spans, "compile.compile");
    art = compile::compile(parsed);
  }

  sim::EventLoop loop;
  std::unique_ptr<sim::Switch> sw;
  std::unique_ptr<driver::Driver> drv;
  std::unique_ptr<agent::Agent> agent;
  {
    ScopedSpan s(opt.spans, "stack.build");
    sw = std::make_unique<sim::Switch>(loop, art.prog);
    drv = std::make_unique<driver::Driver>(*sw);
    agent::AgentOptions ao;
    ao.async_push = true;
    agent = std::make_unique<agent::Agent>(*drv, art, ao);
  }

  auto model = std::make_shared<AclModel>(sub_seed(opt.seed, 1));
  agent->set_native_reaction("acl_react", [model](agent::ReactionContext& ctx) {
    model->churn(ctx);
  });
  Rng rng(sub_seed(opt.seed, 2));
  // Routes of /16 to /32 inside the trace's 16-bit destination range.
  std::vector<int> lengths;
  for (int len = 16; len <= 32; ++len) lengths.push_back(len);
  const auto routes =
      seeded_lpm_routes(rng, kRoutes, lengths, kDstBase, 1u << 16, 1, 31);
  {
    ScopedSpan s(opt.spans, "net.fabric.route_install");
    agent->run_prologue([&](agent::ReactionContext& ctx) {
      for (const auto& r : routes) ctx.add_entry("route", r);
      for (int i = 0; i < kAclEntries; ++i) model->add(ctx);
    });
  }
  const Time base = loop.now();
  const Duration window = opt.smoke ? kSmokeHorizon : kHorizon;
  const Time horizon = base + window;

  // Seeded low-rate traffic: a Zipf trace replayed one packet per event.
  workload::TraceConfig tc;
  tc.num_flows = kTraceFlows;
  tc.num_packets = static_cast<std::size_t>(kPktsPerVirtualSecond * to_s(window));
  tc.duration_s = to_s(window);
  tc.seed = sub_seed(opt.seed, 3);
  const auto trace = workload::generate_trace(tc);
  const auto& fields = art.prog.fields;
  const p4::FieldId f_src = fields.require("ipv4.srcAddr");
  const p4::FieldId f_dst = fields.require("ipv4.dstAddr");
  const p4::FieldId f_proto = fields.require("ipv4.protocol");
  auto make_packet = [&](const workload::TracePacket& tp) {
    auto pkt = sw->factory().make(tp.bytes);
    pkt.set(f_src, tp.src_ip, fields.width(f_src));
    pkt.set(f_dst, tp.dst_ip, fields.width(f_dst));
    pkt.set(f_proto, tp.proto, fields.width(f_proto));
    return pkt;
  };
  std::size_t next = 0;
  std::function<void()> replay = [&] {
    const auto& tp = trace.packets[next];
    sw->inject(make_packet(tp), 2 + static_cast<int>(tp.src_ip % 24));
    if (++next < trace.packets.size()) {
      loop.schedule_at(base + trace.packets[next].t, [&] { replay(); });
    }
  };
  if (!trace.packets.empty()) {
    loop.schedule_at(base + trace.packets.front().t, [&] { replay(); });
  }
  std::uint64_t delivered = 0;
  sw->set_on_transmit([&](const sim::Packet&, int, Time) { ++delivered; });
  out.setup_s = seconds_since(t0);

  // ---- timed window ----
  auto& prof = loop.telemetry().prof();
  prof.set_enabled(opt.traced);
  DialogueTally tally;
  tally.start(*agent, *drv);
  const auto batches0 = agent->async_driver()->batches_submitted();
  const auto updates0 = model->updates;
  const auto w0 = Clock::now();
  while (loop.now() < horizon) {
    ScopedSpan s(opt.spans, "agent.dialogue_iteration");
    agent->dialogue_iteration();
    tally.add(agent->last_breakdown());
  }
  agent->drain_pending_pushes();
  loop.run();
  out.window_s = seconds_since(w0);
  prof.set_enabled(false);
  out.virtual_s = to_s(window);

  // ---- outcomes and checks ----
  SwitchTotals st;
  add_switch(st, *sw);
  out.pkts = st.ingress_pkts;
  out.reactions = tally.iterations;
  out.updates = model->updates - updates0;
  out.attempted = st.rx_pkts + out.updates;
  out.check(next == trace.packets.size(), "trace not fully replayed");
  out.check(st.rx_pkts == trace.packets.size(), "packets sent != received");
  check_conservation(out, st.rx_pkts,
                     delivered + st.rx_drops + st.tm_drops + st.tm_queued);

  auto& acl = sw->table("acl");
  if (opt.fault == "corrupt_acl" && acl.entry_count() > 0) {
    const auto h = acl.handles().front();
    acl.modify_entry(h, "permit", {static_cast<std::uint64_t>(256 + 1)});
  }
  std::multiset<Row> expected;
  for (const auto& [id, e] : model->live) {
    expected.insert({key_of(e.key), e.priority, e.action, e.action_args});
  }
  const int vv_col = art.bindings.tables.at("acl").vv_col;
  for (int v = 0; v < 2; ++v) {
    if (switch_acl(acl, vv_col, v) != expected) {
      out.check(false, "switch ACL (version " + std::to_string(v) +
                           ") != the reaction's model");
    }
  }

  out.virt["updates_per_vs"] = {static_cast<double>(out.updates) / to_s(window), "1/s"};
  add_reaction_virt(out, *agent);
  out.virt["transit_p99_us"] = {histogram_p99(loop, "sim.switch.transit_ns") / 1000.0,
                                "us"};
  auto& d = out.digest;
  d.add("rx", st.rx_pkts);
  d.add("tx", st.tx_pkts);
  d.add("rx_drops", st.rx_drops);
  d.add("hits", st.table_hits);
  d.add("updates", out.updates);
  d.add("ops", drv->channel().ops_submitted());
  d.add("transit_p99", out.virt["transit_p99_us"].value);
  for (const auto& [key, prio, action, args] : expected) {
    std::apply([&](auto... v) { (d.add("acl_key", static_cast<std::uint64_t>(v)), ...); },
               key);
    d.add("acl_prio", static_cast<std::uint64_t>(prio));
    d.add(action, std::uint64_t{0});
    for (const auto a : args) d.add("acl_arg", a);
  }

  if (!opt.traced) return out;

  // ---- per-layer metrics (traced batch only) ----
  auto& L = out.layer;
  add_switch_layers(out, st, loop);
  add_profile_layers(out, loop);
  add_control_layers(out, *agent, *drv, tally, window);
  const auto batches = agent->async_driver()->batches_submitted() - batches0;
  L["driver.async.batches"] = {static_cast<double>(batches), "count"};
  const auto* batch_ops = loop.telemetry().metrics().find_histogram("driver.async.batch_ops");
  L["driver.async.ops_per_batch"] = {
      batch_ops != nullptr && batch_ops->count() > 0 ? batch_ops->stats().mean() : 0,
      "ratio"};

  std::vector<sim::Packet> sample;
  for (std::size_t i = 0; i < trace.packets.size() && sample.size() < 512; ++i) {
    sample.push_back(make_packet(trace.packets[i]));
  }
  const auto cost = time_tables(*sw, {"acl", "route"}, sample, opt.spans);
  L["sim.table.ternary_lookup_ns"] = {cost.ternary_lookup_ns, "ns"};
  L["sim.table.ternary_write_ns"] = {cost.ternary_write_ns, "ns"};
  L["sim.table.lpm_lookup_ns"] = {cost.lpm_lookup_ns, "ns"};
  L["sim.table.entries"] = {cost.entries, "count"};
  return out;
}

}  // namespace perfbench
