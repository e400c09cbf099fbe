#include "common.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <set>
#include <sstream>

#include "sim/table_state.hpp"
#include "telemetry/prof/prof.hpp"

namespace perfbench {

using namespace mantis;

int SpanLog::open(std::string name) {
  Span s;
  s.name = std::move(name);
  s.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - origin_)
                   .count();
  s.parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back(std::move(s));
  stack_.push_back(static_cast<int>(spans_.size()) - 1);
  return stack_.back();
}

void SpanLog::close(int id) {
  spans_[static_cast<std::size_t>(id)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           origin_)
          .count();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

std::vector<double> SpanLog::durations_ms(std::string_view name) const {
  std::vector<double> out;
  for (const auto& s : spans_) {
    if (s.name == name && s.end_ns >= 0) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
    }
  }
  return out;
}

std::string SpanLog::to_json() const {
  std::ostringstream o;
  o << "{\"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    o << (i == 0 ? "\n" : ",\n") << "  {\"name\": \"" << s.name
      << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
      << ", \"parent\": " << s.parent << "}";
  }
  o << "\n]}\n";
  return o.str();
}

void Digest::mix(const void* p, std::size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= b[i];
    h_ *= 1099511628211ull;
  }
}

void Digest::add(std::string_view key, std::uint64_t v) {
  mix(key.data(), key.size());
  mix(&v, sizeof v);
}

void Digest::add(std::string_view key, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  add(key, bits);
}

std::string Digest::hex() const {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

void Outcome::check(bool ok, const std::string& what) {
  if (ok) return;
  failures.push_back(what);
  ++failed;
}

std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t prefix_mask(int len) {
  return len == 0 ? 0 : (0xffffffffull << (32 - len)) & 0xffffffffull;
}

std::vector<p4::EntrySpec> seeded_lpm_routes(
    Rng& rng, std::size_t n, const std::vector<int>& lengths,
    std::uint64_t addr_base, std::uint64_t addr_span, std::uint64_t port_lo,
    std::uint64_t ports, std::vector<p4::EntrySpec> fixed) {
  std::vector<p4::EntrySpec> routes = std::move(fixed);
  std::set<std::pair<std::uint64_t, std::uint64_t>> seen;
  for (const auto& r : routes) seen.insert({r.key[0].value, r.key[0].mask});
  while (routes.size() < n) {
    const std::uint64_t mask = prefix_mask(lengths[rng.uniform(lengths.size())]);
    const std::uint64_t value = (addr_base + rng.uniform(addr_span)) & mask;
    const std::uint64_t port = port_lo + rng.uniform(ports);
    if (!seen.insert({value, mask}).second) continue;
    p4::EntrySpec spec;
    spec.key.push_back(p4::MatchValue{value, mask});
    spec.action = "set_egress";
    spec.action_args = {port};
    routes.push_back(std::move(spec));
  }
  return routes;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

namespace {

enum class Kind { kExact, kTernary, kLpm };

Kind classify(const p4::TableDecl& decl) {
  Kind k = Kind::kExact;
  for (const auto& r : decl.reads) {
    if (r.kind == p4::MatchKind::kLpm) return Kind::kLpm;
    if (r.kind == p4::MatchKind::kTernary) k = Kind::kTernary;
  }
  return k;
}

/// Host ns per lookup over the sample, repeated until ~20 ms have run.
double time_lookups(const sim::TableState& t,
                    const std::vector<sim::Packet>& sample) {
  std::uint64_t hits = 0, n = 0;
  const auto t0 = Clock::now();
  do {
    for (const auto& pkt : sample) hits += t.lookup(pkt).hit ? 1 : 0;
    n += sample.size();
  } while (seconds_since(t0) < 0.02);
  const double ns = seconds_since(t0) * 1e9 / static_cast<double>(n);
  // Keeps the lookups observable to the optimizer.
  if (hits > n) std::fprintf(stderr, "impossible hit count\n");
  return ns;
}

/// Host ns per add or delete: a copy of the table (same declaration, same
/// entries) has each entry deleted and re-added, until ~20 ms have run.
double time_writes(const sim::Switch& sw, const sim::TableState& live) {
  sim::TableState copy(sw.program(), live.decl());
  for (const auto h : live.handles()) copy.add_entry(live.entry(h));
  std::uint64_t ops = 0;
  const auto t0 = Clock::now();
  do {
    for (const auto h : copy.handles()) {
      const p4::EntrySpec spec = copy.entry(h);
      copy.delete_entry(h);
      copy.add_entry(spec);
      ops += 2;
    }
  } while (seconds_since(t0) < 0.02 && ops > 0);
  return ops == 0 ? 0 : seconds_since(t0) * 1e9 / static_cast<double>(ops);
}

}  // namespace

TableCost time_tables(const sim::Switch& sw,
                      const std::vector<std::string>& tables,
                      const std::vector<sim::Packet>& sample,
                      SpanLog* spans) {
  TableCost c;
  for (const auto& name : tables) {
    ScopedSpan span(spans, "sim.table." + name);
    const auto& t = sw.table(name);
    c.entries += static_cast<double>(t.entry_count());
    switch (classify(t.decl())) {
      case Kind::kExact:
        c.exact_lookup_ns = time_lookups(t, sample);
        break;
      case Kind::kLpm:
        c.lpm_lookup_ns = time_lookups(t, sample);
        break;
      case Kind::kTernary:
        c.ternary_lookup_ns = time_lookups(t, sample);
        c.ternary_write_ns = time_writes(sw, t);
        break;
    }
  }
  return c;
}

void add_profile_layers(Outcome& out, sim::EventLoop& loop) {
  const auto r = loop.telemetry().prof().report();
  const auto events = static_cast<double>(r.events);
  out.layer["sim.events"] = {events, "count"};
  out.layer["sim.events_per_pkt"] = {
      out.pkts == 0 ? 0 : events / static_cast<double>(out.pkts), "ratio"};
  out.layer["util.pool.allocs_per_event"] = {r.allocs_per_event(), "ratio"};
  double total = 0;
  for (const auto& k : r.kinds) total += static_cast<double>(k.self_ns);
  auto frac = [&](std::initializer_list<telemetry::prof::EventKind> kinds) {
    double ns = 0;
    for (const auto k : kinds) {
      ns += static_cast<double>(r.kinds[static_cast<std::size_t>(k)].self_ns);
    }
    return total > 0 ? ns / total : 0.0;
  };
  using telemetry::prof::EventKind;
  out.layer["prof.pipeline_execute_frac"] = {
      frac({EventKind::kPipelineExecute}), "ratio"};
  out.layer["prof.packet_transit_frac"] = {frac({EventKind::kPacketTransit}),
                                           "ratio"};
  out.layer["prof.tm_dequeue_frac"] = {frac({EventKind::kTmDequeue}),
                                       "ratio"};
  out.layer["prof.control_frac"] = {
      frac({EventKind::kControlDriver, EventKind::kAgentPoll}), "ratio"};
  // Share of the timed window's host time spent dispatching packet events;
  // the rest is the control path (agent, driver) and the engine's barriers.
  double packet_ns = 0;
  for (const auto k : {EventKind::kPipelineExecute, EventKind::kPacketTransit,
                       EventKind::kTmDequeue}) {
    packet_ns += static_cast<double>(r.kinds[static_cast<std::size_t>(k)].self_ns);
  }
  out.layer["prof.dataplane_host_frac"] = {
      out.window_s > 0 ? packet_ns / (out.window_s * 1e9) : 0.0, "ratio"};
}

void add_switch(SwitchTotals& t, const sim::Switch& sw) {
  t.ingress_pkts += sw.ingress_stats().packets;
  t.table_hits += sw.ingress_stats().table_hits;
  t.table_misses += sw.ingress_stats().table_misses;
  for (int p = 0; p < sw.config().num_ports; ++p) {
    const auto& ps = sw.port_stats(p);
    t.rx_pkts += ps.rx_pkts;
    t.rx_drops += ps.rx_drops;
    t.tx_pkts += ps.tx_pkts;
    t.tm_drops += sw.traffic_manager().stats(p).tail_drops;
    t.tm_queued += sw.queue_depth_pkts(p);
  }
}

void DialogueTally::start(const agent::Agent& agent, driver::Driver& drv) {
  ops_at_start = drv.channel().ops_submitted();
  channel_busy_at_start = drv.channel().busy_time();
  agent_busy_at_start = agent.busy_time();
}

void DialogueTally::add(const agent::Agent::IterationBreakdown& b) {
  mv_flip_ns += static_cast<double>(b.mv_flip);
  measure_react_ns += static_cast<double>(b.measure_and_react);
  update_ns += static_cast<double>(b.update);
  ++iterations;
}

void add_reaction_virt(Outcome& out, const agent::Agent& agent) {
  const auto& lat = agent.iteration_latencies();
  const bool any = lat.count() > 0;
  out.virt["reaction_p50_us"] = {any ? lat.percentile(50) / 1000.0 : 0, "us"};
  out.virt["reaction_p99_us"] = {any ? lat.percentile(99) / 1000.0 : 0, "us"};
  out.virt["reaction_samples"] = {static_cast<double>(lat.count()), "count"};
  out.digest.add("iterations", agent.iterations());
  out.digest.add("busy", static_cast<std::uint64_t>(agent.busy_time()));
  out.digest.add("reaction_p50", out.virt["reaction_p50_us"].value);
  out.digest.add("reaction_p99", out.virt["reaction_p99_us"].value);
}

void add_control_layers(Outcome& out, const agent::Agent& agent,
                        driver::Driver& drv, const DialogueTally& tally,
                        Duration window) {
  auto& L = out.layer;
  const double iters =
      static_cast<double>(std::max<std::uint64_t>(1, tally.iterations));
  const double ops =
      static_cast<double>(drv.channel().ops_submitted() - tally.ops_at_start);
  const double vw = static_cast<double>(window);
  L["driver.ops"] = {ops, "count"};
  L["driver.ops_per_iteration"] = {ops / iters, "ratio"};
  L["driver.channel_busy_frac"] = {
      static_cast<double>(drv.channel().busy_time() - tally.channel_busy_at_start) / vw,
      "ratio"};
  L["agent.mv_flip_us"] = {tally.mv_flip_ns / iters / 1000.0, "us"};
  L["agent.measure_react_us"] = {tally.measure_react_ns / iters / 1000.0, "us"};
  L["agent.update_us"] = {tally.update_ns / iters / 1000.0, "us"};
  L["agent.busy_frac"] = {
      static_cast<double>(agent.busy_time() - tally.agent_busy_at_start) / vw,
      "ratio"};
}

double histogram_p99(sim::EventLoop& loop, const char* name) {
  const auto* h = loop.telemetry().metrics().find_histogram(name);
  return h != nullptr && h->count() > 0 ? h->quantile(0.99) : 0;
}

void add_switch_layers(Outcome& out, const SwitchTotals& st,
                       sim::EventLoop& loop) {
  auto& L = out.layer;
  const auto lookups = std::max<std::uint64_t>(1, st.table_hits + st.table_misses);
  L["sim.pipeline.pkts"] = {static_cast<double>(st.ingress_pkts), "count"};
  L["sim.pipeline.hit_frac"] = {
      static_cast<double>(st.table_hits) / static_cast<double>(lookups), "ratio"};
  L["sim.tm.drops"] = {static_cast<double>(st.tm_drops), "count"};
  L["sim.tm.depth_p99_pkts"] = {histogram_p99(loop, "sim.tm.queue_depth_pkts"),
                                "pkts"};
}

void check_conservation(Outcome& out, std::uint64_t sent,
                        std::uint64_t accounted) {
  if (sent == accounted) return;
  out.check(false, "packet conservation: sent " + std::to_string(sent) +
                       " != delivered + dropped + queued " +
                       std::to_string(accounted));
  if (sent > accounted) out.failed += sent - accounted;
}

}  // namespace perfbench
