// Shared pieces of the repository benchmark: host timing, the in-memory
// span log of the traced run, the digest of virtual outcomes, and the
// per-batch outcome every workload returns.
//
// Every workload is one deterministic discrete-event batch: set up, run a
// fixed virtual horizon, drain, check. The benchmark only calls public APIs
// of the simulator and times those calls from outside.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "agent/agent.hpp"
#include "driver/driver.hpp"
#include "sim/packet.hpp"
#include "sim/switch.hpp"
#include "util/rng.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}


/// Spans kept in memory during the traced run and written when it ends.
/// Each span is one timed call into a layer: name, host start/end (ns since
/// the log was created) and the index of the enclosing span (-1 = root).
class SpanLog {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;
    int parent = -1;
  };

  int open(std::string name);
  void close(int id);

  /// Durations (ms) of every closed span called `name`, in start order.
  std::vector<double> durations_ms(std::string_view name) const;
  /// {"spans": [{"name", "start_ns", "end_ns", "parent"}, ...]}
  std::string to_json() const;

 private:
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Times one public call when a log is attached; a no-op otherwise, so the
/// untraced runs pay nothing for it.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name)
      : log_(log), id_(log != nullptr ? log->open(std::move(name)) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int id_;
};

/// FNV-1a over (key, value) pairs of virtual outcomes. Two runs of one seed
/// must produce the same digest; so must the sequential and the parallel
/// engine.
class Digest {
 public:
  void add(std::string_view key, std::uint64_t v);
  void add(std::string_view key, double v);  ///< hashes the exact bits
  std::uint64_t value() const { return h_; }
  std::string hex() const;

 private:
  std::uint64_t h_ = 1469598103934665603ull;
  void mix(const void* p, std::size_t n);
};

struct Metric {
  double value = 0;
  std::string unit;
};

/// Result of one batch of a workload.
struct Outcome {
  double setup_s = 0;   ///< host: compile, build, install, up to the first event
  double window_s = 0;  ///< host: the timed run over the virtual horizon
  double virtual_s = 0; ///< virtual length of the timed run
  std::uint64_t pkts = 0;       ///< ingress-pipeline passes, all switches
  std::uint64_t reactions = 0;  ///< completed dialogue iterations
  std::uint64_t updates = 0;    ///< committed user-level table updates
  std::uint64_t attempted = 0;  ///< packets sent + control ops submitted
  std::uint64_t failed = 0;     ///< failed checks, rejected ops, lost packets
  std::vector<std::string> failures;
  /// Virtual-time metrics: identical in every batch of one seed.
  std::map<std::string, Metric> virt;
  /// Per-layer metrics; filled only by traced batches.
  std::map<std::string, Metric> layer;
  Digest digest;

  /// Records a failed output check (counted in `failed`).
  void check(bool ok, const std::string& what);
};

struct Options {
  std::uint64_t seed = 1;
  bool traced = false;  ///< profiler on, spans recorded, layers measured
  bool smoke = false;   ///< short horizon, for the benchmark's own tests
  /// Deliberately broken output, for the tests of the checks:
  /// "withhold_block" (dos_reaction) or "corrupt_acl" (acl_churn).
  std::string fault;
  int threads = 2;      ///< parallel engine threads (clos_fabric)
  SpanLog* spans = nullptr;
};

Outcome run_clos_fabric(const Options& opt);
Outcome run_dos_reaction(const Options& opt);
Outcome run_acl_churn(const Options& opt);

/// Independent sub-seed `stream` of the workload seed (splitmix64).
std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t stream);

/// The IPv4 netmask of a /len prefix (0 for /0).
std::uint64_t prefix_mask(int len);

/// Seeded LPM route entries ("set_egress"): `fixed` first, then distinct
/// (value, mask) prefixes up to `n` in all. Each draw takes, in order, a
/// length from `lengths`, an address addr_base + uniform(addr_span) and an
/// egress port port_lo + uniform(ports); a prefix already drawn is skipped.
std::vector<mantis::p4::EntrySpec> seeded_lpm_routes(
    mantis::Rng& rng, std::size_t n, const std::vector<int>& lengths,
    std::uint64_t addr_base, std::uint64_t addr_span, std::uint64_t port_lo,
    std::uint64_t ports, std::vector<mantis::p4::EntrySpec> fixed = {});

/// Linear-interpolated percentile, q in [0, 100]; 0 for an empty vector.
double percentile(std::vector<double> v, double q);

/// Host cost of TableState::lookup / add+delete, measured on packets built
/// from the run's inputs against the end-of-run tables. Tables are named
/// by the caller; each one is classified by its match kinds (any LPM read
/// = lpm, else any ternary read = ternary, else exact).
struct TableCost {
  double exact_lookup_ns = 0;
  double lpm_lookup_ns = 0;
  double ternary_lookup_ns = 0;
  double ternary_write_ns = 0;  ///< per add or delete on a ternary table
  double entries = 0;           ///< live entries in the timed tables
};
TableCost time_tables(const mantis::sim::Switch& sw,
                      const std::vector<std::string>& tables,
                      const std::vector<mantis::sim::Packet>& sample,
                      SpanLog* spans);

/// Fills the per-layer metrics shared by every workload from the stack's
/// profiler report (events, allocations, per-kind shares).
void add_profile_layers(Outcome& out, mantis::sim::EventLoop& loop);

/// Sums ingress/egress pipeline statistics and TM drops over switches.
struct SwitchTotals {
  std::uint64_t ingress_pkts = 0;
  std::uint64_t table_hits = 0;
  std::uint64_t table_misses = 0;
  std::uint64_t rx_pkts = 0;
  std::uint64_t rx_drops = 0;  ///< ingress drops (pipeline, unrouted, down)
  std::uint64_t tx_pkts = 0;
  std::uint64_t tm_drops = 0;
  std::uint64_t tm_queued = 0;  ///< packets still queued in the TM
};
void add_switch(SwitchTotals& t, const mantis::sim::Switch& sw);

/// Per-layer pipeline and TM metrics (sim.pipeline.pkts, .hit_frac,
/// sim.tm.drops, .depth_p99_pkts) of the switches summed in `st`.
void add_switch_layers(Outcome& out, const SwitchTotals& st,
                       mantis::sim::EventLoop& loop);

/// p99 of a registry histogram, 0 when it has no samples.
double histogram_p99(mantis::sim::EventLoop& loop, const char* name);

/// Packet conservation: `sent` must equal `accounted` (delivered + counted
/// drops + still queued). A failure is one failed check plus one failed
/// operation per packet unaccounted for.
void check_conservation(Outcome& out, std::uint64_t sent,
                        std::uint64_t accounted);

/// What the timed dialogue did: phase times summed over the iterations the
/// benchmark drove, and the channel/agent counters at the window's start
/// (so the prologue's route install is not counted).
struct DialogueTally {
  double mv_flip_ns = 0;
  double measure_react_ns = 0;
  double update_ns = 0;
  std::uint64_t iterations = 0;
  std::uint64_t ops_at_start = 0;
  mantis::Duration channel_busy_at_start = 0;
  mantis::Duration agent_busy_at_start = 0;

  void start(const mantis::agent::Agent& agent, mantis::driver::Driver& drv);
  void add(const mantis::agent::Agent::IterationBreakdown& b);
};

/// Virtual reaction-latency metrics every control workload reports:
/// reaction_p50_us / reaction_p99_us / reaction_samples over
/// Agent::iteration_latencies().
void add_reaction_virt(Outcome& out, const mantis::agent::Agent& agent);

/// Per-layer metrics of the driver channel and the agent dialogue.
/// `window` is the virtual length of the timed dialogue.
void add_control_layers(Outcome& out, const mantis::agent::Agent& agent,
                        mantis::driver::Driver& drv, const DialogueTally& tally,
                        mantis::Duration window);

}  // namespace perfbench
