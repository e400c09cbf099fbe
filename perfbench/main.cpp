// The repository benchmark's driver program.
//
//   perfbench --workload <clos_fabric|dos_reaction|acl_churn> --seed <n>
//             --seconds <s> --trace <0|1> [--smoke] [--fault <name>]
//             [--spans <path>] [--out <path>]
//
// Runs batches of one workload until --seconds of host time have passed
// (at least kMinBatches), checks every batch's outputs, and prints a
// human-readable report followed, as its last line, by one JSON object:
//   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}
// --trace 0 reports the end-to-end metrics, from untraced batches with the
// profiler off. --trace 1 alternates untraced and traced batches and
// reports the per-layer metrics. Exits 1 when any check fails.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cerrno>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"

namespace {

using namespace perfbench;

constexpr int kMinBatches = 3;
/// Never start a batch that could push the run past this many host seconds.
constexpr double kHardLimitS = 150;

struct Catalog {
  const char* name;
  const char* unit;
};

// The metrics BENCHMARK.json lists. Every workload reports all of them.
constexpr Catalog kEndToEnd[] = {
    {"setup_s", "s"},
    {"pkts_per_s", "pkt/s"},
    {"peak_rss_mb", "MB"},
    {"transit_p99_us", "us"},
};

// Per-layer metrics of the traced run. A layer a workload does not load
// reports 0 (e.g. net.engine.* on one switch, driver.* on clos_fabric).
constexpr Catalog kPerLayer[] = {
    {"p4r.frontend_ms", "ms"},
    {"compile.compile_ms", "ms"},
    {"net.fabric.build_ms", "ms"},
    {"net.fabric.route_install_ms", "ms"},
    {"sim.table.exact_lookup_ns", "ns"},
    {"sim.table.lpm_lookup_ns", "ns"},
    {"sim.table.ternary_lookup_ns", "ns"},
    {"sim.table.ternary_write_ns", "ns"},
    {"sim.table.entries", "count"},
    {"sim.pipeline.pkts", "count"},
    {"sim.pipeline.hit_frac", "ratio"},
    {"sim.host_ns_per_pkt", "ns"},
    {"sim.events", "count"},
    {"sim.events_per_pkt", "ratio"},
    {"sim.host_ns_per_event", "ns"},
    {"util.pool.allocs_per_event", "ratio"},
    {"sim.tm.drops", "count"},
    {"sim.tm.depth_p99_pkts", "pkts"},
    {"net.link.delivered_pkts", "count"},
    {"net.link.drops", "count"},
    {"net.engine.rounds", "count"},
    {"net.engine.events_per_round", "ratio"},
    {"net.engine.round_host_us", "us"},
    {"net.engine.barrier_stall_frac", "ratio"},
    {"net.engine.imbalance", "ratio"},
    {"prof.pipeline_execute_frac", "ratio"},
    {"prof.packet_transit_frac", "ratio"},
    {"prof.tm_dequeue_frac", "ratio"},
    {"prof.control_frac", "ratio"},
    {"prof.dataplane_host_frac", "ratio"},
    {"driver.ops", "count"},
    {"driver.ops_per_iteration", "ratio"},
    {"driver.channel_busy_frac", "ratio"},
    {"driver.async.batches", "count"},
    {"driver.async.ops_per_batch", "ratio"},
    {"driver.updates_per_s", "1/s"},
    {"driver.updates_per_vs", "1/s"},
    {"agent.iteration_host_us_p50", "us"},
    {"agent.iteration_host_us_p99", "us"},
    {"agent.mv_flip_us", "us"},
    {"agent.measure_react_us", "us"},
    {"agent.update_us", "us"},
    {"agent.busy_frac", "ratio"},
    {"agent.reactions_per_s", "1/s"},
    {"agent.reaction_p50_us", "us"},
    {"agent.reaction_p99_us", "us"},
    {"agent.reaction_samples", "count"},
    {"apps.dos.mitigation_us", "us"},
    {"creact.steps_per_reaction", "ratio"},
    {"creact.host_ns_per_step", "ns"},
    {"trace.pkts_per_s_untraced", "pkt/s"},
    {"trace.pkts_per_s_traced", "pkt/s"},
    {"trace.overhead_frac", "ratio"},
    {"host.cores", "count"},
    {"host.threads", "count"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string fault;
  std::string spans_path;
  std::string out_path;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<clos_fabric|dos_reaction|acl_churn> --seed <n> --seconds <s> "
               "--trace <0|1> [--smoke] [--fault <name>] [--spans <path>] "
               "[--out <path>]\n",
               why.c_str());
  std::exit(2);
}

std::uint64_t parse_uint(const std::string& flag, const char* s) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || s[0] == '-') {
    usage("bad value for " + flag + ": " + s);
  }
  return v;
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = value();
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = parse_uint(flag, value());
      have_seed = true;
    } else if (flag == "--seconds") {
      const auto s = parse_uint(flag, value());
      if (s < 1 || s > 120) usage("--seconds must be in [1, 120]");
      a.seconds = static_cast<double>(s);
      have_seconds = true;
    } else if (flag == "--trace") {
      const auto t = parse_uint(flag, value());
      if (t > 1) usage("--trace must be 0 or 1");
      a.trace = t == 1;
      have_trace = true;
    } else if (flag == "--smoke") {
      a.smoke = true;
    } else if (flag == "--fault") {
      a.fault = value();
    } else if (flag == "--spans") {
      a.spans_path = value();
    } else if (flag == "--out") {
      a.out_path = value();
    } else {
      usage("unknown argument " + flag);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  return a;
}

double median(std::vector<double> v) { return percentile(std::move(v), 50); }

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const std::vector<std::pair<std::string, Metric>>& ms) {
  std::string s = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) s += ", ";
    s += "\"" + ms[i].first + "\": {\"value\": " +
         json_number(ms[i].second.value) + ", \"unit\": \"" +
         ms[i].second.unit + "\"}";
  }
  return s + "}";
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  std::function<Outcome(const Options&)> run;
  if (args.workload == "clos_fabric") {
    run = run_clos_fabric;
  } else if (args.workload == "dos_reaction") {
    run = run_dos_reaction;
  } else if (args.workload == "acl_churn") {
    run = run_acl_churn;
  } else {
    usage("unknown workload " + args.workload);
  }
  const std::map<std::string, std::string> faults = {
      {"withhold_block", "dos_reaction"}, {"corrupt_acl", "acl_churn"}};
  if (!args.fault.empty()) {
    const auto it = faults.find(args.fault);
    if (it == faults.end() || it->second != args.workload) {
      usage("fault " + args.fault + " does not apply to " + args.workload);
    }
  }

  Options opt;
  opt.seed = args.seed;
  opt.smoke = args.smoke;
  opt.fault = args.fault;
  const unsigned cores = std::thread::hardware_concurrency();

  std::vector<Outcome> plain, traced;
  std::vector<std::string> failures;
  SpanLog spans;
  const auto start = Clock::now();
  double longest_batch_s = 0;
  auto batch = [&](bool with_trace) {
    Options o = opt;
    o.traced = with_trace;
    o.spans = with_trace ? &spans : nullptr;
    const auto b0 = Clock::now();
    Outcome out;
    try {
      out = run(o);
    } catch (const std::exception& e) {
      out.check(false, std::string("batch threw: ") + e.what());
    }
    longest_batch_s = std::max(longest_batch_s, seconds_since(b0));
    (with_trace ? traced : plain).push_back(std::move(out));
  };
  // At least kMinBatches, then until --seconds have passed; never start a
  // batch that could overrun the hard limit.
  auto more = [&] {
    const double used = seconds_since(start);
    if (used + longest_batch_s >= kHardLimitS) return false;
    return plain.size() < kMinBatches || used < args.seconds;
  };
  do {
    batch(false);
    if (args.trace) batch(true);
  } while (more());

  // clos_fabric: the digest at opt.threads must equal the sequential
  // engine's (checked once per traced or smoke run; it costs a batch).
  std::string seq_digest;
  if (args.workload == "clos_fabric" && (args.trace || args.smoke)) {
    Options o = opt;
    o.threads = 1;
    Outcome seq;
    try {
      seq = run(o);
    } catch (const std::exception& e) {
      seq.check(false, std::string("sequential batch threw: ") + e.what());
    }
    seq_digest = seq.digest.hex();
    for (const auto& f : seq.failures) failures.push_back("sequential: " + f);
    if (seq.digest.value() != plain.front().digest.value()) {
      failures.push_back("digest differs between the sequential engine (" +
                         seq_digest + ") and " + std::to_string(opt.threads) +
                         " threads (" + plain.front().digest.hex() + ")");
    }
  }

  // ---- aggregate ----
  std::uint64_t attempted = 0, failed = failures.size();
  const Outcome& first = plain.front();
  auto cross_check = [&](const std::string& what) {
    failures.push_back(what);
    ++failed;
  };
  for (const auto* set : {&plain, &traced}) {
    for (const auto& o : *set) {
      attempted += o.attempted;
      failed += o.failed;
      failures.insert(failures.end(), o.failures.begin(), o.failures.end());
      if (o.digest.value() != first.digest.value()) {
        cross_check("digest differs between batches of one seed (" +
                    first.digest.hex() + " vs " + o.digest.hex() + ")");
      }
      for (const auto& [name, m] : o.virt) {
        const auto it = first.virt.find(name);
        if (it == first.virt.end() || it->second.value != m.value) {
          cross_check("virtual metric " + name +
                      " differs between batches of one seed");
        }
      }
    }
  }
  const bool correct = failures.empty() && failed == 0;

  std::vector<double> setup, pps, rps, ups, window;
  for (const auto& o : plain) {
    if (o.window_s <= 0) continue;  // the batch threw before its window
    setup.push_back(o.setup_s);
    window.push_back(o.window_s);
    pps.push_back(static_cast<double>(o.pkts) / o.window_s);
    rps.push_back(static_cast<double>(o.reactions) / o.window_s);
    ups.push_back(static_cast<double>(o.updates) / o.window_s);
  }
  const double rss = peak_rss_mb();

  // Every metric of the benchmark's definition (README.md); "n/a" where the
  // workload does not exercise it. Host metrics are medians over batches.
  const bool control = first.reactions > 0;
  struct Row {
    std::string name, unit, clock;
    bool applies;
    double value;
  };
  auto virt = [&](const char* n) {
    const auto it = first.virt.find(n);
    return it == first.virt.end() ? 0.0 : it->second.value;
  };
  const std::vector<Row> rows = {
      {"setup_s", "s", "host", true, median(setup)},
      {"pkts_per_s", "pkt/s", "host", true, median(pps)},
      {"reactions_per_s", "1/s", "host", control, median(rps)},
      {"updates_per_s", "1/s", "host", first.virt.count("updates_per_vs") > 0,
       median(ups)},
      {"peak_rss_mb", "MB", "host", true, rss},
      {"failed_frac", "ratio", "-", true,
       attempted == 0 ? 1.0 : static_cast<double>(failed) / static_cast<double>(attempted)},
      {"mitigation_us", "us", "virtual", first.virt.count("mitigation_us") > 0,
       virt("mitigation_us")},
      {"reaction_p50_us", "us", "virtual", control, virt("reaction_p50_us")},
      {"reaction_p99_us", "us", "virtual", control, virt("reaction_p99_us")},
      {"updates_per_vs", "1/s", "virtual", first.virt.count("updates_per_vs") > 0,
       virt("updates_per_vs")},
      {"transit_p99_us", "us", "virtual", true, virt("transit_p99_us")},
  };

  std::printf("perfbench workload=%s seed=%llu trace=%d smoke=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.trace ? 1 : 0, args.smoke ? 1 : 0);
  std::printf("host cores=%u engine_threads=%d batches=%zu traced_batches=%zu "
              "virtual_window_s=%.6f\n",
              cores, args.workload == "clos_fabric" ? opt.threads : 1,
              plain.size(), traced.size(), first.virtual_s);
  std::printf("per batch: pkts=%llu window_s min=%.4f median=%.4f max=%.4f "
              "setup_s min=%.4f median=%.4f max=%.4f\n",
              static_cast<unsigned long long>(first.pkts), percentile(window, 0),
              median(window), percentile(window, 100), percentile(setup, 0),
              median(setup), percentile(setup, 100));
  std::printf("digest=%s%s%s\n", first.digest.hex().c_str(),
              seq_digest.empty() ? "" : " sequential_digest=",
              seq_digest.c_str());
  std::printf("%-18s %-8s %-8s %s\n", "metric", "clock", "unit", "value");
  for (const auto& r : rows) {
    if (r.applies) {
      std::printf("%-18s %-8s %-8s %.6g\n", r.name.c_str(), r.clock.c_str(),
                  r.unit.c_str(), r.value);
    } else {
      std::printf("%-18s %-8s %-8s n/a\n", r.name.c_str(), r.clock.c_str(),
                  r.unit.c_str());
    }
  }
  if (control) {
    std::printf("reaction samples=%.0f\n", virt("reaction_samples"));
  }
  for (const auto& f : failures) std::printf("CHECK FAILED: %s\n", f.c_str());

  std::vector<std::pair<std::string, Metric>> reported;
  if (!args.trace) {
    for (const auto& c : kEndToEnd) {
      const auto it = std::find_if(rows.begin(), rows.end(),
                                   [&](const Row& r) { return r.name == c.name; });
      reported.push_back({c.name, {it->value, c.unit}});
    }
  } else {
    // Per-layer numbers: the traced batch with median window, plus figures
    // derived from the untraced batches (host time per packet and event,
    // the workload throughputs) and the tracing overhead itself.
    std::vector<std::size_t> order(traced.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return traced[a].window_s < traced[b].window_s;
    });
    const Outcome& t = traced[order[order.size() / 2]];
    std::map<std::string, Metric> layer = t.layer;
    std::vector<double> tpps;
    for (const auto& o : traced) {
      if (o.window_s > 0) tpps.push_back(static_cast<double>(o.pkts) / o.window_s);
    }
    const double untraced_pps = median(pps);
    const double traced_pps = median(tpps);
    const double window_ns = median(window) * 1e9;
    const double events = layer.count("sim.events") ? layer["sim.events"].value : 0;
    auto span_median_ms = [&](const char* name) {
      const auto d = spans.durations_ms(name);
      return d.empty() ? 0.0 : median(d);
    };
    layer["p4r.frontend_ms"] = {span_median_ms("p4r.frontend"), "ms"};
    layer["compile.compile_ms"] = {span_median_ms("compile.compile"), "ms"};
    layer["net.fabric.build_ms"] = {span_median_ms("net.fabric.build"), "ms"};
    layer["net.fabric.route_install_ms"] = {
        span_median_ms("net.fabric.route_install"), "ms"};
    const auto iters = spans.durations_ms("agent.dialogue_iteration");
    layer["agent.iteration_host_us_p50"] = {percentile(iters, 50) * 1000.0, "us"};
    layer["agent.iteration_host_us_p99"] = {percentile(iters, 99) * 1000.0, "us"};
    layer["sim.host_ns_per_pkt"] = {
        first.pkts > 0 ? window_ns / static_cast<double>(first.pkts) : 0, "ns"};
    layer["sim.host_ns_per_event"] = {events > 0 ? window_ns / events : 0, "ns"};
    layer["agent.reactions_per_s"] = {control ? median(rps) : 0, "1/s"};
    layer["agent.reaction_p50_us"] = {virt("reaction_p50_us"), "us"};
    layer["agent.reaction_p99_us"] = {virt("reaction_p99_us"), "us"};
    layer["agent.reaction_samples"] = {virt("reaction_samples"), "count"};
    layer["driver.updates_per_s"] = {
        first.virt.count("updates_per_vs") ? median(ups) : 0, "1/s"};
    layer["driver.updates_per_vs"] = {virt("updates_per_vs"), "1/s"};
    layer["apps.dos.mitigation_us"] = {virt("mitigation_us"), "us"};
    layer["trace.pkts_per_s_untraced"] = {untraced_pps, "pkt/s"};
    layer["trace.pkts_per_s_traced"] = {traced_pps, "pkt/s"};
    layer["trace.overhead_frac"] = {
        untraced_pps > 0 ? 1.0 - traced_pps / untraced_pps : 0, "ratio"};
    layer["host.cores"] = {static_cast<double>(cores), "count"};
    layer["host.threads"] = {
        static_cast<double>(args.workload == "clos_fabric" ? opt.threads : 1),
        "count"};
    std::set<std::string> known;
    for (const auto& c : kPerLayer) {
      known.insert(c.name);
      const auto it = layer.find(c.name);
      reported.push_back({c.name, {it == layer.end() ? 0.0 : it->second.value, c.unit}});
    }
    for (const auto& [name, m] : layer) {
      if (known.count(name) == 0) {
        std::fprintf(stderr, "perfbench: uncatalogued layer metric %s\n",
                     name.c_str());
        return 3;
      }
    }
    std::printf("\nper-layer (traced batch of median window; 0 = layer not "
                "loaded by this workload):\n");
    for (const auto& [name, m] : reported) {
      std::printf("  %-32s %-6s %.6g\n", name.c_str(), m.unit.c_str(), m.value);
    }
  }

  if (!args.spans_path.empty() && args.trace) {
    std::ofstream(args.spans_path) << spans.to_json();
  }
  const std::string result =
      std::string("{\"correct\": ") + (correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(1, attempted)) +
      ", \"failed\": " + std::to_string(failed) +
      ", \"metrics\": " + metrics_json(reported) + "}";
  if (!args.out_path.empty()) {
    // The result plus what it was measured on and every row of the report
    // (null where the workload does not exercise the metric).
    std::string report = "{";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      report += std::string(i == 0 ? "" : ", ") + "\"" + rows[i].name +
                "\": " + (rows[i].applies ? json_number(rows[i].value) : "null");
    }
    report += "}";
    std::ofstream(args.out_path)
        << "{\"workload\": \"" << args.workload << "\", \"seed\": " << args.seed
        << ", \"trace\": " << (args.trace ? 1 : 0) << ", \"host_cores\": " << cores
        << ", \"engine_threads\": "
        << (args.workload == "clos_fabric" ? opt.threads : 1)
        << ", \"batches\": " << plain.size() << ", \"digest\": \""
        << first.digest.hex() << "\", \"report\": " << report
        << ", \"result\": " << result << "}\n";
  }
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
