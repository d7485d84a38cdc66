// perfbench: runs one benchmark workload for a fixed host-time budget and
// prints its metrics. perfbench/run.py builds this binary and is the
// command BENCHMARK.json names:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>]
//
// --trace 0 reports the end-to-end metrics; --trace 1 the per-layer ones,
// from rounds run with spans and LLAMCAT_FASTPATH_STATS on. The last line
// of stdout is one JSON object {correct, attempted, failed, metrics}; the
// exit code is non-zero when a correctness check fails or the arguments
// are bad. README.md in this directory describes the workloads and
// metrics.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "spans.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Failures;
using perfbench::RoundResult;

constexpr const char* kUsage =
    "usage: perfbench --workload <name> --seed <n> --seconds <s> "
    "--trace <0|1> [--out-dir <dir>]\n";

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string out_dir = ".bench_build/perfbench-out";
};

bool parse_u64(const std::string& text, std::uint64_t& out) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos ||
      text.size() > 19) {
    return false;
  }
  out = std::stoull(text);
  return true;
}

/// Strict parser: every flag is required once (except --out-dir), and an
/// unknown flag, a missing value or a malformed number is an error.
std::optional<Args> parse_args(int argc, char** argv, std::string& error) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    if (key.rfind("--", 0) != 0) {
      error = "unexpected argument '" + key + "'";
      return std::nullopt;
    }
    if (const auto eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      error = "missing value for " + key;
      return std::nullopt;
    }
    if (key != "--workload" && key != "--seed" && key != "--seconds" &&
        key != "--trace" && key != "--out-dir") {
      error = "unknown argument '" + key + "'";
      return std::nullopt;
    }
    if (!kv.emplace(key, value).second) {
      error = "repeated argument " + key;
      return std::nullopt;
    }
  }
  for (const char* required : {"--workload", "--seed", "--seconds", "--trace"}) {
    if (kv.count(required) == 0) {
      error = std::string("missing ") + required;
      return std::nullopt;
    }
  }
  Args a;
  a.workload = kv["--workload"];
  std::uint64_t seconds = 0;
  if (!parse_u64(kv["--seed"], a.seed)) {
    error = "--seed must be a non-negative integer";
    return std::nullopt;
  }
  if (!parse_u64(kv["--seconds"], seconds) || seconds == 0 || seconds > 3600) {
    error = "--seconds must be an integer in [1, 3600]";
    return std::nullopt;
  }
  a.seconds = static_cast<double>(seconds);
  if (kv["--trace"] != "0" && kv["--trace"] != "1") {
    error = "--trace must be 0 or 1";
    return std::nullopt;
  }
  a.trace = kv["--trace"] == "1";
  if (kv.count("--out-dir") != 0) a.out_dir = kv["--out-dir"];
  if (a.out_dir.empty()) {
    error = "--out-dir must not be empty";
    return std::nullopt;
  }
  return a;
}

double peak_rss_mib() {
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// One metric of the final JSON line. Values print with every digit.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": "
       << json_number(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit
       << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

/// Host seconds of each round run, and the simulation calls they made.
struct Rounds {
  std::vector<double> walls;
  /// Per simulation call, the fastest it ran in any round.
  std::vector<double> best_call_s;
  std::uint64_t operations = 0;

  void add(const RoundResult& r) {
    walls.push_back(r.wall_s);
    if (best_call_s.empty()) best_call_s = r.call_s;
    for (std::size_t i = 0; i < best_call_s.size(); ++i) {
      best_call_s[i] = std::min(best_call_s[i], r.call_s.at(i));
    }
    operations += r.operations;
  }

  /// Host seconds of a round in which every simulation call ran as fast as
  /// its fastest run. Other tenants of a shared host only ever add time,
  /// and their load comes and goes within a run, so the per-call minimum
  /// keeps the program's own cost and drops theirs.
  [[nodiscard]] double best_wall_s() const {
    double sum = 0.0;
    for (const double c : best_call_s) sum += c;
    return sum;
  }
};

/// Runs rounds until `deadline`, at least one. The first round of the
/// process becomes `reference`; every later round must reproduce its digest.
void run_rounds(perfbench::BenchWorkload& wl, perfbench::SpanRecorder& rec,
                double deadline, Rounds& rounds, Failures& failures,
                std::optional<RoundResult>& reference) {
  do {
    std::optional<perfbench::ScopedSpan> span;
    span.emplace(rec, "round " + std::to_string(rounds.walls.size()),
                 "bench.round");
    RoundResult r = wl.run_round(rec);
    span.reset();
    rounds.add(r);
    if (!reference) {
      reference = r;
    } else if (r.digest != reference->digest) {
      failures.push_back("round " + std::to_string(rounds.walls.size()) +
                         " digest " + r.digest + " != first round's " +
                         reference->digest + " (nondeterministic simulation)");
    }
  } while (perfbench::host_now_s() < deadline);
}

std::vector<Metric> end_to_end_metrics(const RoundResult& r, double wall_s,
                                       double setup_s) {
  return {
      {"wall_s", wall_s, "s"},
      {"sim_mcycles_per_s", static_cast<double>(r.sim_cycles) / wall_s / 1e6,
       "Mcycles/s"},
      {"sim_requests_per_s", static_cast<double>(r.requests) / wall_s,
       "requests/s"},
      {"peak_rss_mb", peak_rss_mib(), "MiB"},
      {"setup_s", setup_s, "s"},
      {"llamcat_speedup", r.llamcat_speedup, "x"},
  };
}

std::vector<Metric> per_layer_metrics(const RoundResult& r,
                                      const perfbench::SpanRecorder& rec,
                                      const perfbench::FastpathTotals& fp,
                                      std::size_t traced_rounds,
                                      double overhead_pct) {
  const auto total = rec.total_seconds_by_layer();
  auto layer_s = [&](const std::string& layer) {
    const auto it = total.find(layer);
    return it == total.end() ? 0.0 : it->second;
  };
  const double n = static_cast<double>(traced_rounds);
  const double run_s = layer_s("sim.run") / n;
  const auto& c = r.totals.counters;
  const auto per = [&](std::uint64_t v) {
    return static_cast<double>(v) / n;  // fastpath totals span every round
  };
  const auto ns_per = [&](double count) {
    return count > 0.0 ? run_s * 1e9 / count : 0.0;
  };
  const double lookups = static_cast<double>(c.get("llc.lookups"));
  const double stepped = per(fp.stepped);
  auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  return {
      {"scenario.traffic_s", layer_s("scenario.traffic"), "s"},
      {"trace.map_s", layer_s("trace.map"), "s"},
      {"sim.run_s", run_s, "s"},
      {"sim.ns_per_cycle", ns_per(d(r.sim_cycles)), "ns"},
      {"sim.ns_per_stepped_cycle", ns_per(stepped), "ns"},
      {"sim.stepped_cycles", stepped, "count"},
      {"sim.skipped_cycles", per(fp.skipped), "count"},
      {"sim.skip_windows", per(fp.windows), "count"},
      {"sim.system_runs", per(fp.system_runs), "count"},
      {"vcore.instructions", d(r.totals.instructions), "count"},
      {"vcore.thread_blocks", d(r.totals.thread_blocks), "count"},
      {"cache.l1_load_misses", d(c.get("l1.load_misses")), "count"},
      {"llc.lookups", lookups, "count"},
      {"llc.hits", d(c.get("llc.hits")), "count"},
      {"llc.mshr_allocs", d(c.get("llc.mshr_allocs")), "count"},
      {"llc.mshr_hits", d(c.get("llc.mshr_hits")), "count"},
      {"llc.stall_entry_cycles", d(c.get("llc.stall_entry")), "cycles"},
      {"llc.mshr_entry_util", r.totals.mshr_entry_util, "fraction"},
      {"llc.ns_per_lookup", ns_per(lookups), "ns"},
      {"core.throttle_mem_cycles", d(c.get("core.c_mem_total")), "cycles"},
      {"core.throttle_idle_cycles", d(c.get("core.c_idle_total")), "cycles"},
      {"dram.reads", d(r.totals.dram_reads), "count"},
      {"dram.writes", d(r.totals.dram_writes), "count"},
      {"dram.row_hits", d(c.get("dram.row_hits")), "count"},
      {"dram.bw_gbps", r.totals.dram_bw_gbps, "GB/s"},
      {"scenario.preemptions", d(r.preemptions), "count"},
      {"scenario.queue_wait_cycles", d(r.queue_wait_cycles), "cycles"},
      {"scenario.swapped_blocks", d(r.swapped_blocks), "count"},
      {"scenario.refetch_bytes", d(r.refetch_bytes), "bytes"},
      {"scenario.kv_block_lookups", d(r.kv_block_lookups), "count"},
      {"scenario.kv_block_hits", d(r.kv_block_hits), "count"},
      {"scenario.makespan_cycles", d(r.makespan_cycles), "cycles"},
      {"scenario.p99_ttft_cycles", d(r.p99_ttft_cycles), "cycles"},
      {"scenario.p99_tbt_cycles", d(r.p99_tbt_cycles), "cycles"},
      {"scenario.audit_s", layer_s("scenario.audit"), "s"},
      {"trace.overhead_pct", overhead_pct, "%"},
  };
}

int run(const Args& a, double process_start_s) {
  auto wl = perfbench::make_workload(a.workload);
  if (!wl) {
    std::cerr << "perfbench: unknown workload '" << a.workload
              << "' (known:";
    for (const auto& n : perfbench::workload_names()) std::cerr << ' ' << n;
    std::cerr << ")\n";
    return 2;
  }

  perfbench::SpanRecorder rec(a.trace);
  {
    perfbench::ScopedSpan span(rec, "setup", "bench.setup");
    wl->setup(a.seed, rec);
  }
  const double setup_s = perfbench::process_cpu_s();
  const double setup_wall_s = perfbench::host_now_s() - process_start_s;
  std::cout << "workload " << a.workload << " seed " << a.seed << ": "
            << wl->describe() << "\n"
            << "setup: " << json_number(setup_s) << " CPU s since process "
            << "start, " << json_number(setup_wall_s) << " s since main()\n";

  const double start = perfbench::host_now_s();
  Failures failures;
  std::optional<RoundResult> reference;
  perfbench::SpanRecorder off(false);
  Rounds plain;
  Rounds traced;
  perfbench::FastpathTotals fastpath;
  if (!a.trace) {
    run_rounds(*wl, off, start + a.seconds, plain, failures, reference);
    for (auto& f : wl->check(off)) failures.push_back(std::move(f));
  } else {
    // Untraced rounds for the first half of the budget give the baseline
    // the tracing overhead is measured against; traced rounds fill the rest.
    run_rounds(*wl, off, start + a.seconds / 2, plain, failures, reference);
    std::filesystem::create_directories(a.out_dir);
    const std::string stem =
        a.out_dir + "/" + a.workload + "-seed" + std::to_string(a.seed);
    {
      perfbench::FastpathCapture capture(stem + "-fastpath.log");
      run_rounds(*wl, rec, start + a.seconds, traced, failures, reference);
      fastpath = perfbench::parse_fastpath(capture.finish());
    }
    for (auto& f : wl->check(rec)) failures.push_back(std::move(f));
    const std::uint64_t n = traced.walls.size();
    if (fastpath.system_runs % n != 0 ||
        fastpath.cycles != reference->sim_cycles * n) {
      failures.push_back(
          "fastpath report: " + std::to_string(fastpath.cycles) +
          " System cycles over " + std::to_string(n) +
          " traced rounds != " + std::to_string(reference->sim_cycles) +
          " per round");
    }
    std::ofstream(stem + "-trace.json")
        << [&] {
             std::ostringstream os;
             rec.write_chrome_trace(os, process_start_s);
             return os.str();
           }();
    std::ostringstream table;
    rec.write_self_time_table(table);
    std::ofstream(stem + "-selftime.txt") << table.str();
    std::cout << "per-layer self time (setup, " << n
              << " traced rounds, checks):\n"
              << table.str() << "spans written to " << stem
              << "-trace.json\n";
  }

  const RoundResult& r = *reference;
  for (const std::string& row : r.rows) std::cout << "  " << row << "\n";
  const auto list = [](const std::vector<double>& walls) {
    std::ostringstream os;
    for (const double w : walls) os << ' ' << json_number(w);
    return os.str();
  };
  std::cout << "round wall_s, untraced:" << list(plain.walls) << "\n";
  if (a.trace) std::cout << "round wall_s, traced:" << list(traced.walls) << "\n";
  std::cout << "sim digest " << r.digest << "\n";
  for (const std::string& f : failures) std::cerr << "CHECK FAILED: " << f << "\n";

  const double wall = plain.best_wall_s();
  std::vector<Metric> metrics;
  if (!a.trace) {
    metrics = end_to_end_metrics(r, wall, setup_s);
  } else {
    const double overhead = 100.0 * (traced.best_wall_s() / wall - 1.0);
    metrics = per_layer_metrics(r, rec, fastpath, traced.walls.size(),
                                overhead);
  }
  for (const auto& m : metrics) {
    std::cout << "  " << m.name << " = " << json_number(m.value) << " "
              << m.unit << "\n";
  }
  print_result(failures.empty(), plain.operations + traced.operations, 0,
               metrics);
  return failures.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const double process_start_s = perfbench::host_now_s();
  std::string error;
  const auto args = parse_args(argc, argv, error);
  if (!args) {
    std::cerr << "perfbench: " << error << "\n" << kUsage;
    return 2;
  }
  try {
    return run(*args, process_start_s);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
