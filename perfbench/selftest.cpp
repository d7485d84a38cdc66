// Self-test of the benchmark's correctness checks: each check passes on a
// genuine simulated result and fails once that result is corrupted - a
// counter off by one, a dropped request row, cycles below the DRAM bound.
//
//   python3 perfbench/run.py --self-test
//
// Exit code 0 when every expectation holds.
#include <iostream>
#include <set>
#include <string>
#include <vector>

#include "checks.hpp"
#include "scenario/traffic.hpp"
#include "trace/tracegen.hpp"

using namespace llamcat;
using namespace perfbench;
using scenario::BatchStats;
using scenario::DecodePass;
using scenario::DecodePassConfig;
using scenario::RequestBatch;
using scenario::RequestSpec;

namespace {

int g_failed = 0;

void expect(bool ok, const std::string& what) {
  std::cout << (ok ? "ok    " : "FAIL  ") << what << "\n";
  if (!ok) ++g_failed;
}

bool mentions(const Failures& f, const std::string& needle) {
  for (const std::string& line : f) {
    if (line.find(needle) != std::string::npos) return true;
  }
  return false;
}

SimConfig small_machine() {
  SimConfig cfg = SimConfig::table5();
  cfg.core.num_cores = 4;
  cfg.llc.size_bytes = 1ull << 20;
  cfg.llc.num_slices = 2;
  cfg.dram.num_channels = 2;
  return cfg;
}

ModelShape small_model() {
  ModelShape m = ModelShape::llama3_70b();
  m.num_kv_heads = 2;
  m.group_size = 4;
  return m;
}

Failures run_checks(const SimStats& s, const Workload& wl,
                    const MachineBounds& b) {
  Failures f;
  check_run("op", s, trace_work(wl), b, f);
  check_cold_reads("op", s, distinct_load_lines(wl.op), f);
  return f;
}

void operator_checks() {
  const SimConfig cfg = small_machine();
  const MachineBounds b = machine_bounds(cfg);
  for (const bool logit : {true, false}) {
    const Workload wl = logit ? Workload::logit(small_model(), 256, cfg)
                              : Workload::attend(small_model(), 256, cfg);
    const std::string op = logit ? "logit: " : "attend: ";
    const SimStats s = run_simulation(cfg, wl);
    expect(run_checks(s, wl, b).empty(), op + "genuine run passes every check");

    // The closed-form distinct-line count matches the trace itself.
    const TraceGen gen(wl.op, wl.mapping);
    std::set<Addr> lines;
    for (std::uint64_t tb = 0; tb < gen.num_tbs(); ++tb) {
      for (std::uint32_t i = 0; i < gen.instr_count(tb); ++i) {
        const Instr in = gen.instr_at(tb, i);
        if (in.kind == Instr::Kind::kLoad) lines.insert(in.line_addr);
      }
    }
    expect(lines.size() == distinct_load_lines(wl.op),
           op + "distinct load lines match the trace's loads");

    SimStats bad = s;
    bad.instructions += 1;
    expect(mentions(run_checks(bad, wl, b), "instructions"),
           op + "instruction count off by one is caught");
    bad = s;
    bad.thread_blocks -= 1;
    expect(mentions(run_checks(bad, wl, b), "thread blocks"),
           op + "thread-block count off by one is caught");
    bad = s;
    bad.counters.set("llc.lookups", s.counters.get("llc.lookups") + 1);
    expect(mentions(run_checks(bad, wl, b), "llc.lookups"),
           op + "LLC lookup count off by one is caught");
    bad = s;
    const auto dram_bytes = (s.dram_reads + s.dram_writes) * kLineBytes;
    bad.cycles = static_cast<Cycle>(static_cast<double>(dram_bytes) /
                                    b.peak_dram_bytes_per_cycle) - 1;
    expect(mentions(run_checks(bad, wl, b), "faster than peak bandwidth"),
           op + "cycles below the DRAM bound are caught");
    bad = s;
    bad.dram_reads = s.cycles * b.mshr_entries / b.min_miss_round_trip + 1;
    expect(mentions(run_checks(bad, wl, b), "MSHR entries"),
           op + "more reads than the MSHR pool can carry are caught");
    bad = s;
    bad.dram_reads = distinct_load_lines(wl.op) - 1;
    expect(mentions(run_checks(bad, wl, b), "distinct lines"),
           op + "fewer DRAM reads than distinct lines are caught");
  }
}

void serving_checks() {
  const SimConfig cfg = small_machine();
  scenario::TrafficConfig tc;
  tc.num_requests = 4;
  tc.seed = 3;
  tc.mean_gap = 20'000;
  tc.seq_min = 64;
  tc.seq_max = 128;
  tc.steps_min = 1;
  tc.steps_max = 2;
  tc.prefix_groups = 2;
  tc.share_pct = 100;
  const std::vector<RequestSpec> requests = scenario::generate_traffic(tc);
  const RequestBatch batch(small_model(), requests);
  DecodePassConfig pc;
  pc.num_layers = 1;
  pc.include_gemv = false;
  pc.mode = ExecutionMode::kContinuous;
  pc.serving.policy = AdmitPolicy::kShortestRemaining;
  pc.serving.kv_budget_bytes = batch.total_peak_kv_bytes(1) / 2;
  pc.serving.preempt = true;
  pc.serving.kv_share = true;
  const DecodePass pass(batch, pc, cfg);
  const BatchStats stats = pass.run(1);
  const Cycle slo = 100'000;

  Failures f;
  check_serving("batch", requests, batch, pc, stats, slo, f);
  check_trace_roundtrip("batch", requests, f);
  check_run("batch", stats.total, trace_work(pass.schedule()),
            machine_bounds(cfg), f);
  for (const auto& line : f) std::cout << "      " << line << "\n";
  expect(f.empty(), "serving: genuine run passes every check");
  expect(stats.kv_logical_bytes > 0, "serving: the run shares KV blocks");

  auto serving_fails = [&](const BatchStats& bad, const std::string& needle) {
    Failures out;
    check_serving("batch", requests, batch, pc, bad, slo, out);
    return mentions(out, needle);
  };
  BatchStats bad = stats;
  bad.per_request.pop_back();
  expect(serving_fails(bad, "request rows"),
         "serving: a dropped request row is caught");
  bad = stats;
  bad.per_request.front().step_finish_cycles.pop_back();
  expect(serving_fails(bad, "step landmarks"),
         "serving: a missing step landmark is caught");
  bad = stats;
  bad.kv_logical_bytes += 1;
  expect(serving_fails(bad, "kv_logical_bytes"),
         "serving: a KV footprint off by one byte is caught");
  bad = stats;
  bad.per_request.front().finish_cycle += 1;
  expect(serving_fails(bad, "audit"),
         "serving: a moved finish landmark fails the audits");
}

}  // namespace

int main() {
  operator_checks();
  serving_checks();
  std::cout << (g_failed == 0 ? "all checks behave\n" : "self-test FAILED\n");
  return g_failed == 0 ? 0 : 1;
}
