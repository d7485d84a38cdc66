#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "common/rng.hpp"
#include "scenario/fuzz.hpp"
#include "scenario/sweep.hpp"
#include "scenario/traffic.hpp"
#include "sim/experiment.hpp"

namespace perfbench {

using llamcat::ArbPolicy;
using llamcat::Cycle;
using llamcat::ModelShape;
using llamcat::SimConfig;
using llamcat::SimStats;
using llamcat::ThrottlePolicy;
using llamcat::Workload;
using llamcat::scenario::BatchStats;
using llamcat::scenario::DecodePass;
using llamcat::scenario::DecodePassConfig;
using llamcat::scenario::RequestBatch;
using llamcat::scenario::RequestSpec;
using llamcat::scenario::TrafficConfig;

namespace {

struct Stack {
  const char* name;
  ThrottlePolicy thr;
  ArbPolicy arb;
};

// The speedup is always stacks.front() over stacks.back().
const Stack kUnopt{"unopt+fcfs", ThrottlePolicy::kNone, ArbPolicy::kFcfs};
const Stack kDyncta{"dyncta+fcfs", ThrottlePolicy::kDyncta, ArbPolicy::kFcfs};
const Stack kLlamcat{"dynmg+BMA", ThrottlePolicy::kDynMg, ArbPolicy::kBma};

/// FNV-1a over the canonical text of every result, so rounds and processes
/// compare in a few bytes.
std::uint64_t fnv1a(const std::string& text, std::uint64_t h) {
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string sim_stats_text(const SimStats& s) {
  std::ostringstream os;
  os << s.cycles << ' ' << s.instructions << ' ' << s.thread_blocks << ' '
     << s.dram_reads << ' ' << s.dram_writes;
  for (const auto& [name, v] : s.counters.counters()) os << ' ' << name << '=' << v;
  return os.str();
}

double geomean(const std::vector<double>& xs) {
  double log_sum = 0.0;
  for (const double x : xs) log_sum += std::log(x);
  return xs.empty() ? 0.0 : std::exp(log_sum / static_cast<double>(xs.size()));
}

SimConfig table5_machine() { return SimConfig::table5(); }

// ---------------------------------------------------------------------------
// mshr-bound-operators
// ---------------------------------------------------------------------------

/// Decode attention steps (Logit -> Attend) on the Table-5 machine with
/// wave-preserving dispatch, the Fig 7/8 regime where the LLC's miss
/// handling is the bottleneck. Each operator runs in its own untagged
/// System with empty caches.
class OperatorWorkload final : public BenchWorkload {
 public:
  void setup(std::uint64_t seed, SpanRecorder& rec) override {
    machine_ = table5_machine();
    machine_.core.tb_dispatch = llamcat::TbDispatch::kPartitionedStealing;
    // The seed splits a fixed KV-length budget between the two points, so
    // every seed maps new shapes while the simulated work stays the same.
    const std::uint64_t k = llamcat::SplitMix64(seed).next() % (kSteps + 1);
    const std::uint64_t first = kMinSeq + k * kSeqStep;
    seqs_ = {first, kTotalSeq - first};
    ops_.clear();
    for (const std::uint64_t L : seqs_) {
      const std::string tag = "L=" + std::to_string(L);
      std::vector<Workload> step;
      {
        ScopedSpan span(rec, "Workload::logit", "trace.map", tag);
        step.push_back(Workload::logit(model_, L, machine_));
      }
      {
        ScopedSpan span(rec, "Workload::attend", "trace.map", tag);
        step.push_back(Workload::attend(model_, L, machine_));
      }
      ops_.push_back(std::move(step));
    }
  }

  RoundResult run_round(SpanRecorder& rec) override {
    RoundResult r;
    runs_.assign(stacks_.size(), {});
    std::uint64_t h = kFnvBasis;
    std::vector<std::vector<Cycle>> completion(stacks_.size());
    for (std::size_t s = 0; s < stacks_.size(); ++s) {
      const SimConfig cfg = llamcat::with_policies(machine_, stacks_[s].thr,
                                                   stacks_[s].arb);
      for (std::size_t p = 0; p < ops_.size(); ++p) {
        const std::string tag =
            std::string(stacks_[s].name) + " L=" + std::to_string(seqs_[p]);
        ScopedSpan point(rec, "decode step", "bench.point", tag);
        Cycle cycles = 0;
        for (const Workload& wl : ops_[p]) {
          const double t0 = host_now_s();
          SimStats st;
          {
            ScopedSpan span(rec, "run_simulation " + llamcat::to_string(wl.op.kind),
                            "sim.run", tag);
            st = llamcat::run_simulation(cfg, wl);
          }
          r.call_s.push_back(host_now_s() - t0);
          r.wall_s += r.call_s.back();
          ++r.operations;
          cycles += st.cycles;
          r.sim_cycles += st.cycles;
          r.totals.accumulate(st);
          h = fnv1a(tag + " " + sim_stats_text(st) + "\n", h);
          runs_[s].push_back(std::move(st));
        }
        ++r.requests;
        completion[s].push_back(cycles);
        r.rows.push_back(tag + ": " + std::to_string(cycles) + " cycles");
      }
    }
    std::vector<double> ratios;
    for (std::size_t p = 0; p < ops_.size(); ++p) {
      ratios.push_back(static_cast<double>(completion.front()[p]) /
                       static_cast<double>(completion.back()[p]));
      // The paper's best baseline, for context in the human-readable rows.
      r.rows.push_back("L=" + std::to_string(seqs_[p]) + ": dynmg+BMA over " +
                       stacks_[1].name + " " +
                       std::to_string(static_cast<double>(completion[1][p]) /
                                      static_cast<double>(completion.back()[p])));
    }
    r.llamcat_speedup = geomean(ratios);
    r.digest = hex(h);
    return r;
  }

  Failures check(SpanRecorder& rec) const override {
    ScopedSpan span(rec, "checks", "bench.check");
    Failures out;
    const MachineBounds bounds = machine_bounds(machine_);
    for (std::size_t s = 0; s < stacks_.size(); ++s) {
      std::size_t i = 0;
      for (std::size_t p = 0; p < ops_.size(); ++p) {
        for (const Workload& wl : ops_[p]) {
          const std::string label = std::string(stacks_[s].name) + " L=" +
                                    std::to_string(seqs_[p]) + " " +
                                    llamcat::to_string(wl.op.kind);
          const SimStats& st = runs_[s].at(i++);
          check_run(label, st, trace_work(wl), bounds, out);
          check_cold_reads(label, st, distinct_load_lines(wl.op), out);
        }
      }
    }
    return out;
  }

  [[nodiscard]] std::string describe() const override {
    return "Table-5 machine, wave-preserving dispatch; llama3-70b Logit->"
           "Attend at L=" + std::to_string(seqs_.at(0)) + " and L=" +
           std::to_string(seqs_.at(1)) +
           "; stacks unopt+fcfs, dyncta+fcfs, dynmg+BMA";
  }

 private:
  static constexpr std::uint64_t kTotalSeq = 3072;
  static constexpr std::uint64_t kMinSeq = 1024;
  static constexpr std::uint64_t kSeqStep = 128;
  static constexpr std::uint64_t kSteps = (kTotalSeq - 2 * kMinSeq) / kSeqStep;

  ModelShape model_ = ModelShape::llama3_70b();
  std::vector<Stack> stacks_ = {kUnopt, kDyncta, kLlamcat};
  SimConfig machine_;
  std::vector<std::uint64_t> seqs_;
  std::vector<std::vector<Workload>> ops_;       // [point][logit, attend]
  std::vector<std::vector<SimStats>> runs_;      // [stack][point * 2 + op]
};

// ---------------------------------------------------------------------------
// Serving workloads (table5-openloop, serving-saturation)
// ---------------------------------------------------------------------------

/// Everything that tells the two serving workloads apart.
struct ServingPlan {
  std::string machine_label;
  SimConfig machine;
  ModelShape model;
  TrafficConfig traffic;  // seed filled in by setup
  /// Offered-load axis (mean inter-arrival gaps), one point each.
  std::vector<Cycle> gaps;
  DecodePassConfig pass;
  /// Budget as a fraction of the batch's peak KV footprint (0 = none).
  std::uint32_t budget_divisor = 0;
  Cycle slo_ttft_cycles = 0;
  /// When set, a fixed (seq_len, decode_steps) mix replaces the
  /// generator's size draws, dealt to the requests in a seeded order: every
  /// seed then simulates the same decode work, and only the arrivals and
  /// which request carries which size change.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> size_mix;
  /// Re-run the LLaMCAT stack through run_load_sweep after the checks and
  /// compare its points with the harness's own reduction.
  bool cross_check_sweep = false;
};

/// Open-loop continuous batching: per point, generate the traffic, build
/// one DecodePass per stack, run each on a fresh engine.
class ServingWorkload final : public BenchWorkload {
 public:
  explicit ServingWorkload(ServingPlan plan) : plan_(std::move(plan)) {}

  void setup(std::uint64_t seed, SpanRecorder& rec) override {
    plan_.traffic.seed = seed;
    points_.clear();
    for (const Cycle gap : plan_.gaps) {
      const std::string tag = "gap=" + std::to_string(gap);
      Point pt;
      pt.gap = gap;
      {
        ScopedSpan span(rec, "generate_traffic", "scenario.traffic", tag);
        TrafficConfig tc = plan_.traffic;
        tc.mean_gap = gap;
        pt.requests = llamcat::scenario::generate_traffic(tc);
        deal_sizes(pt.requests, seed);
      }
      ScopedSpan span(rec, "RequestBatch+DecodePass", "trace.map", tag);
      pt.batch = std::make_unique<RequestBatch>(plan_.model, pt.requests);
      pt.pass_cfg = plan_.pass;
      if (plan_.budget_divisor > 0) {
        pt.pass_cfg.serving.kv_budget_bytes =
            pt.batch->total_peak_kv_bytes(plan_.pass.num_layers) /
            plan_.budget_divisor;
      }
      for (const Stack& s : stacks_) {
        pt.passes.push_back(std::make_unique<DecodePass>(
            *pt.batch, pt.pass_cfg,
            llamcat::with_policies(plan_.machine, s.thr, s.arb)));
      }
      points_.push_back(std::move(pt));
    }
  }

  RoundResult run_round(SpanRecorder& rec) override {
    RoundResult r;
    std::uint64_t h = kFnvBasis;
    std::vector<double> ratios;
    for (Point& pt : points_) pt.runs.clear();
    for (std::size_t s = 0; s < stacks_.size(); ++s) {
      for (Point& pt : points_) {
        const std::string tag =
            std::string(stacks_[s].name) + " gap=" + std::to_string(pt.gap);
        const double t0 = host_now_s();
        BatchStats st;
        {
          ScopedSpan span(rec, "DecodePass::run", "sim.run", tag);
          st = pt.passes[s]->run(/*threads=*/1);
        }
        r.call_s.push_back(host_now_s() - t0);
        r.wall_s += r.call_s.back();
        ++r.operations;
        r.requests += st.per_request.size();
        r.sim_cycles += st.total.cycles;
        r.totals.accumulate(st.total);
        r.preemptions += st.total_preemptions();
        r.queue_wait_cycles += st.total_queue_wait();
        r.swapped_blocks += st.total_swapped_blocks();
        r.refetch_bytes += st.total_refetch_bytes();
        r.kv_block_lookups += st.kv_block_lookups;
        r.kv_block_hits += st.kv_block_hits;
        r.makespan_cycles += st.makespan;
        r.p99_ttft_cycles =
            std::max<std::uint64_t>(r.p99_ttft_cycles, st.ttft_percentile(99.0));
        const Cycle tbt = st.tbt_percentile(99.0);
        if (tbt != llamcat::kNeverCycle) {
          r.p99_tbt_cycles = std::max<std::uint64_t>(r.p99_tbt_cycles, tbt);
        }
        h = fnv1a(tag + "\n" + llamcat::scenario::batch_stats_digest(st), h);
        r.rows.push_back(tag + ": makespan " + std::to_string(st.makespan) +
                         ", " + std::to_string(st.total.cycles) +
                         " System cycles, " +
                         std::to_string(st.total_preemptions()) +
                         " preemptions");
        pt.runs.push_back(std::move(st));
      }
    }
    for (const Point& pt : points_) {
      ratios.push_back(static_cast<double>(pt.runs.front().makespan) /
                       static_cast<double>(pt.runs.back().makespan));
    }
    r.llamcat_speedup = geomean(ratios);
    r.digest = hex(h);
    return r;
  }

  Failures check(SpanRecorder& rec) const override {
    ScopedSpan span(rec, "checks", "bench.check");
    Failures out;
    const MachineBounds bounds = machine_bounds(plan_.machine);
    for (const Point& pt : points_) {
      const std::string where = "gap=" + std::to_string(pt.gap);
      check_trace_roundtrip(where, pt.requests, out);
      const TraceWork work = trace_work(pt.passes.front()->schedule());
      for (std::size_t s = 0; s < stacks_.size(); ++s) {
        const std::string label = std::string(stacks_[s].name) + " " + where;
        const BatchStats& st = pt.runs.at(s);
        check_run(label, st.total, work, bounds, out);
        ScopedSpan audit(rec, "audit_batch+audit_open_loop", "scenario.audit",
                         label);
        check_serving(label, pt.requests, *pt.batch, pt.pass_cfg, st,
                      plan_.slo_ttft_cycles, out);
      }
    }
    if (plan_.cross_check_sweep) cross_check_sweep(rec, out);
    return out;
  }

  [[nodiscard]] std::string describe() const override {
    std::string gaps;
    for (const Cycle g : plan_.gaps) {
      gaps += (gaps.empty() ? "" : ",") + std::to_string(g);
    }
    std::string sizes;
    for (const auto& [seq, steps] : plan_.size_mix) {
      sizes += (sizes.empty() ? "" : " ") + std::to_string(seq) + "x" +
               std::to_string(steps);
    }
    if (!sizes.empty()) sizes = "; sizes (tokens x steps) dealt from " + sizes;
    return plan_.machine_label + "; " + plan_.traffic.summary() + sizes +
           "; gaps " + gaps + "; stacks unopt+fcfs, dynmg+BMA";
  }

 private:
  struct Point {
    Cycle gap = 0;
    std::vector<RequestSpec> requests;
    std::unique_ptr<RequestBatch> batch;
    DecodePassConfig pass_cfg;
    std::vector<std::unique_ptr<DecodePass>> passes;  // one per stack
    std::vector<BatchStats> runs;                     // last round, per stack
  };

  void deal_sizes(std::vector<RequestSpec>& requests, std::uint64_t seed) const {
    if (plan_.size_mix.empty()) return;
    auto mix = plan_.size_mix;
    llamcat::Xoshiro256 rng(seed);
    for (std::size_t i = mix.size(); i > 1; --i) {
      std::swap(mix[i - 1], mix[rng.below(i)]);
    }
    for (std::size_t i = 0; i < requests.size(); ++i) {
      requests[i].seq_len = mix.at(i).first;
      requests[i].decode_steps = mix.at(i).second;
    }
  }

  /// run_load_sweep regenerates the traffic and re-runs every point of the
  /// LLaMCAT stack; its points must match this harness's reductions.
  void cross_check_sweep(SpanRecorder& rec, Failures& out) const {
    llamcat::scenario::SweepConfig sweep;
    sweep.traffic = plan_.traffic;
    sweep.gaps = plan_.gaps;
    sweep.slo_ttft_cycles = plan_.slo_ttft_cycles;
    const Point& first = points_.front();
    std::vector<llamcat::scenario::SweepPoint> curve;
    try {
      ScopedSpan span(rec, "run_load_sweep", "bench.check", kLlamcat.name);
      curve = llamcat::scenario::run_load_sweep(
          plan_.model,
          llamcat::with_policies(plan_.machine, kLlamcat.thr, kLlamcat.arb),
          first.pass_cfg, sweep, /*jobs=*/1);
    } catch (const llamcat::scenario::InvariantViolation& e) {
      out.push_back(std::string("run_load_sweep: ") + e.what());
      return;
    }
    for (std::size_t i = 0; i < points_.size(); ++i) {
      const BatchStats& mine = points_[i].runs.back();
      const auto& pt = curve.at(i);
      const auto slo = llamcat::scenario::slo_accounting(
          mine, plan_.slo_ttft_cycles);
      if (pt.makespan != mine.makespan ||
          pt.p99_ttft != mine.ttft_percentile(99.0) ||
          pt.p99_tbt != mine.tbt_percentile(99.0) ||
          pt.preemptions != mine.total_preemptions() ||
          pt.queue_wait != mine.total_queue_wait() ||
          pt.slo.attained != slo.attained || pt.slo.finished != slo.finished) {
        out.push_back("run_load_sweep point gap=" +
                      std::to_string(plan_.gaps[i]) +
                      " disagrees with the harness's own run of it");
      }
    }
  }

  ServingPlan plan_;
  std::vector<Stack> stacks_ = {kUnopt, kLlamcat};
  std::vector<Point> points_;
};

/// The paper's Table-5 machine under Poisson open-loop continuous batching
/// with unconditional admission: one long-lived System per stack.
ServingPlan table5_openloop_plan() {
  ServingPlan p;
  p.machine_label = "Table-5 machine (16 cores, 16 MiB LLC in 8 slices, 4 channels)";
  p.machine = table5_machine();
  p.model = ModelShape::llama3_70b();
  p.traffic.num_requests = 8;
  p.traffic.process = llamcat::TrafficProcess::kPoisson;
  p.traffic.seq_min = 1024;
  p.traffic.seq_max = 1248;
  p.size_mix = {{1024, 2}, {1056, 1}, {1088, 1}, {1120, 1},
                {1152, 1}, {1184, 1}, {1216, 1}, {1248, 2}};
  p.gaps = {20'000};
  p.pass.num_layers = 1;
  p.pass.include_gemv = false;
  p.pass.mode = llamcat::ExecutionMode::kContinuous;
  p.slo_ttft_cycles = 200'000;
  return p;
}

/// The scaled contention machine driven over an idle/knee/overload ladder
/// with SRF admission against a KV budget, preemption, cold-block paging
/// and prefix sharing.
ServingPlan serving_saturation_plan() {
  ServingPlan p;
  p.machine_label = "contention machine (4 cores, 1 MiB LLC in 2 slices, 2 channels)";
  p.machine = table5_machine();
  p.machine.core.num_cores = 4;
  p.machine.llc.size_bytes = 1ull << 20;
  p.machine.llc.num_slices = 2;
  p.machine.dram.num_channels = 2;
  p.machine.max_cycles = 500'000'000;
  p.model = ModelShape::llama3_70b();
  p.model.num_kv_heads = 2;
  p.model.group_size = 4;
  p.traffic.num_requests = 16;
  p.traffic.process = llamcat::TrafficProcess::kPoisson;
  p.traffic.seq_dist = llamcat::TrafficDist::kUniform;
  p.traffic.seq_min = 256;
  p.traffic.seq_max = 256;
  p.traffic.steps_min = 2;
  p.traffic.steps_max = 2;
  p.traffic.prefix_groups = 3;
  p.traffic.share_pct = 75;
  p.gaps = {1'000'000, 100'000, 10'000};
  p.pass.num_layers = 1;
  p.pass.include_gemv = false;
  p.pass.mode = llamcat::ExecutionMode::kContinuous;
  p.pass.serving.policy = llamcat::AdmitPolicy::kShortestRemaining;
  p.pass.serving.preempt = true;
  p.pass.serving.kv_block_bytes = 4096;
  p.pass.serving.kv_share = true;
  p.budget_divisor = 3;
  p.slo_ttft_cycles = 100'000;
  p.cross_check_sweep = true;
  return p;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "mshr-bound-operators", "table5-openloop", "serving-saturation"};
  return names;
}

std::unique_ptr<BenchWorkload> make_workload(const std::string& name) {
  if (name == "mshr-bound-operators") return std::make_unique<OperatorWorkload>();
  if (name == "table5-openloop") {
    return std::make_unique<ServingWorkload>(table5_openloop_plan());
  }
  if (name == "serving-saturation") {
    return std::make_unique<ServingWorkload>(serving_saturation_plan());
  }
  return nullptr;
}

}  // namespace perfbench
