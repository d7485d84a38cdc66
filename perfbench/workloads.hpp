// The benchmark's workloads. Each one builds its inputs from a seed
// (setup), then simulates them under the unoptimised stack (unopt+fcfs) and
// the LLaMCAT stack (dynmg+BMA) once per round, single-threaded, point
// after point. README.md in this directory says why each workload exists.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "checks.hpp"
#include "sim/sim_stats.hpp"
#include "spans.hpp"

namespace perfbench {

/// What one round of a workload simulated, and how long the host took.
struct RoundResult {
  /// Host seconds inside the simulation calls only.
  double wall_s = 0.0;
  /// Host seconds of each simulation call, in call order (the same calls,
  /// in the same order, every round).
  std::vector<double> call_s;
  /// Simulated cycles summed over every System run of the round.
  std::uint64_t sim_cycles = 0;
  /// Simulated decode requests completed (one per request per point and
  /// stack; one Logit->Attend step per point and stack for operators).
  std::uint64_t requests = 0;
  /// Simulation calls the round made.
  std::uint64_t operations = 0;
  /// Geometric mean over points of unopt+fcfs completion cycles divided by
  /// dynmg+BMA completion cycles.
  double llamcat_speedup = 0.0;
  /// Every run of the round folded together (counters summed).
  llamcat::SimStats totals;

  // Serving-layer totals over every point and stack (0 for operators).
  std::uint64_t preemptions = 0;
  std::uint64_t queue_wait_cycles = 0;
  std::uint64_t swapped_blocks = 0;
  std::uint64_t refetch_bytes = 0;
  std::uint64_t kv_block_lookups = 0;
  std::uint64_t kv_block_hits = 0;
  std::uint64_t makespan_cycles = 0;
  /// Worst per-point P99 over every point and stack.
  std::uint64_t p99_ttft_cycles = 0;
  std::uint64_t p99_tbt_cycles = 0;

  /// Canonical text of every simulated result: equal across rounds and
  /// processes for the same seed.
  std::string digest;
  /// One human-readable line per (point, stack).
  std::vector<std::string> rows;
};

class BenchWorkload {
 public:
  virtual ~BenchWorkload() = default;
  BenchWorkload() = default;
  BenchWorkload(const BenchWorkload&) = delete;
  BenchWorkload& operator=(const BenchWorkload&) = delete;

  /// Generates traffic, maps operators and builds every batch and pass.
  virtual void setup(std::uint64_t seed, SpanRecorder& rec) = 0;
  /// Simulates every point under every stack.
  virtual RoundResult run_round(SpanRecorder& rec) = 0;
  /// Correctness checks over the last round's results.
  virtual Failures check(SpanRecorder& rec) const = 0;
  /// One line: machine, points and stacks.
  [[nodiscard]] virtual std::string describe() const = 0;
};

/// The workload names, in the order README.md lists them.
const std::vector<std::string>& workload_names();

/// nullptr for an unknown name.
std::unique_ptr<BenchWorkload> make_workload(const std::string& name);

}  // namespace perfbench
