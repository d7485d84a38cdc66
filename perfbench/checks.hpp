// Correctness checks on the benchmark's simulated results. Each check is
// computed apart from the simulator - from the trace generator's
// per-thread-block counts, the operator's tensor layout, or the request
// list - or is a bound the model must obey (DRAM peak bandwidth, Little's
// law on the LLC MSHR pool). None compares against stored output.
//
// Every check appends one self-contained line per violation to `out`, so
// perfbench_selftest can corrupt a genuine result and see the check fire.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "scenario/scenario.hpp"
#include "sim/experiment.hpp"
#include "sim/sim_stats.hpp"

namespace perfbench {

using Failures = std::vector<std::string>;

/// Machine limits derived from a SimConfig alone.
struct MachineBounds {
  /// Peak DRAM bytes per core cycle: every channel moves
  /// channel_data_bytes on both edges of the DRAM I/O clock.
  double peak_dram_bytes_per_cycle = 0.0;
  /// LLC MSHR entries across all slices; each DRAM read holds one.
  std::uint64_t mshr_entries = 0;
  /// Fewest core cycles an MSHR entry is held by a DRAM read: the
  /// controller latency plus CAS latency plus the burst, in DRAM cycles,
  /// converted to core cycles and rounded down one more for clock phase.
  std::uint64_t min_miss_round_trip = 0;
};

[[nodiscard]] MachineBounds machine_bounds(const llamcat::SimConfig& cfg);

/// Work the trace generator lays out for a set of operators, summed over
/// every thread block.
struct TraceWork {
  std::uint64_t instructions = 0;
  std::uint64_t thread_blocks = 0;
};

[[nodiscard]] TraceWork trace_work(const llamcat::Workload& wl);
[[nodiscard]] TraceWork trace_work(
    const std::vector<llamcat::scenario::ScheduledOp>& schedule);

/// Distinct cache lines an operator loads, from its tensor layout: the
/// query (Logit) or score (Attend) tensor plus the KV range it streams.
[[nodiscard]] std::uint64_t distinct_load_lines(const llamcat::OperatorSpec& op);

/// Checks every simulation must pass: instruction and thread-block totals
/// equal the trace generator's, every LLC lookup is an L1 load miss or a
/// forwarded store, simulated cycles cover the DRAM traffic at peak
/// bandwidth, and DRAM reads obey Little's law on the MSHR pool.
void check_run(const std::string& label, const llamcat::SimStats& s,
               const TraceWork& expected, const MachineBounds& bounds,
               Failures& out);

/// A run that starts with empty caches reads every line it loads from DRAM
/// at least once.
void check_cold_reads(const std::string& label, const llamcat::SimStats& s,
                      std::uint64_t distinct_lines, Failures& out);

/// Serving-run checks against the generated request list: one finished row
/// per request with one step landmark per decode step, tokens equal to the
/// generated decode steps, the post-run and open-loop audits clean, and
/// kv_logical_bytes equal to the admitted requests' peak footprints
/// (sharing runs; zero otherwise).
void check_serving(const std::string& label,
                   const std::vector<llamcat::scenario::RequestSpec>& requests,
                   const llamcat::scenario::RequestBatch& batch,
                   const llamcat::scenario::DecodePassConfig& pass_cfg,
                   const llamcat::scenario::BatchStats& stats,
                   llamcat::Cycle slo_ttft_cycles, Failures& out);

/// write_trace followed by read_trace returns the same request list.
void check_trace_roundtrip(
    const std::string& label,
    const std::vector<llamcat::scenario::RequestSpec>& requests,
    Failures& out);

/// Peak KV bytes of one request over `num_layers` layers, from the request
/// alone: the last decode step's tokens, rounded up to a cache line of
/// elements after step 0, times H * D * dtype per token.
[[nodiscard]] std::uint64_t expected_peak_kv_bytes(
    const llamcat::ModelShape& model,
    const llamcat::scenario::RequestSpec& r, std::uint32_t num_layers);

}  // namespace perfbench
