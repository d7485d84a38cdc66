#include "checks.hpp"

#include <cmath>
#include <map>
#include <sstream>

#include "scenario/invariants.hpp"
#include "scenario/traffic.hpp"
#include "trace/tracegen.hpp"

namespace perfbench {

using llamcat::SimStats;
using llamcat::scenario::BatchStats;
using llamcat::scenario::RequestSpec;
using llamcat::scenario::RequestStats;

namespace {

std::string u64(std::uint64_t v) { return std::to_string(v); }

}  // namespace

MachineBounds machine_bounds(const llamcat::SimConfig& cfg) {
  MachineBounds b;
  const llamcat::DramConfig& d = cfg.dram;
  b.peak_dram_bytes_per_cycle = d.dram_hz * 2.0 * d.channel_data_bytes *
                                d.num_channels / cfg.core_hz;
  b.mshr_entries = static_cast<std::uint64_t>(cfg.llc.num_slices) *
                   cfg.llc.mshr_entries;
  const double dram_cycles = d.ctrl_latency + d.tCL + d.burst_length / 2.0;
  const double core_cycles = std::floor(dram_cycles * cfg.core_hz / d.dram_hz);
  b.min_miss_round_trip =
      core_cycles > 1.0 ? static_cast<std::uint64_t>(core_cycles) - 1 : 1;
  return b;
}

TraceWork trace_work(const llamcat::Workload& wl) {
  const llamcat::TraceGen gen(wl.op, wl.mapping);
  TraceWork w;
  w.thread_blocks = gen.num_tbs();
  for (std::uint64_t tb = 0; tb < gen.num_tbs(); ++tb) {
    w.instructions += gen.instr_count(tb);
  }
  return w;
}

TraceWork trace_work(
    const std::vector<llamcat::scenario::ScheduledOp>& schedule) {
  TraceWork total;
  for (const auto& op : schedule) {
    const TraceWork w = trace_work(op.workload);
    total.instructions += w.instructions;
    total.thread_blocks += w.thread_blocks;
  }
  return total;
}

std::uint64_t distinct_load_lines(const llamcat::OperatorSpec& op) {
  const std::uint64_t streamed =
      op.kind == llamcat::OpKind::kLogit ? op.q_bytes() : op.s_bytes();
  return (streamed + op.kv_bytes()) / llamcat::kLineBytes;
}

void check_run(const std::string& label, const SimStats& s,
               const TraceWork& expected, const MachineBounds& bounds,
               Failures& out) {
  if (s.instructions != expected.instructions) {
    out.push_back(label + ": instructions " + u64(s.instructions) +
                  " != trace generator's " + u64(expected.instructions));
  }
  if (s.thread_blocks != expected.thread_blocks) {
    out.push_back(label + ": thread blocks " + u64(s.thread_blocks) +
                  " != trace generator's " + u64(expected.thread_blocks));
  }

  // L1 is write-through and no-write-allocate: the LLC sees every L1 load
  // miss and every store.
  const std::uint64_t forwarded = s.counters.get("l1.load_misses") +
                                  s.counters.get("l1.store_hits") +
                                  s.counters.get("l1.store_misses");
  const std::uint64_t lookups = s.counters.get("llc.lookups");
  if (lookups != forwarded) {
    out.push_back(label + ": llc.lookups " + u64(lookups) +
                  " != L1 misses and stores forwarded " + u64(forwarded));
  }

  const std::uint64_t dram_bytes =
      (s.dram_reads + s.dram_writes) * llamcat::kLineBytes;
  const double floor_cycles =
      static_cast<double>(dram_bytes) / bounds.peak_dram_bytes_per_cycle;
  if (static_cast<double>(s.cycles) < floor_cycles) {
    std::ostringstream os;
    os << label << ": " << s.cycles << " cycles move " << dram_bytes
       << " DRAM bytes, faster than peak bandwidth allows (>= "
       << static_cast<std::uint64_t>(std::ceil(floor_cycles)) << " cycles)";
    out.push_back(os.str());
  }

  // Little's law: at most mshr_entries reads are in flight, each for at
  // least min_miss_round_trip cycles.
  if (s.dram_reads * bounds.min_miss_round_trip >
      s.cycles * bounds.mshr_entries) {
    out.push_back(label + ": " + u64(s.dram_reads) + " DRAM reads in " +
                  u64(s.cycles) + " cycles exceed " +
                  u64(bounds.mshr_entries) + " MSHR entries x cycles / " +
                  u64(bounds.min_miss_round_trip) + "-cycle round trip");
  }
}

void check_cold_reads(const std::string& label, const SimStats& s,
                      std::uint64_t distinct_lines, Failures& out) {
  if (s.dram_reads < distinct_lines) {
    out.push_back(label + ": " + u64(s.dram_reads) +
                  " DRAM reads < " + u64(distinct_lines) +
                  " distinct lines loaded from empty caches");
  }
}

std::uint64_t expected_peak_kv_bytes(const llamcat::ModelShape& model,
                                     const RequestSpec& r,
                                     std::uint32_t num_layers) {
  std::uint64_t tokens = r.seq_len;
  if (r.decode_steps > 1) {
    const std::uint64_t granule = llamcat::kLineBytes / model.dtype_bytes;
    const std::uint64_t last = r.seq_len + r.decode_steps - 1;
    tokens = (last + granule - 1) / granule * granule;
  }
  const std::uint64_t per_token = static_cast<std::uint64_t>(
                                      model.num_kv_heads) *
                                  model.head_dim * model.dtype_bytes;
  return tokens * per_token * num_layers;
}

void check_serving(const std::string& label,
                   const std::vector<RequestSpec>& requests,
                   const llamcat::scenario::RequestBatch& batch,
                   const llamcat::scenario::DecodePassConfig& pass_cfg,
                   const BatchStats& stats, llamcat::Cycle slo_ttft_cycles,
                   Failures& out) {
  std::map<std::uint32_t, const RequestSpec*> by_id;
  std::uint64_t steps = 0;
  std::uint64_t logical = 0;
  for (const RequestSpec& r : requests) {
    by_id[r.id] = &r;
    steps += r.decode_steps;
    logical += expected_peak_kv_bytes(batch.model(), r, pass_cfg.num_layers);
  }

  if (stats.per_request.size() != requests.size()) {
    out.push_back(label + ": " + u64(stats.per_request.size()) +
                  " request rows for " + u64(requests.size()) +
                  " generated requests");
  }
  for (const RequestStats& row : stats.per_request) {
    const auto it = by_id.find(row.id);
    if (it == by_id.end()) {
      out.push_back(label + ": row for unknown request " + u64(row.id));
      continue;
    }
    const RequestSpec& spec = *it->second;
    if (row.step_finish_cycles.size() != spec.decode_steps) {
      out.push_back(label + ": request " + u64(row.id) + " has " +
                    u64(row.step_finish_cycles.size()) +
                    " step landmarks for " + u64(spec.decode_steps) +
                    " decode steps");
    } else if (row.step_finish_cycles.back() != row.finish_cycle) {
      out.push_back(label + ": request " + u64(row.id) +
                    " last step landmark != finish cycle");
    }
  }
  if (stats.tokens() != steps) {
    out.push_back(label + ": " + u64(stats.tokens()) + " tokens for " +
                  u64(steps) + " generated decode steps");
  }

  const auto batch_audit =
      llamcat::scenario::audit_batch(batch, pass_cfg, stats);
  for (const std::string& v : batch_audit.violations) {
    out.push_back(label + ": audit_batch: " + v);
  }
  const auto open_audit =
      llamcat::scenario::audit_open_loop(requests, stats, slo_ttft_cycles);
  for (const std::string& v : open_audit.violations) {
    out.push_back(label + ": audit_open_loop: " + v);
  }

  const std::uint64_t want = pass_cfg.serving.kv_share ? logical : 0;
  if (stats.kv_logical_bytes != want) {
    out.push_back(label + ": kv_logical_bytes " + u64(stats.kv_logical_bytes) +
                  " != admitted peak footprints " + u64(want));
  }
}

void check_trace_roundtrip(const std::string& label,
                           const std::vector<RequestSpec>& requests,
                           Failures& out) {
  const auto back = llamcat::scenario::trace_from_string(
      llamcat::scenario::trace_to_string(requests));
  bool same = back.size() == requests.size();
  for (std::size_t i = 0; same && i < back.size(); ++i) {
    const RequestSpec& a = requests[i];
    const RequestSpec& b = back[i];
    same = a.id == b.id && a.seq_len == b.seq_len &&
           a.arrival_cycle == b.arrival_cycle &&
           a.decode_steps == b.decode_steps &&
           a.prefix_group == b.prefix_group &&
           a.prefix_tokens == b.prefix_tokens;
  }
  if (!same) {
    out.push_back(label + ": write_trace/read_trace round trip changed the "
                          "request list");
  }
}

}  // namespace perfbench
