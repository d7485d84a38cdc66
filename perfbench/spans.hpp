// Host-time measurement for the benchmark harness: a monotonic clock, a
// span recorder for the traced run, and a capture of the simulator's
// LLAMCAT_FASTPATH_STATS stderr lines.
//
// Spans are recorded here, around the harness's calls into each simulator
// layer; the simulator itself is not instrumented. They stay in memory
// until the run ends and are then written as Chrome trace_event JSON
// (chrome://tracing, ui.perfetto.dev) plus a per-layer self-time table.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the host's monotonic clock. Host time only ever feeds the
/// benchmark's reports, never simulator state.
double host_now_s();

/// CPU seconds this process has used since it was started, loader and
/// runtime start-up included. Other tenants of the host barely move it.
double process_cpu_s();

/// One timed call into a layer. `layer` is the simulator module the call
/// enters (scenario.traffic, trace.map, sim.run, scenario.audit) or a
/// harness grouping (bench.setup, bench.round, bench.point, bench.check);
/// `tag` names the point and stack the call served.
struct Span {
  std::string name;
  std::string layer;
  std::string tag;
  double start_s = 0.0;
  double end_s = 0.0;
  int parent = -1;  // index into the recorder's spans, -1 at the root
};

/// Records nested spans when enabled; when disabled every call is a no-op,
/// so the untraced run pays one branch per layer call.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  /// Opens a span under the innermost open one; returns its index (-1 when
  /// disabled).
  int begin(std::string name, std::string layer, std::string tag);
  void end(int id);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Host seconds per layer not covered by child spans.
  [[nodiscard]] std::map<std::string, double> self_seconds_by_layer() const;
  /// Total (inclusive) host seconds per layer.
  [[nodiscard]] std::map<std::string, double> total_seconds_by_layer() const;

  /// Chrome trace_event JSON: one complete ("X") event per span, times in
  /// microseconds from `origin_s`, the span's tag and parent in args.
  void write_chrome_trace(std::ostream& os, double origin_s) const;
  /// Human-readable self-time table, one row per layer.
  void write_self_time_table(std::ostream& os) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, std::string name, std::string layer,
             std::string tag = "")
      : rec_(rec),
        id_(rec.begin(std::move(name), std::move(layer), std::move(tag))) {}
  ~ScopedSpan() { rec_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& rec_;
  int id_;
};

/// Totals of the simulator's skip-ahead report: one "[fastpath]" stderr
/// line per System::run call while LLAMCAT_FASTPATH_STATS=1.
struct FastpathTotals {
  std::uint64_t system_runs = 0;
  std::uint64_t cycles = 0;
  std::uint64_t stepped = 0;
  std::uint64_t skipped = 0;
  std::uint64_t windows = 0;
};

/// Parses the "[fastpath] cycles=.. stepped=.. skipped=.. windows=.." lines
/// of `text`; other lines are ignored.
FastpathTotals parse_fastpath(const std::string& text);

/// Sets LLAMCAT_FASTPATH_STATS=1 and sends file descriptor 2 to `path`
/// for the object's lifetime; finish() restores both and returns what was
/// written. Only the traced run uses it.
class FastpathCapture {
 public:
  explicit FastpathCapture(std::string path);
  ~FastpathCapture();
  FastpathCapture(const FastpathCapture&) = delete;
  FastpathCapture& operator=(const FastpathCapture&) = delete;

  /// Restores stderr and the environment; returns the captured text.
  std::string finish();

 private:
  std::string path_;
  int saved_fd_ = -1;
};

}  // namespace perfbench
