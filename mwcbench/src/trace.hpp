// Benchmark-side spans for the traced replay.
//
// The replay wraps each public call it makes into a layer in a span
// (name, start, end, parent span, request id) kept in memory. Spans the
// library already records (MWC_OBS_SCOPE: tsp.q_rooted_msf,
// tsp.improve_tour, ...) are collected at the end of each replayed op and
// attached to the innermost benchmark or library span that contains them
// on the same thread. A layer's self time is its span's duration minus the
// time its child spans cover.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace mwcbench {

struct SpanRecord {
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  std::int64_t parent = -1;  ///< index into the span list; -1 for an op
  std::uint64_t request = 0;
  std::uint32_t tid = 0;
  bool library = false;  ///< recorded by the library, not the benchmark
};

class Tracer {
 public:
  /// A disabled tracer records nothing and turns library spans off, so
  /// the same replay code runs untraced for the overhead comparison.
  explicit Tracer(bool enabled);
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const noexcept { return enabled_; }

  /// Root span of one replayed operation; `op` names its class
  /// ("solve", "hit", "delta", "observe", "push").
  void begin_op(const char* op, std::uint64_t request);
  void end_op();

  class Scope {
   public:
    Scope(Tracer& tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::int64_t index_ = -1;
  };

  const std::vector<SpanRecord>& spans() const noexcept { return spans_; }
  /// Library spans lost to a full per-thread ring (should stay 0).
  std::size_t dropped() const noexcept { return dropped_; }

  /// Writes every span as Chrome trace-event JSON (parent and request
  /// ids in "args"). Returns false on I/O failure.
  bool write(const std::string& path) const;

 private:
  std::int64_t open(const char* name);
  void close(std::int64_t index);
  void absorb_library_spans(std::size_t first_of_op);

  bool enabled_ = false;
  std::uint32_t main_tid_ = 0;
  std::uint64_t request_ = 0;
  std::vector<SpanRecord> spans_;
  std::vector<std::int64_t> stack_;
  std::size_t op_first_ = 0;
  std::size_t dropped_ = 0;
};

/// Self time per (op class, layer) plus op totals, from a span list.
struct LayerTable {
  std::map<std::string, std::size_t> ops;  ///< op class -> count
  std::map<std::string, double> op_us;     ///< op class -> total root time
  /// op class -> layer -> self time (us). A span's self time goes to the
  /// nearest enclosing span (itself included) whose name maps to a
  /// layer; time no mapped span covers stays unattributed.
  std::map<std::string, std::map<std::string, double>> self_us;
  /// op class -> span name -> (calls, inclusive time us); library span
  /// names carry a "lib:" prefix so they never merge with the benchmark
  /// span of the same name around the public call.
  std::map<std::string, std::map<std::string, std::pair<std::size_t, double>>>
      inclusive;

  double attributed_us() const;
  double total_us() const;
};

/// `layer_of` maps span names to layer names (unmapped names inherit).
LayerTable analyze(const std::vector<SpanRecord>& spans,
                   const std::map<std::string, std::string>& layer_of);

}  // namespace mwcbench
