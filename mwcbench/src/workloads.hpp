// The three workloads. Each runs the untraced wire measurement (trace 0)
// or the wire run plus the in-process traced replay (trace 1).
//
//   cold   - distinct v1 instances at the paper's size, closed loop on two
//            connections; every request misses the plan cache.
//   warm   - a working set solved during set-up, then cache hits only: an
//            open loop at a fixed rate and a pipelined closed loop.
//   replan - v2 solve with polish on, a chain of v2 deltas, then a stream
//            session whose regional surge makes the deadline monitor push
//            replans.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "wire.hpp"

namespace mwcbench {

class Tracer;

struct RunConfig {
  std::string mwcd;     ///< daemon executable
  std::string out_dir;  ///< daemon logs and the span file go here
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Sizes sizes;
};

/// mwcd flags a workload runs with (before --port).
std::vector<std::string> daemon_flags(const RunConfig& config);

Outcome run_cold(const RunConfig& config);
Outcome run_warm(const RunConfig& config);
Outcome run_replan(const RunConfig& config);

// ---- shared by the workloads ------------------------------------------

/// Starts mwcd `sizes.setups` times, each followed by `warm_up(port)`,
/// and keeps the last daemon. setup_s is the median of `seconds`.
std::unique_ptr<Daemon> set_up(const RunConfig& config,
                               const std::function<void(int)>& warm_up,
                               std::vector<double>& seconds);

/// One request / response pair of a closed loop.
struct Exchange {
  std::size_t index = 0;
  std::string response;
  double latency_ms = 0.0;
};

/// Closed loop on `conns` connections: each sends line_for(i) for the
/// next unclaimed index i and waits for the response, until `end` has
/// passed and at least `min_count` indices are served, or `max_count`
/// are. Results are sorted by index.
std::vector<Exchange> closed_loop(
    int port, std::size_t conns,
    const std::function<std::string(std::size_t)>& line_for,
    Clock::time_point end, std::size_t min_count, std::size_t max_count);

/// Writes the traced replay's spans next to the daemon logs.
void write_spans(const RunConfig& config, const Tracer& tracer,
                 Outcome& out);

}  // namespace mwcbench
