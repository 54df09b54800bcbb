// The traced run's in-process replay: a solve decomposed into the public
// calls svc::handle_request makes, and the per-layer metrics derived from
// the replay's spans, the library's counters and the wire "t" echo.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench.hpp"
#include "svc/plan_cache.hpp"
#include "trace.hpp"

namespace mwcbench {

/// Counters a decomposed solve reads off the simulator and the library.
struct SolveCounters {
  double solves = 0;
  double oracle_rows = 0;
  double simd_rows = 0;
  double polish_moves = 0;
  double dispatches = 0;
  double tour_cache_hits = 0;
  double tour_cache_misses = 0;
};

/// Serves one full-request line the way svc::handle_request does on a
/// cache miss, one public call per span: parse_any_request, the cache
/// probe (spec_fingerprint + spec_lookup + get), resolve + fingerprint +
/// make_policy, oracle fill, Simulator::precost_policy, Simulator::run,
/// the first-round q_rooted_tsp, the cache fill (make_base_state + put)
/// and to_jsonl. Returns the response line; throws std::runtime_error
/// when the instance was already cached or the solve failed.
std::string decompose_solve(const std::string& line,
                            mwc::svc::PlanCache& cache, Tracer& tracer,
                            SolveCounters& counters);

/// Library counter (global registry) current value; 0 when unregistered.
double library_counter(const char* name);

/// Figures measured on the wire in the traced run.
struct WireLayers {
  std::vector<double> queue_ms;      ///< "t".queue_ms per response
  std::vector<double> transport_ms;  ///< client latency - server latency
  std::vector<double> observe_ms;    ///< observe sent -> ack
  std::vector<double> push_ms;       ///< triggering observe -> push
  double cache_hits = 0;
  double cache_misses = 0;
  double cache_evictions = 0;
};

/// Reads the daemon's svc.cache.* counters through the admin endpoint.
void read_cache_counters(int port, WireLayers& wire);

struct ReplayResult {
  LayerTable table;
  SolveCounters counters;
  double traced_us = 0;    ///< replay wall time with spans on
  double untraced_us = 0;  ///< same replay with spans off
  double push_triggers = 0;
  double pushes = 0;
};

/// Adds every per-layer metric (0 for a layer the workload bypasses).
void add_layer_metrics(Outcome& out, const ReplayResult& replay,
                       const WireLayers& wire);

/// The span -> layer map the coverage and self times use.
const std::map<std::string, std::string>& layer_map();

}  // namespace mwcbench
