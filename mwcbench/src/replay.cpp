#include "replay.hpp"

#include <memory>
#include <optional>
#include <stdexcept>

#include "exp/runner.hpp"
#include "obs/registry.hpp"
#include "sim/simulator.hpp"
#include "sim/solve.hpp"
#include "svc/delta.hpp"
#include "svc/engine.hpp"
#include "svc/json.hpp"
#include "svc/wire.hpp"
#include "tsp/qrooted.hpp"
#include "wire.hpp"

namespace mwcbench {

namespace svc = mwc::svc;

/// Layer self times must account for this share of traced op time, or
/// some op time sits in no layer and the per-layer table misleads.
constexpr double kCoverageTolerance = 0.95;

double library_counter(const char* name) {
  return static_cast<double>(
      mwc::obs::Registry::global().counter(name).value());
}

std::string decompose_solve(const std::string& line, svc::PlanCache& cache,
                            Tracer& tracer, SolveCounters& counters) {
  using Scope = Tracer::Scope;
  svc::Request request;
  {
    Scope span(tracer, "svc.parse");
    request = svc::parse_any_request(line).full;
  }
  std::uint64_t spec = 0;
  {
    Scope span(tracer, "svc.cache_probe");
    spec = svc::spec_fingerprint(request);
    const std::uint64_t memo = cache.spec_lookup(spec);
    if (memo != 0 && cache.get(memo) != nullptr)
      throw std::runtime_error("replayed solve " + request.id +
                               " was already cached");
  }
  svc::ResolvedInstance instance;
  std::unique_ptr<mwc::charging::Policy> policy;
  std::uint64_t key = 0;
  {
    Scope span(tracer, "svc.resolve");
    instance = svc::resolve(request);
    policy = mwc::exp::make_policy(request.policy, instance.config);
    key = svc::fingerprint(request, instance);
  }
  {
    Scope span(tracer, "svc.cache_probe");
    cache.spec_remember(spec, key);
    if (cache.get(key) != nullptr)
      throw std::runtime_error("replayed solve " + request.id +
                               " was already cached");
  }

  const double moves_before = library_counter("tsp.improve.moves");
  mwc::sim::SimOptions options = instance.sim;
  options.record_dispatches = true;  // as sim::solve_network forces
  std::optional<mwc::sim::Simulator> simulator;
  {
    // Rows otherwise fill lazily inside the first MSF that probes them;
    // filling them up front gives the oracle its own span.
    Scope span(tracer, "tsp.oracle_fill");
    simulator.emplace(instance.network, *instance.cycles, options);
    const double simd_before = library_counter("geom.simd.rows_vectorized");
    const auto& oracle = simulator->oracle();
    for (std::size_t r = 0; r < oracle.size(); ++r) (void)oracle.row(r);
    counters.oracle_rows += static_cast<double>(oracle.rows_materialized());
    counters.simd_rows +=
        library_counter("geom.simd.rows_vectorized") - simd_before;
  }
  {
    Scope span(tracer, "sim.precost");
    simulator->precost_policy(*policy);
  }
  mwc::sim::SolveOutcome outcome;
  {
    Scope span(tracer, "sim.run");
    outcome.result = simulator->run(*policy);
  }
  const std::size_t q = instance.network.q();
  if (!outcome.result.dispatch_log.empty()) {
    // The first round exactly as sim::solve_network rebuilds it.
    Scope span(tracer, "sim.first_round");
    mwc::sim::RoundPlan& round = outcome.first_round;
    round.sensors = outcome.result.dispatch_log.front().sensors;
    const auto view = simulator->oracle().dispatch_view(round.sensors);
    auto tours = mwc::tsp::q_rooted_tsp(view, q, options.tour_options);
    round.total_length = tours.total_length;
    for (auto& tour : tours.tours) {
      round.tour_lengths.push_back(tour.length_with(view));
      std::vector<std::size_t> order = std::move(tour.order());
      for (std::size_t& node : order)
        if (node >= q) node = q + round.sensors[node - q];
      round.tours.emplace_back(std::move(order));
    }
    round.forest = std::move(tours.forest);
  }
  counters.solves += 1;
  counters.polish_moves += library_counter("tsp.improve.moves") - moves_before;
  counters.dispatches += static_cast<double>(outcome.result.num_dispatches);
  counters.tour_cache_hits +=
      static_cast<double>(outcome.result.tour_cache_hits);
  counters.tour_cache_misses +=
      static_cast<double>(outcome.result.tour_cache_misses);

  svc::Response response;
  {
    Scope span(tracer, "svc.cache_fill");
    auto plan = std::make_shared<svc::Plan>();
    const mwc::sim::RoundPlan& round = outcome.first_round;
    for (std::size_t t = 0; t < round.tours.size(); ++t) {
      svc::PlanTour tour;
      tour.depot = t;
      for (const std::size_t node : round.tours[t].order()) {
        if (node < q)
          tour.depot = node;
        else
          tour.sensors.push_back(node - q);
      }
      tour.length = round.tour_lengths[t];
      plan->first_round_length += tour.length;
      plan->first_round_tours.push_back(std::move(tour));
    }
    plan->total_distance = outcome.result.service_cost;
    plan->num_dispatches = outcome.result.num_dispatches;
    plan->num_sensor_charges = outcome.result.num_sensor_charges;
    plan->dead_sensors = outcome.result.dead_sensors;
    plan->fingerprint = key;
    std::shared_ptr<const svc::Plan> shared = plan;
    cache.put(key, shared,
              svc::make_base_state(request, instance, outcome, shared));
    response.plan = std::move(shared);
  }
  {
    Scope span(tracer, "svc.serialize");
    response.id = request.id;
    response.trace_id = request.trace_id;
    response.version = request.version;
    response.ok = true;
    return svc::to_jsonl(response);
  }
}

void read_cache_counters(int port, WireLayers& wire) {
  Conn conn(port);
  conn.send("{\"admin\":\"metrics\",\"id\":\"m\"}\n");
  std::string line;
  if (!conn.read_line(line))
    throw std::runtime_error("mwcd closed the admin connection");
  const svc::Json doc = svc::Json::parse(line);
  const svc::Json* counters = doc.at("metrics").find("counters");
  const auto value = [&](const char* name) {
    const svc::Json* v = counters != nullptr ? counters->find(name) : nullptr;
    return v != nullptr ? v->as_double() : 0.0;
  };
  wire.cache_hits = value("svc.cache.hits");
  wire.cache_misses = value("svc.cache.misses");
  wire.cache_evictions = value("svc.cache.evictions");
}

const std::map<std::string, std::string>& layer_map() {
  static const std::map<std::string, std::string> map{
      {"svc.parse", "svc.parse"},
      {"svc.cache_probe", "svc.cache_probe"},
      {"svc.resolve", "svc.resolve"},
      {"svc.cache_fill", "svc.cache_fill"},
      {"svc.serialize", "svc.serialize"},
      {"svc.fold", "svc.fold"},
      {"svc.handle_delta", "svc.handle_delta"},
      {"svc.observe", "svc.observe"},
      {"svc.push_wait", "svc.push_wait"},
      {"wsn.predict", "wsn.predict"},
      {"tsp.oracle_fill", "tsp.oracle_fill"},
      {"tsp.cand_build", "tsp.cand_build"},
      {"tsp.cand_repair", "tsp.cand_build"},
      {"tsp.q_rooted_msf", "tsp.msf"},
      {"tsp.msf_repair", "tsp.msf"},
      {"tsp.q_rooted_tsp", "tsp.construct"},
      {"tsp.improve_tour", "tsp.polish"},
      {"sim.precost", "sim.precost"},
      {"sim.run", "sim.run"},
      {"sim.first_round", "sim.first_round"},
      {"sim.replan_round", "sim.replan_round"},
  };
  return map;
}

void add_layer_metrics(Outcome& out, const ReplayResult& replay,
                       const WireLayers& wire) {
  const LayerTable& t = replay.table;
  const auto ops = [&](const char* op) {
    const auto it = t.ops.find(op);
    return it == t.ops.end() ? 0.0 : static_cast<double>(it->second);
  };
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  // Inclusive time per call of one span name, over every op class.
  const auto per_call_us = [&](const std::string& name) {
    double calls = 0.0;
    double us = 0.0;
    for (const auto& [op, names] : t.inclusive) {
      const auto it = names.find(name);
      if (it == names.end()) continue;
      calls += static_cast<double>(it->second.first);
      us += it->second.second;
    }
    return ratio(us, calls);
  };
  const auto inclusive_us = [&](const char* op, const std::string& name) {
    const auto o = t.inclusive.find(op);
    if (o == t.inclusive.end()) return 0.0;
    const auto it = o->second.find(name);
    return it == o->second.end() ? 0.0 : it->second.second;
  };
  const auto calls = [&](const char* op, const std::string& name) {
    const auto o = t.inclusive.find(op);
    if (o == t.inclusive.end()) return 0.0;
    const auto it = o->second.find(name);
    return it == o->second.end() ? 0.0
                                 : static_cast<double>(it->second.first);
  };
  const auto self_us = [&](const char* op, const char* layer) {
    const auto o = t.self_us.find(op);
    if (o == t.self_us.end()) return 0.0;
    const auto it = o->second.find(layer);
    return it == o->second.end() ? 0.0 : it->second;
  };
  const auto median_or_zero = [](const std::vector<double>& v) {
    return v.empty() ? 0.0 : median_of(v);
  };
  const double solves = ops("solve");
  const double solve_us = t.op_us.count("solve") ? t.op_us.at("solve") : 0.0;
  const SolveCounters& c = replay.counters;

  out.add("svc.parse_us", "us", per_call_us("svc.parse"));
  out.add("svc.serialize_us", "us", per_call_us("svc.serialize"));
  out.add("svc.cache_probe_us", "us",
          ratio(inclusive_us("solve", "svc.cache_probe") +
                    inclusive_us("hit", "svc.cache_probe"),
                solves + ops("hit")));
  out.add("svc.cache_hit_ratio", "ratio",
          ratio(wire.cache_hits, wire.cache_hits + wire.cache_misses));
  out.add("svc.cache_evictions", "count", wire.cache_evictions);
  out.add("svc.resolve_ms", "ms", per_call_us("svc.resolve") / 1e3);
  out.add("svc.cache_fill_ms", "ms", per_call_us("svc.cache_fill") / 1e3);
  out.add("svc.queue_wait_ms", "ms", median_or_zero(wire.queue_ms),
          "n=" + std::to_string(wire.queue_ms.size()));
  out.add("svc.transport_ms", "ms", median_or_zero(wire.transport_ms),
          "n=" + std::to_string(wire.transport_ms.size()));
  out.add("svc.fold_us", "us", per_call_us("svc.fold"));
  out.add("svc.handle_delta_ms", "ms", per_call_us("svc.handle_delta") / 1e3);
  out.add("svc.observe_us", "us", per_call_us("svc.observe"));
  out.add("wsn.predict_us", "us", per_call_us("wsn.predict"));
  out.add("svc.push_yield", "ratio", ratio(replay.pushes, replay.push_triggers));
  out.add("stream.observe_p50_ms", "ms", median_or_zero(wire.observe_ms),
          "n=" + std::to_string(wire.observe_ms.size()));
  out.add("stream.push_p50_ms", "ms", median_or_zero(wire.push_ms),
          "n=" + std::to_string(wire.push_ms.size()));
  out.add("tsp.oracle_fill_ms", "ms",
          ratio(inclusive_us("solve", "tsp.oracle_fill"), solves) / 1e3);
  out.add("tsp.oracle_rows", "count", ratio(c.oracle_rows, c.solves));
  out.add("tsp.cand_build_ms", "ms",
          ratio(self_us("solve", "tsp.cand_build"), solves) / 1e3);
  out.add("tsp.msf_ms", "ms", ratio(self_us("solve", "tsp.msf"), solves) / 1e3);
  out.add("tsp.msf_calls", "count",
          ratio(calls("solve", "lib:tsp.q_rooted_msf"), solves));
  out.add("tsp.msf_share", "ratio", ratio(self_us("solve", "tsp.msf"), solve_us));
  out.add("tsp.construct_ms", "ms",
          ratio(self_us("solve", "tsp.construct"), solves) / 1e3);
  out.add("tsp.polish_ms", "ms",
          ratio(self_us("solve", "tsp.polish"), solves) / 1e3);
  out.add("tsp.polish_moves", "count", ratio(c.polish_moves, c.solves));
  out.add("sim.precost_ms", "ms",
          ratio(inclusive_us("solve", "sim.precost"), solves) / 1e3);
  out.add("sim.run_ms", "ms",
          ratio(inclusive_us("solve", "sim.run"), solves) / 1e3);
  out.add("sim.dispatches", "count", ratio(c.dispatches, c.solves));
  out.add("sim.tour_cache_hit_ratio", "ratio",
          ratio(c.tour_cache_hits, c.tour_cache_hits + c.tour_cache_misses));
  out.add("sim.first_round_ms", "ms",
          ratio(inclusive_us("solve", "sim.first_round"), solves) / 1e3);
  out.add("sim.replan_round_ms", "ms",
          ratio(inclusive_us("delta", "lib:sim.replan_round"),
                calls("delta", "lib:sim.replan_round")) /
              1e3);
  out.add("geom.simd_row_ratio", "ratio", ratio(c.simd_rows, c.oracle_rows));
  const double coverage = ratio(t.attributed_us(), t.total_us());
  out.add("trace.coverage", "ratio", coverage,
          "layer self time / traced op time");
  if (coverage < kCoverageTolerance)
    out.fail("trace.coverage " + std::to_string(coverage) + " is below " +
             std::to_string(kCoverageTolerance));
  out.add("obs.trace_overhead_pct", "%",
          100.0 * ratio(replay.traced_us - replay.untraced_us,
                        replay.untraced_us));
}

}  // namespace mwcbench
