// cold: the paper's configuration (n=2000, q=5, horizon 1000, the default
// cycle model, polish off), one distinct instance per request. The daemon
// holds fewer plans than the run sends instances, so every request
// misses, fills and evicts; the q-rooted MSF, the oracle and sim.run do
// most of the work.
#include <map>
#include <stdexcept>

#include "check.hpp"
#include "replay.hpp"
#include "svc/engine.hpp"
#include "svc/wire.hpp"
#include "workloads.hpp"

namespace mwcbench {

namespace {

namespace svc = mwc::svc;

/// Stream indices of set-up solves, far from the timed ones.
constexpr std::size_t kSetUpIndex = std::size_t{1} << 30;

svc::Request cold_request(const RunConfig& config, std::size_t i) {
  const Sizes& s = config.sizes;
  svc::RequestBuilder builder("c" + std::to_string(i));
  builder.preset(s.cold_n, s.q, 1000.0, wire_seed(config.seed, 2 * i))
      .cycle_model({}, wire_seed(config.seed, 2 * i + 1))
      .horizon(1000.0)
      .improve(false);
  // A trace id makes the daemon echo its stage breakdown ("t").
  if (config.trace) builder.trace_id("c" + std::to_string(i));
  return builder.build();
}

}  // namespace

Outcome run_cold(const RunConfig& config) {
  const Sizes& s = config.sizes;
  Outcome out;

  std::vector<double> setup_s;
  std::size_t setups = 0;
  auto daemon = set_up(
      config,
      [&](int port) {
        const svc::Request request = cold_request(config, kSetUpIndex + setups++);
        Conn conn(port);
        conn.send(svc::to_json(request) + "\n");
        std::string line;
        ++out.attempted;
        if (!conn.read_line(line)) throw std::runtime_error("mwcd hung up");
        const std::string why = check_solved(line, request, false, false);
        if (!why.empty()) out.fail(why);
      },
      setup_s);

  const auto start = Clock::now();
  const std::vector<Exchange> exchanges = closed_loop(
      daemon->port(), 2,
      [&](std::size_t i) { return svc::to_json(cold_request(config, i)); },
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(config.seconds)),
      s.cold_summed, static_cast<std::size_t>(-1));
  const double window_s = ms_between(start, Clock::now()) / 1e3;

  WireLayers wire;
  const double rss_mb = daemon->peak_rss_mb();
  if (config.trace) read_cache_counters(daemon->port(), wire);
  if (!daemon->stop()) out.fail("mwcd did not exit cleanly");

  // Output checks (after the timed window, so they cost it nothing).
  std::vector<double> latency;
  double cost_m = 0.0;
  double round_m = 0.0;
  std::map<std::size_t, std::string> reference;  // index -> plan bytes
  for (const Exchange& x : exchanges) {
    ++out.attempted;
    const svc::Request request = cold_request(config, x.index);
    svc::Plan plan;
    std::string why = check_solved(x.response, request, false, false, &plan);
    if (why.empty() && x.index < s.cold_checked) {
      const std::string local =
          svc::to_jsonl(svc::handle_request(request, nullptr));
      if (plan_bytes(local) != plan_bytes(x.response))
        why = request.id + ": plan differs from in-process handle_request";
      reference[x.index] = std::string(plan_bytes(local));
    }
    if (why.empty() && x.index < s.cold_summed) {
      cost_m += plan.total_distance;
      round_m += plan.first_round_length;
    }
    if (!why.empty()) {
      out.fail(why);
      continue;
    }
    latency.push_back(x.latency_ms);
    if (config.trace) {
      wire.queue_ms.push_back(number_field(x.response, "queue_ms"));
      wire.transport_ms.push_back(x.latency_ms -
                                  number_field(x.response, "latency_ms"));
    }
  }

  if (!config.trace) {
    out.add("setup_s", "s", median_of(setup_s),
            "median of " + std::to_string(setup_s.size()));
    const Quantile p50 = exact_quantile(latency, 0.5);
    out.add_quantile("solve_p50_ms", p50);
    out.add_quantile("request_p50_ms", p50);
    out.add_quantile("request_tail_ms", exact_quantile(latency, 0.9));
    out.add("request_rps", "1/s", static_cast<double>(latency.size()) / window_s,
            std::to_string(latency.size()) + " solves");
    out.add("service_cost_km", "km", cost_m / 1e3,
            "first " + std::to_string(s.cold_summed) + " instances");
    out.add("round_km", "km", round_m / 1e3,
            "first " + std::to_string(s.cold_summed) + " instances");
    out.add("rss_peak_mb", "MB", rss_mb);
    return out;
  }

  // Traced replay: the leading instances decomposed in-process, once
  // untraced and once traced; each must reproduce handle_request's plan.
  ReplayResult replay;
  for (const bool traced : {false, true}) {
    Tracer tracer(traced);
    svc::PlanCache cache(s.cold_cache, 8);
    SolveCounters counters;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < s.cold_traced; ++i) {
      tracer.begin_op("solve", i);
      const std::string response = decompose_solve(
          svc::to_json(cold_request(config, i)), cache, tracer, counters);
      tracer.end_op();
      if (!traced) continue;
      ++out.attempted;
      if (plan_bytes(response) != reference[i])
        out.fail("c" + std::to_string(i) +
                 ": decomposed solve differs from handle_request");
    }
    (traced ? replay.traced_us : replay.untraced_us) =
        ms_between(t0, Clock::now()) * 1e3;
    if (!traced) continue;
    replay.table = analyze(tracer.spans(), layer_map());
    replay.counters = counters;
    write_spans(config, tracer, out);
  }
  add_layer_metrics(out, replay, wire);
  return out;
}

}  // namespace mwcbench
