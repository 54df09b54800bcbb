// replan: one connection to `mwcd --sessions`, repeated in episodes of
//   1. a v2 full solve at n=800 with polish on; cycles are inline tau in a
//      narrow band, so the first round visits every sensor;
//   2. a chain of v2 deltas of 1-4 mixed ops, each against the previous
//      derived fingerprint;
//   3. a stream session on the final plan whose observe frames carry a
//      regional surge, so the deadline monitor pushes replans.
// It repairs instead of rebuilding the MSF, re-polishes locally, includes
// the polish-on first-round rebuild, and writes to the plan cache (every
// delta inserts a derived plan and its BaseState) where warm only reads.
#include <algorithm>
#include <condition_variable>
#include <map>
#include <mutex>
#include <set>
#include <stdexcept>

#include "check.hpp"
#include "replay.hpp"
#include "svc/delta.hpp"
#include "svc/engine.hpp"
#include "svc/server.hpp"
#include "svc/session.hpp"
#include "svc/wire.hpp"
#include "wsn/predictor.hpp"
#include "workloads.hpp"

namespace mwcbench {

namespace {

namespace svc = mwc::svc;
using mwc::geom::Point;

constexpr double kField = 1000.0;
constexpr double kTauLow = 5.0;    ///< the narrow tau band: every sensor
constexpr double kTauBand = 0.25;  ///< is due in the first round
constexpr double kStepDt = 0.25;   ///< session time between observes
constexpr double kSurge = 4.0;     ///< discharge multiplier in the region
constexpr double kSurgeRadius = 300.0;
constexpr int kPushTimeoutMs = 10000;
constexpr std::size_t kSetUpEpisode = std::size_t{1} << 30;

/// The client's copy of the instance a plan chain is on, updated with the
/// same fold rules the daemon applies to a patch.
struct Mirror {
  Geometry geometry;
  std::vector<double> tau;
  std::string fp;
  std::size_t n0 = 0;  ///< sensors at the base solve

  std::size_t n() const { return geometry.sensors.size(); }
};

svc::Request base_request(const RunConfig& config, std::size_t e) {
  const Sizes& s = config.sizes;
  auto rng = stream_rng(config.seed, 300000 + e);
  std::vector<double> tau(s.replan_n);
  for (double& t : tau) t = kTauLow + uniform(rng, 0.0, kTauBand);
  return svc::RequestBuilder("b" + std::to_string(e))
      .version(svc::WireVersion::kV2)
      .preset(s.replan_n, s.q, kField, wire_seed(config.seed, 200000 + e))
      .cycle_values(std::move(tau))
      .horizon(1000.0)
      .improve(true)
      .build();
}

Mirror mirror_of(const svc::Request& request) {
  Mirror m;
  m.geometry = resolved_geometry(request);
  m.geometry.charger_active.assign(m.geometry.depots.size(), 1);
  m.tau = request.cycles.values;
  m.n0 = m.n();
  return m;
}

/// Draws the next patch (1-4 ops on distinct sensors) and applies it to
/// the mirror. A charger goes down in one delta and comes back up as the
/// first op of the next; `may_down` is false for a chain's last delta.
/// mwcd aborts (qrooted.cpp "inactive roots must have dirty trees") on a
/// delta against a derived plan with a charger down that does not bring
/// it back up, so no other order is sent; see README.md.
svc::DeltaRequest next_delta(Mirror& m, std::mt19937_64& rng,
                             const std::string& id, bool may_down) {
  svc::DeltaBuilder builder(id, svc::parse_fingerprint_hex(m.fp));
  const std::size_t n = m.n();
  const std::size_t q = m.geometry.depots.size();
  std::set<std::size_t> removed;
  std::map<std::size_t, Point> moved;
  std::map<std::size_t, double> retau;
  std::vector<std::pair<Point, double>> added;
  std::set<std::size_t> picked;
  auto& active = m.geometry.charger_active;
  const auto down = std::find(active.begin(), active.end(), 0);
  const bool flipped = down != active.end() || !may_down;
  if (down != active.end()) {
    builder.charger_up(static_cast<std::size_t>(down - active.begin()));
    *down = 1;
  }
  const auto pick = [&] {
    std::size_t i = rng() % n;
    while (picked.count(i) != 0) i = (i + 1) % n;
    picked.insert(i);
    return i;
  };
  bool kind_down = false;
  const std::size_t ops = 1 + rng() % 4;
  for (std::size_t o = down != active.end() ? 1 : 0; o < ops; ++o) {
    std::size_t kind = rng() % 5;
    if (kind == 2 && n - removed.size() <= m.n0 / 2) kind = 3;
    if (kind == 4 && (flipped || kind_down)) kind = 0;
    switch (kind) {
      case 0: {
        const std::size_t i = pick();
        const Point pos{uniform(rng, 0.0, kField), uniform(rng, 0.0, kField)};
        builder.move_sensor(i, pos);
        moved[i] = pos;
        break;
      }
      case 1: {
        const Point pos{uniform(rng, 0.0, kField), uniform(rng, 0.0, kField)};
        const double tau = kTauLow + uniform(rng, 0.0, kTauBand);
        builder.add_sensor(pos, tau);
        added.emplace_back(pos, tau);
        break;
      }
      case 2: {
        const std::size_t i = pick();
        builder.remove_sensor(i);
        removed.insert(i);
        break;
      }
      case 3: {
        const std::size_t i = pick();
        const double tau = kTauLow + uniform(rng, 0.0, kTauBand);
        builder.update_cycles(i, tau);
        retau[i] = tau;
        break;
      }
      default: {
        const std::size_t l = rng() % q;
        builder.charger_down(l);
        active[l] = 0;
        kind_down = true;
        break;
      }
    }
  }
  // Survivors keep their order (compacted ids), additions append.
  std::vector<Point> sensors;
  std::vector<double> tau;
  for (std::size_t i = 0; i < n; ++i) {
    if (removed.count(i) != 0) continue;
    const auto mv = moved.find(i);
    sensors.push_back(mv != moved.end() ? mv->second : m.geometry.sensors[i]);
    const auto rt = retau.find(i);
    tau.push_back(rt != retau.end() ? rt->second : m.tau[i]);
  }
  for (const auto& [pos, t] : added) {
    sensors.push_back(pos);
    tau.push_back(t);
  }
  m.geometry.sensors = std::move(sensors);
  m.tau = std::move(tau);
  return builder.build();
}

std::string stream_frame(const std::string& body) {
  return std::string("{\"v\":\"") + svc::kWireVersionStream + "\"," + body +
         "}\n";
}

std::string open_frame(const std::string& id, const std::string& fp) {
  return stream_frame("\"op\":\"open\",\"id\":\"" + id + "\",\"base\":\"" + fp +
                      "\",\"speed\":1000,\"charge_time\":0,\"t\":0");
}

/// Observe frame k (1-based): ground-truth rates B_i / tau_i, times the
/// surge inside the region from the first quarter of the steps on.
std::string observe_frame(const std::string& id, std::uint64_t session,
                          std::size_t k, std::size_t steps, const Mirror& m,
                          const Point& centre, std::vector<double>* rates) {
  rates->assign(m.n(), 0.0);
  const bool surge = k >= std::max<std::size_t>(1, steps / 4);
  for (std::size_t i = 0; i < m.n(); ++i) {
    const Point& p = m.geometry.sensors[i];
    const double dx = p.x - centre.x;
    const double dy = p.y - centre.y;
    const bool inside = dx * dx + dy * dy <= kSurgeRadius * kSurgeRadius;
    (*rates)[i] = (surge && inside ? kSurge : 1.0) / m.tau[i];
  }
  std::string body = "\"op\":\"observe\",\"id\":\"" + id +
                     "\",\"session\":" + std::to_string(session) + ",\"t\":";
  svc::append_json_number(body, kStepDt * static_cast<double>(k));
  body += ",\"rates\":[";
  for (std::size_t i = 0; i < rates->size(); ++i) {
    if (i > 0) body += ',';
    svc::append_json_number(body, (*rates)[i]);
  }
  body += "]";
  return stream_frame(body);
}

/// A response kept for the checks after the timed window.
struct Kept {
  std::string line;
  Geometry geometry;
  std::string base;  ///< expected "base" echo (deltas, pushes)
};

struct Episode {
  std::size_t index = 0;
  Kept solve;
  std::vector<Kept> deltas;
  std::vector<svc::DeltaRequest> requests;  ///< kept for checked episodes
  std::vector<Kept> pushes;
};

}  // namespace

Outcome run_replan(const RunConfig& config) {
  const Sizes& s = config.sizes;
  Outcome out;
  std::vector<double> setup_s;
  std::size_t setups = 0;
  auto daemon = set_up(
      config,
      [&](int port) {
        // Polish off: a polished solve's time varies too much between
        // instances for a set-up figure.
        svc::Request request = base_request(config, kSetUpEpisode + setups++);
        request.improve = false;
        Conn conn(port);
        conn.send(svc::to_json(request) + "\n");
        std::string line;
        ++out.attempted;
        if (!conn.read_line(line)) throw std::runtime_error("mwcd hung up");
        const std::string why = check_solved(line, request, false, true);
        if (!why.empty()) out.fail(why);
      },
      setup_s);

  std::vector<double> solve_ms, delta_ms;
  WireLayers wire;
  double delta_wall_s = 0.0;
  std::vector<Episode> episodes;
  Conn conn(daemon->port());
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(config.seconds));
  const auto exchange = [&](const std::string& line, std::string& response) {
    const auto sent = Clock::now();
    conn.send(line);
    if (!conn.read_line(response)) throw std::runtime_error("mwcd hung up");
    const double ms = ms_between(sent, Clock::now());
    if (config.trace && !has_flag(response, "\"op\":")) {
      wire.queue_ms.push_back(number_field(response, "queue_ms"));
      wire.transport_ms.push_back(ms - number_field(response, "latency_ms"));
    }
    return ms;
  };

  for (std::size_t e = 0; e < s.replan_checked || Clock::now() < end; ++e) {
    Episode ep;
    ep.index = e;
    const svc::Request request = base_request(config, e);
    Mirror m = mirror_of(request);
    ++out.attempted;
    solve_ms.push_back(exchange(svc::to_json(request) + "\n", ep.solve.line));
    m.fp = plan_fingerprint(plan_bytes(ep.solve.line));
    if (m.fp.empty()) {
      out.fail(request.id + " failed: " + string_field(ep.solve.line, "error"));
      continue;
    }

    auto rng = stream_rng(config.seed, 400000 + e);
    const auto chain_start = Clock::now();
    for (std::size_t d = 0; d < s.deltas; ++d) {
      Kept kept;
      kept.base = m.fp;
      const svc::DeltaRequest delta = next_delta(
          m, rng, "d" + std::to_string(e) + "." + std::to_string(d),
          d + 1 < s.deltas);
      kept.geometry = m.geometry;
      ++out.attempted;
      const double ms = exchange(svc::to_json(delta) + "\n", kept.line);
      m.fp = plan_fingerprint(plan_bytes(kept.line));
      ep.deltas.push_back(std::move(kept));
      if (e < s.replan_checked) ep.requests.push_back(delta);
      if (m.fp.empty()) break;  // the chain is broken; checks report it
      delta_ms.push_back(ms);
    }
    delta_wall_s += ms_between(chain_start, Clock::now()) / 1e3;
    if (m.fp.empty()) {
      episodes.push_back(std::move(ep));
      continue;
    }

    // Stream session on the final derived plan.
    std::string line;
    const std::string sid = "s" + std::to_string(e);
    ++out.attempted;
    exchange(open_frame(sid, m.fp), line);
    const double session = number_field(line, "session");
    if (!has_flag(line, "\"ok\":true") || !(session > 0)) {
      out.fail(sid + ": open failed: " + string_field(line, "error"));
      episodes.push_back(std::move(ep));
      continue;
    }
    const Point centre = m.geometry.sensors[rng() % m.n()];
    std::vector<double> rates;
    for (std::size_t k = 1; k <= s.observes; ++k) {
      const std::string id = "o" + std::to_string(e) + "." + std::to_string(k);
      const std::string frame =
          observe_frame(id, static_cast<std::uint64_t>(session), k, s.observes,
                        m, centre, &rates);
      ++out.attempted;
      const auto sent = Clock::now();
      conn.send(frame);
      bool acked = false;
      bool replan = false;
      bool pushed = false;
      while (!acked || (replan && !pushed)) {
        if (!conn.read_line(line, kPushTimeoutMs)) break;
        if (has_flag(line, "\"push\":true")) {
          if (config.trace) wire.push_ms.push_back(ms_between(sent, Clock::now()));
          ep.pushes.push_back(Kept{line, m.geometry, m.fp});
          m.fp = plan_fingerprint(plan_bytes(line));
          pushed = true;
        } else {
          if (config.trace)
            wire.observe_ms.push_back(ms_between(sent, Clock::now()));
          if (!has_flag(line, "\"ok\":true") || string_field(line, "id") != id)
            out.fail(id + ": observe failed: " + string_field(line, "error"));
          replan = has_flag(line, "\"replan\":true");
          acked = true;
        }
      }
      if (!acked || (replan && !pushed)) {
        out.fail(id + ": no " + (acked ? "push" : "ack") + " within " +
                 std::to_string(kPushTimeoutMs) + " ms");
        break;
      }
      if (replan) ++out.attempted;  // the push is an op of its own
    }
    ++out.attempted;
    exchange(stream_frame("\"op\":\"close\",\"id\":\"x" + std::to_string(e) +
                          "\",\"session\":" +
                          std::to_string(static_cast<std::uint64_t>(session))),
             line);
    if (!has_flag(line, "\"ok\":true")) out.fail("x" + std::to_string(e) + ": close failed");
    episodes.push_back(std::move(ep));
  }
  const double rss_mb = daemon->peak_rss_mb();
  if (config.trace) read_cache_counters(daemon->port(), wire);
  if (!daemon->stop()) out.fail("mwcd did not exit cleanly");

  // Output checks; the leading episodes are replayed in-process through
  // handle_request / handle_delta and must match byte for byte.
  double cost_m = 0.0;
  double round_m = 0.0;
  std::map<std::size_t, std::vector<std::string>> reference;  // e -> plans
  for (const Episode& ep : episodes) {
    const svc::Request request = base_request(config, ep.index);
    svc::Plan plan;
    std::string why = check_solved(ep.solve.line, request, false, true, &plan);
    const bool checked = ep.index < s.replan_checked;
    std::unique_ptr<svc::PlanCache> cache;
    if (checked) {
      cache = std::make_unique<svc::PlanCache>(s.replan_cache, 8);
      const std::string local =
          svc::to_jsonl(svc::handle_request(request, cache.get()));
      reference[ep.index].emplace_back(plan_bytes(local));
      if (why.empty() && plan_bytes(local) != plan_bytes(ep.solve.line))
        why = request.id + ": plan differs from in-process handle_request";
      cost_m += plan.total_distance;
    }
    if (!why.empty()) out.fail(why);
    for (std::size_t d = 0; d < ep.deltas.size(); ++d) {
      const Kept& k = ep.deltas[d];
      const std::string id = string_field(k.line, "id");
      why = {};
      if (!has_flag(k.line, "\"ok\":true"))
        why = id + " failed: " + string_field(k.line, "error") + " " +
              string_field(k.line, "message");
      else if (!has_flag(k.line, "\"derived\":true") ||
               string_field(k.line, "base") != k.base)
        why = id + ": derived plan does not echo its base " + k.base;
      else if (has_flag(k.line, "\"cached\":true"))
        why = id + ": fresh patch was served from the cache";
      else
        why = check_plan(plan_bytes(k.line), k.geometry, true, &plan);
      if (why.empty() && checked) {
        const std::string local =
            svc::to_jsonl(svc::handle_delta(ep.requests[d], cache.get()));
        reference[ep.index].emplace_back(plan_bytes(local));
        if (plan_bytes(local) != plan_bytes(k.line))
          why = id + ": plan differs from in-process handle_delta";
        round_m += plan.first_round_length;
      }
      if (!why.empty()) out.fail(why.rfind(id, 0) == 0 ? why : id + ": " + why);
    }
    for (const Kept& k : ep.pushes) {
      why = string_field(k.line, "base") != k.base
                ? "push does not echo its base " + k.base
                : check_plan(plan_bytes(k.line), k.geometry, true, &plan);
      if (!why.empty()) out.fail("push: " + why);
      if (why.empty() && checked) round_m += plan.first_round_length;
    }
  }

  if (!config.trace) {
    out.add("setup_s", "s", median_of(setup_s),
            "median of " + std::to_string(setup_s.size()));
    out.add_quantile("solve_p50_ms", exact_quantile(solve_ms, 0.5));
    out.add_quantile("request_p50_ms", exact_quantile(delta_ms, 0.5));
    out.add_quantile("request_tail_ms", exact_quantile(delta_ms, 0.9));
    out.add("request_rps", "1/s", static_cast<double>(delta_ms.size()) / delta_wall_s,
            std::to_string(delta_ms.size()) + " deltas in " +
                std::to_string(episodes.size()) + " episodes");
    out.add("service_cost_km", "km", cost_m / 1e3,
            "first " + std::to_string(s.replan_checked) + " episodes");
    out.add("round_km", "km", round_m / 1e3,
            "first " + std::to_string(s.replan_checked) + " episodes");
    out.add("rss_peak_mb", "MB", rss_mb);
    return out;
  }

  // Traced replay of the leading episodes against an in-process Server
  // (whose cache the session resolves its base through) and
  // SessionManager.
  ReplayResult replay;
  for (const bool traced : {false, true}) {
    svc::ServerOptions options;
    options.threads = 1;
    options.cache_capacity = s.replan_cache;
    svc::Server server(options);
    std::mutex mutex;
    std::condition_variable cv;
    std::size_t pushes = 0;
    svc::SessionManager manager(server);
    const svc::StreamHub::PushFn push = [&](std::string) {
      {
        std::lock_guard<std::mutex> lock(mutex);
        ++pushes;
      }
      cv.notify_all();
      return true;
    };
    Tracer tracer(traced);
    using Scope = Tracer::Scope;
    SolveCounters counters;
    double triggers = 0;
    std::uint64_t op = 0;
    const auto t0 = Clock::now();
    for (std::size_t e = 0; e < s.replan_traced; ++e) {
      const svc::Request request = base_request(config, e);
      Mirror m = mirror_of(request);
      const auto& ref = reference[e];
      std::size_t at = 0;
      const auto compare = [&](const std::string& response, const char* what) {
        if (!traced) return;
        ++out.attempted;
        if (at >= ref.size() || plan_bytes(response) != ref[at])
          out.fail(std::string("replayed ") + what + " " + std::to_string(at) +
                   " of episode " + std::to_string(e) + " differs");
        ++at;
      };
      tracer.begin_op("solve", op++);
      std::string response =
          decompose_solve(svc::to_json(request), server.cache(), tracer, counters);
      tracer.end_op();
      compare(response, "solve");
      m.fp = plan_fingerprint(plan_bytes(response));

      auto rng = stream_rng(config.seed, 400000 + e);
      for (std::size_t d = 0; d < s.deltas; ++d) {
        const std::string line = svc::to_json(next_delta(
            m, rng, "d" + std::to_string(e) + "." + std::to_string(d),
            d + 1 < s.deltas));
        tracer.begin_op("delta", op++);
        svc::DeltaRequest delta;
        {
          Scope span(tracer, "svc.parse");
          delta = svc::parse_any_request(line).delta;
        }
        {
          Scope span(tracer, "svc.fold");
          const auto state = server.cache().get_state(delta.base_fingerprint);
          if (state != nullptr)
            (void)svc::fold_patch(delta.patch, state->network.n(),
                                  state->network.q(), state->charger_active);
        }
        svc::Response r;
        {
          Scope span(tracer, "svc.handle_delta");
          r = svc::handle_delta(delta, &server.cache());
        }
        {
          Scope span(tracer, "svc.serialize");
          response = svc::to_jsonl(r);
        }
        tracer.end_op();
        compare(response, "delta");
        m.fp = plan_fingerprint(plan_bytes(response));
      }

      bool streaming = false;
      std::string ack = manager.handle_frame(1, open_frame("s", m.fp), push, &streaming);
      const auto session = static_cast<std::uint64_t>(number_field(ack, "session"));
      std::vector<double> initial(m.n());
      for (std::size_t i = 0; i < m.n(); ++i) initial[i] = 1.0 / m.tau[i];
      mwc::wsn::FleetPredictor predictor(svc::SessionOptions{}.gamma,
                                         std::move(initial),
                                         svc::SessionOptions{}.report_threshold);
      const Point centre = m.geometry.sensors[rng() % m.n()];
      std::vector<double> rates;
      for (std::size_t k = 1; k <= s.observes; ++k) {
        const std::string frame =
            observe_frame("o", session, k, s.observes, m, centre, &rates);
        std::size_t before = 0;
        {
          std::lock_guard<std::mutex> lock(mutex);
          before = pushes;
        }
        tracer.begin_op("observe", op++);
        {
          Scope span(tracer, "svc.observe");
          ack = manager.handle_frame(1, frame, push, &streaming);
        }
        {
          Scope span(tracer, "wsn.predict");
          (void)predictor.observe(rates);
        }
        tracer.end_op();
        if (!has_flag(ack, "\"replan\":true")) continue;
        triggers += 1;
        tracer.begin_op("push", op++);
        bool arrived = false;
        {
          Scope span(tracer, "svc.push_wait");
          std::unique_lock<std::mutex> lock(mutex);
          arrived = cv.wait_for(lock, std::chrono::milliseconds(kPushTimeoutMs),
                                [&] { return pushes > before; });
        }
        tracer.end_op();
        if (!arrived) out.fail("replayed observe " + std::to_string(k) + " got no push");
      }
      (void)manager.handle_frame(
          1, stream_frame("\"op\":\"close\",\"id\":\"x\",\"session\":" +
                          std::to_string(session)),
          push, &streaming);
    }
    (traced ? replay.traced_us : replay.untraced_us) =
        ms_between(t0, Clock::now()) * 1e3;
    if (!traced) continue;
    replay.table = analyze(tracer.spans(), layer_map());
    replay.counters = counters;
    replay.push_triggers = triggers;
    {
      std::lock_guard<std::mutex> lock(mutex);
      replay.pushes = static_cast<double>(pushes);
    }
    write_spans(config, tracer, out);
  }
  add_layer_metrics(out, replay, wire);
  return out;
}

}  // namespace mwcbench
