// warm: a working set of n=800 instances is solved during set-up; timed
// requests draw from it at random, about a quarter as inline geometry
// equal to the preset, so both the spec fast lane and full parse plus
// resolve are hit. The solver does no work: wire parse, the cache probe,
// serialize and the epoll transport carry all of it, and the plan cache
// is only read. Two phases of seconds/2 each: an open loop at a fixed
// rate timed from each request's due time, then a pipelined closed loop
// on one connection at saturation.
#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>

#include "check.hpp"
#include "exp/runner.hpp"
#include "replay.hpp"
#include "svc/engine.hpp"
#include "svc/wire.hpp"
#include "workloads.hpp"

namespace mwcbench {

namespace {

namespace svc = mwc::svc;

/// Length of the seeded choice sequence both phases cycle through.
constexpr std::size_t kChoiceRing = std::size_t{1} << 16;

svc::Request preset_request(const RunConfig& config, std::size_t j) {
  const Sizes& s = config.sizes;
  const std::string id = "w" + std::to_string(j);
  svc::RequestBuilder builder(id);
  builder.preset(s.warm_n, s.q, 1000.0, wire_seed(config.seed, 100000 + 2 * j))
      .cycle_model({}, wire_seed(config.seed, 100001 + 2 * j))
      .horizon(1000.0)
      .improve(false);
  if (config.trace) builder.trace_id(id);
  return builder.build();
}

/// The same instance as preset_request(j), carried as inline geometry.
svc::Request inline_request(const RunConfig& config, std::size_t j) {
  const svc::Request preset = preset_request(config, j);
  const svc::ResolvedInstance instance = svc::resolve(preset);
  const std::string id = "i" + std::to_string(j);
  svc::RequestBuilder builder(id);
  builder
      .inline_network(instance.network.sensor_points(),
                      instance.network.depots(),
                      instance.network.base_station())
      .cycle_model(preset.cycles.model, preset.cycles.seed)
      .horizon(preset.horizon)
      .improve(preset.improve);
  if (config.trace) builder.trace_id(id);
  return builder.build();
}

/// Checks one hit against the plan bytes that filled the cache.
std::string check_hit(std::string_view response, const std::string& id,
                      const std::string& fill) {
  if (!has_flag(response, "\"ok\":true"))
    return id + " failed: " + string_field(response, "error");
  if (string_field(response, "id") != id)
    return "response " + string_field(response, "id") + " for request " + id;
  if (!has_flag(response, "\"cached\":true")) return id + " missed the cache";
  if (plan_bytes(response) != fill)
    return id + ": cached plan differs from the response that filled it";
  return {};
}

struct Lines {
  std::vector<std::string> preset;  ///< newline-terminated
  std::vector<std::string> inline_;
  std::vector<std::string> ids;     ///< [2j] preset, [2j+1] inline
  std::vector<std::uint32_t> choices;  ///< 2j + is_inline
};

}  // namespace

Outcome run_warm(const RunConfig& config) {
  const Sizes& s = config.sizes;
  Outcome out;

  Lines lines;
  for (std::size_t j = 0; j < s.warm_set; ++j) {
    lines.preset.push_back(svc::to_json(preset_request(config, j)) + "\n");
    lines.inline_.push_back(svc::to_json(inline_request(config, j)) + "\n");
    lines.ids.push_back("w" + std::to_string(j));
    lines.ids.push_back("i" + std::to_string(j));
  }
  {
    auto rng = stream_rng(config.seed, 7);
    lines.choices.resize(kChoiceRing);
    for (auto& c : lines.choices)
      c = static_cast<std::uint32_t>(2 * (rng() % s.warm_set) + (rng() % 4 == 0));
  }
  const auto line_of = [&](std::uint32_t choice) -> const std::string& {
    return (choice & 1) ? lines.inline_[choice / 2] : lines.preset[choice / 2];
  };

  // Set-up: solve the working set on a fresh daemon (closed loop, two
  // connections), `setups` times.
  std::vector<double> setup_s;
  std::vector<std::vector<Exchange>> fills;
  auto daemon = set_up(
      config,
      [&](int port) {
        fills.push_back(closed_loop(
            port, 2,
            [&](std::size_t j) {
              std::string line = lines.preset[j];
              line.pop_back();
              return line;
            },
            Clock::time_point::max(), s.warm_set, s.warm_set));
      },
      setup_s);

  std::vector<std::string> fill_bytes(s.warm_set);
  std::vector<double> solve_ms;
  double cost_m = 0.0;
  double round_m = 0.0;
  for (std::size_t j = 0; j < s.warm_set; ++j) {
    const svc::Request request = preset_request(config, j);
    const std::string local =
        svc::to_jsonl(svc::handle_request(request, nullptr));
    fill_bytes[j] = std::string(plan_bytes(local));
    svc::Plan plan;
    for (std::size_t k = 0; k < fills.size(); ++k) {
      const Exchange& x = fills[k][j];
      ++out.attempted;
      std::string why = check_solved(x.response, request, false, false, &plan);
      if (why.empty() && plan_bytes(x.response) != fill_bytes[j])
        why = request.id + ": plan differs from in-process handle_request";
      if (!why.empty()) {
        out.fail(why);
        continue;
      }
      solve_ms.push_back(x.latency_ms);
    }
    cost_m += plan.total_distance;
    round_m += plan.first_round_length;
  }

  WireLayers wire;
  std::mutex errors_mutex;
  std::vector<std::string> errors;
  const auto record_error = [&](std::string why) {
    std::lock_guard<std::mutex> lock(errors_mutex);
    errors.push_back(std::move(why));
  };
  const auto phase = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(config.seconds / 2.0));

  // Open loop: request k is due at t0 + k / rate and timed from then.
  const auto count = static_cast<std::size_t>(s.warm_rate * config.seconds / 2.0);
  std::vector<Clock::time_point> due(count);
  std::vector<Clock::time_point> sent(count);
  std::vector<double> latency(count, 0.0);
  std::vector<double> queue_ms;
  std::vector<double> transport_ms;
  {
    Conn conn(daemon->port());
    const auto t0 = Clock::now() + std::chrono::milliseconds(5);
    for (std::size_t k = 0; k < count; ++k)
      due[k] = t0 + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(k / s.warm_rate));
    std::thread receiver([&] {
      std::string line;
      for (std::size_t k = 0; k < count; ++k) {
        if (!conn.read_line(line)) {
          record_error("mwcd closed the open-loop connection");
          return;
        }
        latency[k] = ms_between(due[k], Clock::now());
        const std::uint32_t c = lines.choices[k % kChoiceRing];
        const std::string why = check_hit(line, lines.ids[c], fill_bytes[c / 2]);
        if (!why.empty()) {
          latency[k] = -1.0;
          record_error(why);
        } else if (config.trace) {
          queue_ms.push_back(number_field(line, "queue_ms"));
          transport_ms.push_back(latency[k] - number_field(line, "latency_ms"));
        }
      }
    });
    try {
      for (std::size_t k = 0; k < count; ++k) {
        // Sleep to just before the due time, then spin, so timer slack
        // does not count as the server's latency.
        std::this_thread::sleep_until(due[k] - std::chrono::microseconds(200));
        while (Clock::now() < due[k]) {
        }
        sent[k] = Clock::now();
        conn.send(line_of(lines.choices[k % kChoiceRing]));
      }
    } catch (...) {
      receiver.join();  // the socket failed, so its read fails too
      throw;
    }
    receiver.join();
  }
  out.attempted += count;
  std::vector<double> hit_ms;
  std::vector<double> late_ms;
  for (std::size_t k = 0; k < count; ++k) {
    late_ms.push_back(ms_between(due[k], sent[k]));
    if (latency[k] >= 0.0) hit_ms.push_back(latency[k]);
  }

  // Pipelined closed loop: keep up to `warm_window` requests in flight,
  // refilling once a quarter have been answered. Both client threads block
  // (no spinning), so they do not compete with mwcd for cores.
  std::size_t pipelined = 0;
  double pipelined_s = 0.0;
  {
    Conn conn(daemon->port());
    std::mutex mutex;
    std::condition_variable cv;
    std::size_t sent_count = 0;  // guarded by mutex
    std::size_t received = 0;    // guarded by mutex
    bool done = false;           // guarded by mutex
    bool broken = false;         // guarded by mutex
    Clock::time_point last_receive;
    std::thread receiver([&] {
      std::string line;
      for (std::size_t k = 0;; ++k) {
        {
          std::unique_lock<std::mutex> lock(mutex);
          cv.wait(lock, [&] { return sent_count > k || done; });
          if (sent_count == k) return;  // done and every response read
        }
        const bool ok = conn.read_line(line);
        if (ok) {
          last_receive = Clock::now();
          const std::uint32_t c = lines.choices[(count + k) % kChoiceRing];
          const std::string why = check_hit(line, lines.ids[c], fill_bytes[c / 2]);
          if (!why.empty()) record_error(why);
        }
        {
          std::lock_guard<std::mutex> lock(mutex);
          received = k + 1;
          broken = !ok;
        }
        cv.notify_all();
        if (!ok) {
          record_error("mwcd closed the pipelined connection");
          return;
        }
      }
    });
    const auto start = Clock::now();
    const auto end = start + phase;
    std::string batch;
    std::size_t k = 0;
    try {
      while (Clock::now() < end) {
        std::size_t in_flight = 0;
        {
          std::unique_lock<std::mutex> lock(mutex);
          cv.wait(lock, [&] {
            return broken || k - received <= s.warm_window - s.warm_window / 4;
          });
          if (broken) break;
          in_flight = k - received;
        }
        batch.clear();
        for (std::size_t a = in_flight; a < s.warm_window; ++a, ++k)
          batch += line_of(lines.choices[(count + k) % kChoiceRing]);
        conn.send(batch);
        {
          std::lock_guard<std::mutex> lock(mutex);
          sent_count = k;
        }
        cv.notify_all();
      }
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(mutex);
        done = true;
      }
      cv.notify_all();
      receiver.join();
      throw;
    }
    {
      std::lock_guard<std::mutex> lock(mutex);
      done = true;
    }
    cv.notify_all();
    receiver.join();
    pipelined = k;
    pipelined_s = ms_between(start, last_receive) / 1e3;
  }
  out.attempted += pipelined;

  const double rss_mb = daemon->peak_rss_mb();
  if (config.trace) read_cache_counters(daemon->port(), wire);
  if (!daemon->stop()) out.fail("mwcd did not exit cleanly");
  for (const auto& why : errors) out.fail(why);

  const Quantile late50 = exact_quantile(late_ms, 0.5);
  double late_max = 0.0;
  for (const double v : late_ms) late_max = std::max(late_max, v);
  char note[160];
  std::snprintf(note, sizeof note,
                "gen_late_ms p50=%.4f max=%.4f (n=%zu, open loop at %.0f/s); "
                "pipelined %zu requests, window %zu",
                late50.value, late_max, late_ms.size(), s.warm_rate, pipelined,
                s.warm_window);
  out.notes.push_back(note);

  if (!config.trace) {
    out.add("setup_s", "s", median_of(setup_s),
            "median of " + std::to_string(setup_s.size()));
    out.add_quantile("solve_p50_ms", exact_quantile(solve_ms, 0.5));
    out.add_quantile("request_p50_ms", exact_quantile(hit_ms, 0.5));
    out.add_quantile("request_tail_ms", exact_quantile(hit_ms, 0.9));
    out.add("request_rps", "1/s", static_cast<double>(pipelined) / pipelined_s,
            std::to_string(pipelined) + " pipelined hits");
    out.add("service_cost_km", "km", cost_m / 1e3,
            std::to_string(s.warm_set) + " working-set solves");
    out.add("round_km", "km", round_m / 1e3,
            std::to_string(s.warm_set) + " working-set solves");
    out.add("rss_peak_mb", "MB", rss_mb);
    return out;
  }

  wire.queue_ms = std::move(queue_ms);
  wire.transport_ms = std::move(transport_ms);

  // Traced replay: fill a fresh cache (not timed), then serve the open
  // loop's first requests the way handle_request's hit path does.
  ReplayResult replay;
  for (const bool traced : {false, true}) {
    svc::PlanCache cache(s.warm_cache, 8);
    for (std::size_t j = 0; j < s.warm_set; ++j)
      svc::handle_request(preset_request(config, j), &cache);
    Tracer tracer(traced);
    using Scope = Tracer::Scope;
    const auto t0 = Clock::now();
    for (std::size_t h = 0; h < s.warm_traced; ++h) {
      const std::uint32_t c = lines.choices[h % kChoiceRing];
      const std::string& line = line_of(c);
      tracer.begin_op("hit", h);
      svc::Request request;
      {
        Scope span(tracer, "svc.parse");
        request = svc::parse_any_request(line).full;
      }
      std::shared_ptr<const svc::Plan> plan;
      std::uint64_t spec = 0;
      {
        Scope span(tracer, "svc.cache_probe");
        spec = svc::spec_fingerprint(request);
        if (const std::uint64_t memo = cache.spec_lookup(spec))
          plan = cache.get(memo);
      }
      if (plan == nullptr) {
        std::uint64_t key = 0;
        {
          Scope span(tracer, "svc.resolve");
          const svc::ResolvedInstance instance = svc::resolve(request);
          (void)mwc::exp::make_policy(request.policy, instance.config);
          key = svc::fingerprint(request, instance);
        }
        Scope span(tracer, "svc.cache_probe");
        cache.spec_remember(spec, key);
        plan = cache.get(key);
      }
      std::string response;
      {
        Scope span(tracer, "svc.serialize");
        svc::Response r;
        r.id = request.id;
        r.trace_id = request.trace_id;
        r.ok = true;
        r.cached = true;
        r.plan = plan;
        response = svc::to_jsonl(r);
      }
      tracer.end_op();
      if (!traced) continue;
      ++out.attempted;
      if (plan == nullptr) {
        out.fail(request.id + ": replayed hit missed the cache");
        continue;
      }
      const std::string why = check_hit(response, lines.ids[c], fill_bytes[c / 2]);
      if (!why.empty()) out.fail(why);
    }
    (traced ? replay.traced_us : replay.untraced_us) =
        ms_between(t0, Clock::now()) * 1e3;
    if (!traced) continue;
    replay.table = analyze(tracer.spans(), layer_map());
    write_spans(config, tracer, out);
  }
  add_layer_metrics(out, replay, wire);
  return out;
}

}  // namespace mwcbench
