// Micro-benchmark for the mwc::obs instrumentation overhead.
//
//   ./micro_obs [--n 400] [--q 5] [--reps 20] [--svc-batch 256]
//               [--json PATH]
//
// Times the hottest instrumented path — q_rooted_tsp with 2-opt/Or-opt
// polish over a warm oracle-backed view (MWC_OBS_SCOPE spans, probe-count
// flushes, gauge adds) — plus one Simulator::run over the same network
// (per-dispatch counters + the residual-margin histogram), plus the
// service warm-request path: cache-hit requests over a socketpair served
// by svc::NetServer (the serve loop mwcd runs), measured plain and then
// with the full observability plane active (client trace id on the wire,
// per-stage timing echo, access log). Built
// twice by scripts/bench_obs.sh, once with -DMWC_OBS=ON and once with
// -DMWC_OBS=OFF, the two --json outputs quantify the telemetry overhead
// (budget: within 2%, 3% for the traced service path); the script merges
// several runs of each and the result is committed as BENCH_obs.json.
//
// The JSON records which configuration produced it ("obs_enabled") so the
// merge script can't mix the arms up.
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "charging/min_total_distance.hpp"
#include "obs/obs.hpp"
#include "sim/simulator.hpp"
#include "svc/access_log.hpp"
#include "svc/event_loop.hpp"
#include "svc/server.hpp"
#include "svc/wire.hpp"
#include "tsp/oracle.hpp"
#include "tsp/qrooted.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"
#include "wsn/deployment.hpp"

namespace {

/// One arm of the service comparison: an in-process server behind a
/// socketpair whose far end svc::NetServer serves, so every round trip
/// pays what a daemon client pays — socket write, epoll wakeup, line
/// split, wire parse, queue, cache probe, response serialization,
/// reorder, socket read — minus only the network.
class SvcArm {
 public:
  SvcArm(bool traced, std::size_t n, std::size_t q,
         const std::string& access_path)
      : log_(access_path) {
    using namespace mwc;
    svc::RequestBuilder builder("warm");
    builder.preset(n, q, 1000.0, 11).horizon(100.0);
    if (traced) builder.trace_id("bench-warm-request");
    line_ = builder.to_json_line() + "\n";

    svc::ServerOptions options;
    options.threads = 1;
    options.cache_capacity = 4;
    if (traced) options.access_log = &log_;
    server_ = std::make_unique<svc::Server>(options);
    net_ = std::make_unique<svc::NetServer>(*server_, nullptr);

    ok_ = ::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_) == 0 &&
          net_->start_fds(fds_[1], fds_[1]);
    if (!ok_) return;
    serve_thread_ = std::thread([net = net_.get()] { net->run(); });
  }

  ~SvcArm() {
    if (ok_) {
      ::shutdown(fds_[0], SHUT_WR);  // EOF: the loop drains and returns
      serve_thread_.join();
    }
    net_.reset();  // drains the server before it goes
    for (const int fd : fds_)
      if (fd >= 0) ::close(fd);
  }

  bool ok() const { return ok_; }

  /// One request/response round trip; returns response bytes.
  std::size_t round_trip() {
    if (::write(fds_[0], line_.data(), line_.size()) !=
        static_cast<ssize_t>(line_.size()))
      return 0;
    // Sequential round trips: one response line, possibly split across
    // reads, never interleaved with another.
    char buf[1 << 16];
    std::size_t total = 0;
    for (;;) {
      const ssize_t r = ::read(fds_[0], buf, sizeof buf);
      if (r <= 0) return 0;
      total += static_cast<std::size_t>(r);
      if (std::memchr(buf, '\n', static_cast<std::size_t>(r)) != nullptr)
        return total;
    }
  }

 private:
  mwc::svc::AccessLog log_;
  std::unique_ptr<mwc::svc::Server> server_;
  std::unique_ptr<mwc::svc::NetServer> net_;
  std::string line_;
  int fds_[2] = {-1, -1};
  bool ok_ = false;
  std::thread serve_thread_;
};

/// Microseconds per warm (cache-hit) request for both arms of the
/// observability comparison — [0] plain, [1] traced (client trace id on
/// the wire forcing the stage-timing echo, plus a JSONL access log).
/// The arms run interleaved, batch by batch, so machine-level drift
/// (frequency scaling, noisy neighbours) hits both equally; each arm
/// reports its min over `reps` batches of `batch` round trips. `sink`
/// accumulates response bytes to defeat dead-code elimination.
std::array<double, 2> svc_warm_us_per_request(std::size_t n, std::size_t q,
                                              std::size_t reps,
                                              std::size_t batch,
                                              const std::string& access_path,
                                              double* sink) {
  using namespace mwc;
  SvcArm plain(false, n, q, access_path);
  SvcArm traced(true, n, q, access_path);
  if (!plain.ok() || !traced.ok()) return {-1.0, -1.0};
  SvcArm* arms[2] = {&plain, &traced};

  std::array<double, 2> best_ms = {0.0, 0.0};
  Timer timer;
  for (SvcArm* arm : arms)
    *sink += static_cast<double>(arm->round_trip());  // prime the caches
  for (std::size_t r = 0; r < reps; ++r) {
    for (std::size_t a = 0; a < 2; ++a) {
      timer.reset();
      for (std::size_t i = 0; i < batch; ++i)
        *sink += static_cast<double>(arms[a]->round_trip());
      const double ms = timer.elapsed_ms();
      if (r == 0 || ms < best_ms[a]) best_ms[a] = ms;
    }
  }
  return {best_ms[0] * 1000.0 / static_cast<double>(batch),
          best_ms[1] * 1000.0 / static_cast<double>(batch)};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mwc;
  CliArgs args(argc, argv);
  const auto n = static_cast<std::size_t>(args.get_int_or("n", 400));
  const auto q = static_cast<std::size_t>(args.get_int_or("q", 5));
  const auto reps = static_cast<std::size_t>(args.get_int_or("reps", 20));
  const std::string json_path = args.get_or("json", "");

  // Deterministic instance shared by both arms of the comparison.
  wsn::DeploymentConfig deploy;
  deploy.n = n;
  deploy.q = q;
  deploy.field_side = 1000.0;
  Rng rng(20140917);
  const wsn::Network network = wsn::deploy_random(deploy, rng);

  std::vector<geom::Point> sensors;
  sensors.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    sensors.push_back(network.sensor(i).position);
  const tsp::DistanceOracle oracle(network.depots(), sensors);
  std::vector<std::size_t> all_ids(n);
  for (std::size_t i = 0; i < n; ++i) all_ids[i] = i;

  tsp::QRootedOptions options;
  options.improve = true;  // polish loops are the probe-heaviest path

  double checksum = 0.0;  // defeats dead-code elimination
  // Warm the oracle rows so every timed rep runs the identical path.
  checksum += tsp::q_rooted_tsp(oracle.dispatch_view(all_ids), q, options)
                  .total_length;

  std::vector<double> tour_times(reps);
  Timer timer;
  for (std::size_t r = 0; r < reps; ++r) {
    timer.reset();
    const auto view = oracle.dispatch_view(all_ids);
    checksum += tsp::q_rooted_tsp(view, q, options).total_length;
    tour_times[r] = timer.elapsed_ms();
  }

  // One short simulated horizon: dispatch counters, cache counters, and
  // the residual-margin histogram on every executed dispatch.
  wsn::CycleModelConfig cycle_config;
  cycle_config.tau_min = 1.0;
  cycle_config.tau_max = 20.0;
  const wsn::CycleModel cycles(network, cycle_config, 7);
  sim::SimOptions sim_options;
  sim_options.horizon = 50.0;
  std::vector<double> sim_times(reps);
  for (std::size_t r = 0; r < reps; ++r) {
    sim::Simulator simulator(network, cycles, sim_options);
    charging::MinTotalDistancePolicy policy;
    timer.reset();
    const auto result = simulator.run(policy);
    sim_times[r] = timer.elapsed_ms();
    checksum += result.service_cost;
  }

  // Service warm path: cache-hit requests through an in-process server,
  // plain vs the full observability plane (trace ids + access log). Both
  // arms run in THIS binary, so the plain/traced delta isolates the
  // per-request cost of tracing + logging from the build-level
  // MWC_OBS=ON/OFF delta that the tour/sim sections measure.
  const auto svc_batch =
      static_cast<std::size_t>(args.get_int_or("svc-batch", 256));
  const std::string access_path = json_path.empty()
                                      ? "micro_obs_access.jsonl"
                                      : json_path + ".access.jsonl";
  const std::array<double, 2> svc_us = svc_warm_us_per_request(
      n, q, reps, svc_batch, access_path, &checksum);
  const double svc_plain_us = svc_us[0];
  const double svc_traced_us = svc_us[1];
  std::remove(access_path.c_str());

  const double tour_ms = std::ranges::min(tour_times);
  const double sim_ms = std::ranges::min(sim_times);
  std::printf("micro_obs: n=%zu q=%zu reps=%zu obs_enabled=%d\n", n, q,
              reps, MWC_OBS_ENABLED);
  std::printf("  q_rooted_tsp+improve %9.3f ms/rep (min; mean %.3f)\n",
              tour_ms, mean_of(tour_times));
  std::printf("  simulator run        %9.3f ms/rep (min; mean %.3f)\n",
              sim_ms, mean_of(sim_times));
  std::printf("  svc warm plain       %9.3f us/req (min over %zu x %zu)\n",
              svc_plain_us, reps, svc_batch);
  std::printf("  svc warm traced+log  %9.3f us/req (min over %zu x %zu)\n",
              svc_traced_us, reps, svc_batch);
  std::printf("  (checksum %.3f)\n", checksum);

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"micro_obs\",\n"
                 "  \"obs_enabled\": %d,\n"
                 "  \"n\": %zu,\n"
                 "  \"q\": %zu,\n"
                 "  \"reps\": %zu,\n"
                 "  \"tour_ms_per_rep\": %.6f,\n"
                 "  \"tour_ms_per_rep_mean\": %.6f,\n"
                 "  \"sim_ms_per_rep\": %.6f,\n"
                 "  \"sim_ms_per_rep_mean\": %.6f,\n"
                 "  \"svc_batch\": %zu,\n"
                 "  \"svc_plain_us_per_req\": %.6f,\n"
                 "  \"svc_traced_us_per_req\": %.6f\n"
                 "}\n",
                 MWC_OBS_ENABLED, n, q, reps, tour_ms, mean_of(tour_times),
                 sim_ms, mean_of(sim_times), svc_batch, svc_plain_us,
                 svc_traced_us);
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
