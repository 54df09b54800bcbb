// mwc_loadgen — load-generator client for mwcd.
//
// Spawns an mwcd child over a stdin/stdout pipe (default) or connects to
// one or more running daemons (--connect host:port[,host:port...]),
// drives a request mix through the mwc.svc.v1 wire protocol, and reports
// throughput plus latency percentiles (p50/p95/p99 estimated from an
// obs::Histogram of client-observed round-trip times).
//
// With several endpoints, requests route by consistent hashing on the
// instance topology seed (64 virtual nodes per endpoint), so repeats of
// an instance always land on the same daemon and its PlanCache stays
// warm — a fleet of mwcd processes behaves like one sharded cache.
// --pipeline D writes up to D requests back-to-back per endpoint in a
// single write() (JSONL pipelining against mwcd's epoll transport; TCP
// sockets get TCP_NODELAY so bursts are not serialized by Nagle).
//
// Flags:
//   --server PATH     mwcd binary to spawn (default: mwcd next to this
//                     binary); child gets --queue-depth/--threads/
//                     --cache-capacity forwarded
//   --connect HOST:PORT[,HOST:PORT...]
//                     use running daemons instead of spawning; more than
//                     one endpoint enables consistent-hash routing
//   --count N         total requests (default 64)
//   --concurrency C   closed loop: max outstanding requests (default 4)
//   --pipeline D      batch up to D requests per endpoint into one write
//                     (default 1; raises the closed-loop window to at
//                     least D)
//   --rate R          open loop: send R req/s regardless of completions
//                     (0 = closed loop)
//   --warmup K        send K untimed priming requests (same instance mix)
//                     and await them before the measured run (default 0)
//   --mode M          warm | cold | mixed (default mixed): warm repeats
//                     one instance (all but the first hit the PlanCache),
//                     cold gives every request a fresh topology seed,
//                     mixed cycles --distinct instances (default 8)
//   --delta           v2 delta mode: solve one base instance, then drive
//                     --count move_sensor patches against its fingerprint
//                     through the mwc.svc.v2 delta form
//   --n, --q          instance size (default 200 sensors, 5 chargers)
//   --policy NAME     exp::PolicyRegistry name (default MinTotalDistance)
//   --horizon T       monitoring period (default 1000)
//   --deadline-ms D   per-request deadline (0 = none)
//   --seed S          base topology seed (default 1)
//   --queue-depth N   forwarded to the spawned child (default 64)
//   --threads N       forwarded to the spawned child
//   --cache-capacity N forwarded to the spawned child
//   --metrics-out F   forwarded to the spawned child
//   --trace-id-prefix P  stamp request trace_ids as "P-<id>"; the server
//                     echoes them plus a per-stage timing breakdown
//                     ("t": parse/queue/cache/solve ms), which feeds the
//                     stage-latency table printed after the run
//   --json FILE       write the report as JSON
//
// Streaming-session mode (mwc.svc.stream.v1; requires --connect against
// an mwcd started with --port and --sessions):
//   --stream          drive one streaming session instead of the request
//                     mix: solve a calm base plan, open a session on its
//                     fingerprint, stream per-sensor discharge rates as
//                     observe frames, and capture server-pushed replans
//   --surge           storm workload: a regional StormCycleProcess storm
//                     cell is held active from --surge-at onwards, so a
//                     correlated sensor cluster drains --storm-stress x
//                     faster than the plan assumed. After the run both
//                     arms — the static base plan and the actual pushed
//                     plan sequence — replay the identical discharge
//                     trajectory client-side; the summary table reports
//                     sensors saved by replanning plus replan and
//                     push-to-apply latency percentiles
//   --steps K --step-dt D   K observe frames, one per D session time
//                     units (defaults 16 x 1.0)
//   --surge-at K      step at which the storm arrives (default 10)
//   --tau-min/--tau-max     calm cycle range of the storm process
//                     (defaults 10 / 50; linear in distance to base)
//   --storm-stress F  storm consumption multiplier (default 4)
//   --storm-radius R  storm cell radius in metres (default 300)
#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "obs/registry.hpp"
#include "svc/json.hpp"
#include "svc/plan_cache.hpp"
#include "svc/session.hpp"
#include "svc/wire.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "wsn/deployment.hpp"
#include "wsn/storm.hpp"

namespace {

using Clock = std::chrono::steady_clock;

struct Transport {
  int write_fd = -1;
  int read_fd = -1;
  pid_t child = -1;

  void close_write() {
    if (write_fd >= 0) {
      // TCP transport: read_fd is a dup of the same socket, so close()
      // alone would not half-close the connection and the daemon would
      // never see EOF. shutdown() is a no-op error (ENOTSOCK) on the
      // spawned-child pipe.
      ::shutdown(write_fd, SHUT_WR);
      ::close(write_fd);
    }
    write_fd = -1;
  }

  ~Transport() {
    close_write();
    if (read_fd >= 0) ::close(read_fd);
    if (child > 0) ::waitpid(child, nullptr, 0);
  }
};

bool spawn_child(Transport& t, const std::vector<std::string>& argv_strs) {
  int to_child[2];
  int from_child[2];
  if (::pipe(to_child) < 0 || ::pipe(from_child) < 0) {
    std::perror("pipe");
    return false;
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    std::perror("fork");
    return false;
  }
  if (pid == 0) {
    ::dup2(to_child[0], STDIN_FILENO);
    ::dup2(from_child[1], STDOUT_FILENO);
    ::close(to_child[0]);
    ::close(to_child[1]);
    ::close(from_child[0]);
    ::close(from_child[1]);
    std::vector<char*> argv;
    argv.reserve(argv_strs.size() + 1);
    for (const auto& s : argv_strs)
      argv.push_back(const_cast<char*>(s.c_str()));
    argv.push_back(nullptr);
    ::execv(argv[0], argv.data());
    std::perror("execv");
    std::_Exit(127);
  }
  ::close(to_child[0]);
  ::close(from_child[1]);
  t.write_fd = to_child[1];
  t.read_fd = from_child[0];
  t.child = pid;
  return true;
}

bool connect_tcp(Transport& t, const std::string& hostport) {
  const auto colon = hostport.rfind(':');
  if (colon == std::string::npos) {
    std::fprintf(stderr, "--connect wants HOST:PORT\n");
    return false;
  }
  const std::string host = hostport.substr(0, colon);
  const std::string port = hostport.substr(colon + 1);
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* info = nullptr;
  if (::getaddrinfo(host.c_str(), port.c_str(), &hints, &info) != 0 ||
      info == nullptr) {
    std::fprintf(stderr, "cannot resolve %s\n", hostport.c_str());
    return false;
  }
  const int fd = ::socket(info->ai_family, info->ai_socktype, 0);
  const bool ok =
      fd >= 0 && ::connect(fd, info->ai_addr, info->ai_addrlen) == 0;
  ::freeaddrinfo(info);
  if (!ok) {
    std::perror("connect");
    if (fd >= 0) ::close(fd);
    return false;
  }
  // Pipelined bursts must not sit in Nagle / delayed-ACK limbo.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  t.write_fd = fd;
  t.read_fd = ::dup(fd);
  return true;
}

struct Tally {
  std::mutex mutex;
  std::map<std::string, Clock::time_point> sent;  ///< id -> send time
  std::set<std::string> warmup;  ///< priming ids, excluded from stats
  std::size_t ok = 0;
  std::size_t cached = 0;
  std::size_t derived = 0;
  std::size_t errors = 0;
  std::map<std::string, std::size_t> errors_by_code;
  std::string fingerprint;  ///< latest plan fingerprint (delta base)
};

/// Server-side stage names, in pipeline order, matching the keys of the
/// "t" timing echo on traced responses.
constexpr std::array<const char*, 4> kStageKeys = {
    "parse_ms", "queue_ms", "cache_ms", "solve_ms"};

/// A server-pushed plan frame captured off the wire (stream mode).
struct StreamPush {
  double t = 0.0;          ///< session time the replan applied (epoch)
  double replan_ms = 0.0;  ///< server-reported trigger->plan latency
  double apply_ms = 0.0;   ///< client trigger-send -> push-received
  mwc::svc::Plan plan;     ///< first_round_tours only
};

/// Client-side state of the one streaming session (stream mode). Stream
/// frames never enter the Tally: plan pushes carry no request id, and the
/// session handshake is paced on `acked`, not on the latency histogram.
struct StreamState {
  std::mutex mutex;
  std::set<std::string> acked;       ///< frame ids answered ok
  std::uint64_t session = 0;         ///< id from the open ack
  std::size_t round_sensors = 0;     ///< open ack round size
  std::size_t observes = 0;          ///< observe acks seen
  std::size_t at_risk_total = 0;     ///< sum of ack at_risk counts
  std::size_t server_dead = 0;       ///< latest ack dead count
  std::vector<StreamPush> pushes;
  mwc::svc::Plan base_plan;          ///< tours of the calm base solve
  bool have_base = false;
  Clock::time_point last_send;       ///< most recent observe write
  bool failed = false;
  std::string error;
};

/// One client-side replay arm: drains every sensor along the observed
/// rate trajectory, crediting visits from the active plan's first-round
/// tours. A pushed plan replaces the whole visit schedule from its epoch
/// on, exactly like the server monitor's refresh_deadlines, so the two
/// arms differ only in which plans were available. step_rates[k] is the
/// rate vector reported at t = (k+1) * step_dt and drains the interval
/// ((k) * step_dt, (k+1) * step_dt] — the server's integration rule.
/// Returns the number of sensors whose residual ever reached zero.
std::size_t replay_deaths(const mwc::wsn::Network& network,
                          const std::vector<std::vector<double>>& step_rates,
                          double step_dt,
                          const std::vector<StreamPush>& plan_events,
                          double travel_speed, double charge_time) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::size_t n = network.n();
  std::vector<double> battery(n), residual(n), visit(n, kInf);
  for (std::size_t i = 0; i < n; ++i)
    battery[i] = residual[i] = network.sensor(i).battery_capacity;
  std::vector<char> dead(n, 0);
  std::size_t next_event = 0;
  const auto apply = [&](const StreamPush& event) {
    const std::vector<double> times = mwc::svc::plan_visit_times(
        event.plan, network, travel_speed, charge_time);
    for (std::size_t i = 0; i < n; ++i)
      visit[i] = std::isfinite(times[i]) ? event.t + times[i] : kInf;
  };
  while (next_event < plan_events.size() &&
         plan_events[next_event].t <= 0.0)
    apply(plan_events[next_event++]);
  for (std::size_t k = 0; k < step_rates.size(); ++k) {
    const double t_prev = step_dt * static_cast<double>(k);
    const double t = step_dt * static_cast<double>(k + 1);
    const std::vector<double>& rates = step_rates[k];
    for (std::size_t i = 0; i < n; ++i) {
      if (visit[i] > t_prev && visit[i] <= t) {
        // Did the drain catch the sensor before the charger did?
        if (residual[i] - rates[i] * (visit[i] - t_prev) <= 0.0) dead[i] = 1;
        residual[i] = battery[i] - rates[i] * (t - visit[i]);
        visit[i] = kInf;
      } else {
        residual[i] -= rates[i] * (t - t_prev);
      }
      if (residual[i] <= 0.0) {
        residual[i] = 0.0;
        dead[i] = 1;
      }
    }
    while (next_event < plan_events.size() && plan_events[next_event].t <= t)
      apply(plan_events[next_event++]);
  }
  std::size_t deaths = 0;
  for (const char d : dead) deaths += static_cast<std::size_t>(d);
  return deaths;
}

/// Rebuilds the tour list of a pushed plan frame ("plan" object, same
/// shape to_jsonl emits) far enough for plan_visit_times.
mwc::svc::Plan parse_pushed_plan(const mwc::svc::Json& doc) {
  mwc::svc::Plan plan;
  for (const auto& tour_doc : doc.at("first_round_tours").items()) {
    mwc::svc::PlanTour tour;
    tour.depot = static_cast<std::size_t>(tour_doc.at("depot").as_int());
    for (const auto& id : tour_doc.at("sensors").items())
      tour.sensors.push_back(static_cast<std::size_t>(id.as_int()));
    tour.length = tour_doc.at("length").as_double();
    plan.first_round_tours.push_back(std::move(tour));
  }
  return plan;
}

/// Absorbs one mwc.svc.stream.v1 line into the stream state. Returns
/// false only on a malformed frame (caller counts it as an error).
bool on_stream_line(const mwc::svc::Json& doc, StreamState& stream,
                    Clock::time_point now) {
  try {
    std::lock_guard<std::mutex> lock(stream.mutex);
    const mwc::svc::Json* op = doc.find("op");
    const std::string opname =
        op != nullptr && op->is_string() ? op->as_string() : std::string();
    if (opname == "plan") {
      StreamPush push;
      push.t = doc.at("t").as_double();
      push.replan_ms = doc.at("replan_ms").as_double();
      push.apply_ms =
          std::chrono::duration<double, std::milli>(now - stream.last_send)
              .count();
      push.plan = parse_pushed_plan(doc.at("plan"));
      stream.pushes.push_back(std::move(push));
      return true;
    }
    if (!doc.at("ok").as_bool()) {
      stream.failed = true;
      stream.error = doc.at("error").as_string();
      if (const auto* message = doc.find("message"))
        stream.error += ": " + message->as_string();
      return true;
    }
    if (opname == "open") {
      stream.session = static_cast<std::uint64_t>(doc.at("session").as_int());
      stream.round_sensors =
          static_cast<std::size_t>(doc.at("round_sensors").as_int());
    } else if (opname == "observe") {
      ++stream.observes;
      stream.at_risk_total +=
          static_cast<std::size_t>(doc.at("at_risk").as_int());
      stream.server_dead = static_cast<std::size_t>(doc.at("dead").as_int());
    }
    if (const auto* id = doc.find("id")) stream.acked.insert(id->as_string());
    return true;
  } catch (const std::exception& e) {
    std::lock_guard<std::mutex> lock(stream.mutex);
    stream.failed = true;
    stream.error = e.what();
    return false;
  }
}

void reader_loop(int fd, Tally& tally, mwc::obs::Histogram& latency,
                 const std::array<mwc::obs::Histogram*, 4>& stages,
                 StreamState* stream) {
  std::FILE* in = ::fdopen(fd, "r");
  if (in == nullptr) return;
  char* buffer = nullptr;
  std::size_t buffer_size = 0;
  ssize_t got;
  while ((got = ::getline(&buffer, &buffer_size, in)) > 0) {
    const auto now = Clock::now();
    std::string line(buffer, static_cast<std::size_t>(got));
    try {
      const mwc::svc::Json doc = mwc::svc::Json::parse(line);
      // Stream-session frames (including unsolicited plan pushes, which
      // carry no request id) route to the session state, not the tally.
      if (stream != nullptr) {
        if (const auto* v = doc.find("v");
            v != nullptr && v->is_string() &&
            v->as_string() == mwc::svc::kWireVersionStream) {
          on_stream_line(doc, *stream, now);
          continue;
        }
      }
      const std::string id = doc.at("id").as_string();
      std::lock_guard<std::mutex> lock(tally.mutex);
      if (const auto w = tally.warmup.find(id); w != tally.warmup.end()) {
        tally.warmup.erase(w);  // priming response: completion only
        continue;
      }
      const auto it = tally.sent.find(id);
      if (it != tally.sent.end()) {
        latency.observe(
            std::chrono::duration<double, std::milli>(now - it->second)
                .count());
        tally.sent.erase(it);
      }
      if (doc.at("ok").as_bool()) {
        ++tally.ok;
        if (const auto* cached = doc.find("cached");
            cached != nullptr && cached->as_bool())
          ++tally.cached;
        if (const auto* derived = doc.find("derived");
            derived != nullptr && derived->as_bool())
          ++tally.derived;
        if (const auto* plan = doc.find("plan")) {
          tally.fingerprint = plan->at("fingerprint").as_string();
          if (stream != nullptr) {
            // Stream mode needs the calm base tours for the replay arms.
            auto parsed = parse_pushed_plan(*plan);
            std::lock_guard<std::mutex> stream_lock(stream->mutex);
            stream->base_plan = std::move(parsed);
            stream->have_base = true;
          }
        }
      } else {
        ++tally.errors;
        ++tally.errors_by_code[doc.at("error").as_string()];
      }
      // Traced responses (and all v2 responses) echo the server-side
      // stage breakdown; errors carry one too.
      if (const auto* t = doc.find("t")) {
        for (std::size_t k = 0; k < kStageKeys.size(); ++k) {
          if (const auto* v = t->find(kStageKeys[k]))
            stages[k]->observe(v->as_double());
        }
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bad response line: %s\n", e.what());
      std::lock_guard<std::mutex> lock(tally.mutex);
      ++tally.errors;
    }
  }
  std::free(buffer);
  // fd was handed to the FILE*; closing it here, Transport skips it.
  std::fclose(in);
}

std::string dirname_of(const std::string& path) {
  const auto slash = path.rfind('/');
  return slash == std::string::npos ? std::string(".")
                                    : path.substr(0, slash);
}

/// One connected daemon plus its pending pipelined batch.
struct Endpoint {
  Transport transport;
  std::string label;
  std::string batch;               ///< concatenated unsent lines
  std::vector<std::string> batch_ids;
  std::size_t routed = 0;          ///< requests routed here (report)
};

/// Consistent-hash ring over endpoints: 64 virtual nodes each, keyed by
/// the mixed instance seed. One endpoint short-circuits.
class Router {
 public:
  explicit Router(const std::vector<std::unique_ptr<Endpoint>>& endpoints) {
    for (std::size_t i = 0; i < endpoints.size(); ++i)
      for (int v = 0; v < 64; ++v) {
        // Plain FNV-1a over the bytes (no length prefix, unlike str()),
        // from the ring's own offset basis: FNV's 14695981039346656037
        // with the last digit lost. Fixing it would move every fleet's
        // instance placement, so the ring keeps it.
        const std::string node = endpoints[i]->label + "#" + std::to_string(v);
        mwc::svc::Fnv1a h(1469598103934665603ull);
        h.bytes(node.data(), node.size());
        ring_.emplace(h.value(), i);
      }
    single_ = endpoints.size() <= 1;
  }

  std::size_t pick(std::uint64_t key) const {
    if (single_ || ring_.empty()) return 0;
    std::uint64_t state = key;
    auto it = ring_.lower_bound(mwc::splitmix64(state));
    if (it == ring_.end()) it = ring_.begin();
    return it->second;
  }

 private:
  std::map<std::uint64_t, std::size_t> ring_;
  bool single_ = true;
};

}  // namespace

int main(int argc, char** argv) {
  mwc::CliArgs args(argc, argv);

  const std::size_t count =
      static_cast<std::size_t>(args.get_int_or("count", 64));
  const std::size_t concurrency =
      static_cast<std::size_t>(args.get_int_or("concurrency", 4));
  const std::size_t pipeline = static_cast<std::size_t>(
      std::max<long long>(1, args.get_int_or("pipeline", 1)));
  const std::size_t warmup =
      static_cast<std::size_t>(args.get_int_or("warmup", 0));
  const double rate = args.get_double_or("rate", 0.0);
  const std::string mode = args.get_or("mode", "mixed");
  const std::size_t distinct = static_cast<std::size_t>(
      args.get_int_or("distinct", mode == "warm" ? 1 : 8));
  const std::uint64_t base_seed =
      static_cast<std::uint64_t>(args.get_int_or("seed", 1));
  if (mode != "warm" && mode != "cold" && mode != "mixed") {
    std::fprintf(stderr, "--mode must be warm, cold, or mixed\n");
    return 2;
  }

  // Request template (all requests flow through the typed builders).
  const bool delta_mode = args.get_bool_or("delta", false);
  const bool stream_mode = args.get_bool_or("stream", false);
  if (stream_mode && delta_mode) {
    std::fprintf(stderr, "--stream and --delta are exclusive\n");
    return 2;
  }
  const std::string policy = args.get_or("policy", "MinTotalDistance");
  const std::size_t n = static_cast<std::size_t>(args.get_int_or("n", 200));
  const std::size_t q = static_cast<std::size_t>(args.get_int_or("q", 5));
  const double field_side = args.get_double_or("field", 1000.0);
  const double horizon = args.get_double_or("horizon", 1000.0);
  const double deadline_ms = args.get_double_or("deadline-ms", 0.0);
  const std::string trace_prefix = args.get_or("trace-id-prefix", "");
  const auto trace_for = [&](const std::string& id) {
    return trace_prefix.empty() ? std::string() : trace_prefix + "-" + id;
  };
  const auto full_request = [&](const std::string& id,
                                std::uint64_t topology_seed) {
    mwc::svc::RequestBuilder builder(id);
    builder.policy(policy)
        .preset(n, q, field_side, topology_seed)
        .cycle_model({}, base_seed)
        .horizon(horizon)
        .deadline_ms(deadline_ms);
    if (!trace_prefix.empty()) builder.trace_id(trace_for(id));
    return builder.to_json_line();
  };
  const auto instance_for = [&](std::size_t i) -> std::uint64_t {
    return mode == "cold" ? i : (mode == "warm" ? 0 : i % distinct);
  };

  std::vector<std::unique_ptr<Endpoint>> endpoints;
  const std::string connect = args.get_or("connect", "");
  if (!connect.empty()) {
    std::size_t start_pos = 0;
    for (;;) {
      const std::size_t comma = connect.find(',', start_pos);
      const std::string hostport =
          connect.substr(start_pos, comma == std::string::npos
                                        ? std::string::npos
                                        : comma - start_pos);
      if (!hostport.empty()) {
        auto ep = std::make_unique<Endpoint>();
        ep->label = hostport;
        if (!connect_tcp(ep->transport, hostport)) return 1;
        endpoints.push_back(std::move(ep));
      }
      if (comma == std::string::npos) break;
      start_pos = comma + 1;
    }
    if (endpoints.empty()) {
      std::fprintf(stderr, "--connect wants HOST:PORT[,HOST:PORT...]\n");
      return 1;
    }
  } else {
    const std::string server =
        args.get_or("server", dirname_of(args.program()) + "/mwcd");
    std::vector<std::string> child_argv{server};
    for (const char* flag :
         {"queue-depth", "threads", "cache-capacity", "cache-shards",
          "cache-snapshot", "metrics-out", "trace-out"}) {
      if (const auto v = args.get(flag))
        child_argv.push_back("--" + std::string(flag) + "=" + *v);
    }
    auto ep = std::make_unique<Endpoint>();
    ep->label = "child";
    if (!spawn_child(ep->transport, child_argv)) return 1;
    endpoints.push_back(std::move(ep));
  }
  const Router router(endpoints);

  Tally tally;
  mwc::obs::Registry local;
  const std::vector<double> latency_buckets{
      0.05, 0.1,  0.25,  0.5,   1.0,    2.5,    5.0,    10.0,   25.0,
      50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0};
  mwc::obs::Histogram& latency =
      local.histogram("loadgen.latency_ms", latency_buckets);
  // Server-side stage breakdown, fed from the "t" echo on responses that
  // carry a trace id (--trace-id-prefix, or any v2 delta response).
  std::array<mwc::obs::Histogram*, 4> stage_hists{};
  for (std::size_t k = 0; k < kStageKeys.size(); ++k) {
    stage_hists[k] = &local.histogram(
        std::string("loadgen.stage.") + kStageKeys[k], latency_buckets);
  }
  StreamState stream_state;
  StreamState* const stream_ptr = stream_mode ? &stream_state : nullptr;
  std::vector<std::thread> readers;
  readers.reserve(endpoints.size());
  for (auto& ep : endpoints) {
    Endpoint* e = ep.get();
    readers.emplace_back([e, &tally, &latency, &stage_hists, stream_ptr] {
      reader_loop(e->transport.read_fd, tally, latency, stage_hists,
                  stream_ptr);
      e->transport.read_fd = -1;  // reader closed it
    });
  }

  const auto outstanding = [&tally] {
    std::lock_guard<std::mutex> lock(tally.mutex);
    return tally.sent.size();
  };
  const auto write_all = [](int fd, const std::string& data) {
    std::size_t off = 0;
    while (off < data.size()) {
      const ssize_t put = ::write(fd, data.data() + off, data.size() - off);
      if (put < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      off += static_cast<std::size_t>(put);
    }
    return true;
  };
  std::size_t buffered = 0;  // requests batched but not yet written
  // Stamps every batched id "sent now" and pushes the whole batch in one
  // write(): DEPTH pipelined requests reach the daemon back-to-back.
  const auto flush_endpoint = [&](Endpoint& ep) {
    if (ep.batch.empty()) return true;
    {
      std::lock_guard<std::mutex> lock(tally.mutex);
      const auto now = Clock::now();
      for (auto& id : ep.batch_ids) tally.sent.emplace(std::move(id), now);
    }
    buffered -= ep.batch_ids.size();
    ep.batch_ids.clear();
    std::string data = std::move(ep.batch);
    ep.batch.clear();
    if (!write_all(ep.transport.write_fd, data)) {
      std::fprintf(stderr, "short write to server: %s\n",
                   std::strerror(errno));
      return false;
    }
    return true;
  };

  // ---- Streaming-session mode -------------------------------------
  // One session, one connection: solve a calm base plan, open a stream
  // on its fingerprint, feed observed discharge rates (with a regional
  // storm held active from --surge-at on), collect the server's pushed
  // replans, and replay both arms client-side.
  if (stream_mode) {
    if (connect.empty() || endpoints.size() != 1) {
      std::fprintf(stderr,
                   "--stream requires --connect with exactly one endpoint "
                   "(an mwcd started with --port and --sessions)\n");
      return 2;
    }
    const bool surge = args.get_bool_or("surge", false);
    const std::size_t steps =
        static_cast<std::size_t>(args.get_int_or("steps", 16));
    const double step_dt = args.get_double_or("step-dt", 1.0);
    const std::size_t surge_at =
        static_cast<std::size_t>(args.get_int_or("surge-at", 10));
    const double travel_speed = args.get_double_or("speed", 1000.0);
    mwc::wsn::StormConfig storm_config;
    storm_config.tau_min = args.get_double_or("tau-min", 10.0);
    storm_config.tau_max = args.get_double_or("tau-max", 50.0);
    storm_config.stress_factor = args.get_double_or("storm-stress", 4.0);
    storm_config.regional = true;
    storm_config.storm_radius = args.get_double_or("storm-radius", 300.0);

    // Local mirror of the server's preset deployment: the engine derives
    // it from Rng(seed, 0), so client and server agree on every position.
    mwc::wsn::DeploymentConfig deploy;
    deploy.n = n;
    deploy.q = q;
    deploy.field_side = field_side;
    mwc::Rng deploy_rng(base_seed, 0);
    const mwc::wsn::Network network =
        mwc::wsn::deploy_random(deploy, deploy_rng);
    const mwc::wsn::StormCycleProcess storm(network, storm_config,
                                            base_seed);
    // Slot 0 is all-calm by construction: those cycles are the base plan.
    std::vector<double> calm(n);
    for (std::size_t i = 0; i < n; ++i) calm[i] = storm.cycle_at_slot(i, 0);
    // The storm cell the surge holds active: the first slot where one
    // covers a meaningful sensor cluster.
    std::size_t storm_slot = 0;
    if (surge) {
      for (std::size_t s = 1; s < 4096 && storm_slot == 0; ++s)
        if (storm.storm_fraction(s) >= 0.05) storm_slot = s;
      if (storm_slot == 0) {
        std::fprintf(stderr,
                     "no storm slot covers >= 5%% of sensors; try another "
                     "--seed\n");
        return 1;
      }
    }

    Endpoint& ep = *endpoints[0];
    // Solve the calm base plan and learn its fingerprint + tours.
    {
      mwc::svc::RequestBuilder builder("base");
      builder.policy(policy)
          .preset(n, q, field_side, base_seed)
          .cycle_values(calm)
          .horizon(horizon)
          .deadline_ms(deadline_ms);
      if (!trace_prefix.empty()) builder.trace_id(trace_for("base"));
      {
        std::lock_guard<std::mutex> lock(tally.mutex);
        tally.sent.emplace("base", Clock::now());
      }
      if (!write_all(ep.transport.write_fd, builder.to_json_line() + "\n")) {
        std::fprintf(stderr, "short write to server: %s\n",
                     std::strerror(errno));
        return 1;
      }
    }
    std::string base_hex;
    for (int waited = 0; waited < 600 && base_hex.empty(); ++waited) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      std::lock_guard<std::mutex> lock(tally.mutex);
      base_hex = tally.fingerprint;
    }
    if (base_hex.empty() || tally.errors > 0) {
      std::fprintf(stderr, "base solve never answered; cannot stream\n");
      return 1;
    }

    const auto await_ack = [&](const std::string& id) {
      for (int waited = 0; waited < 2000; ++waited) {
        {
          std::lock_guard<std::mutex> lock(stream_state.mutex);
          if (stream_state.failed) return false;
          if (stream_state.acked.count(id) != 0) return true;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      return false;
    };
    const auto send_frame = [&](const std::string& line) {
      {
        std::lock_guard<std::mutex> lock(stream_state.mutex);
        stream_state.last_send = Clock::now();
      }
      return write_all(ep.transport.write_fd, line);
    };

    // Open the session against the solved base (speed pinned so the
    // server's visit-time model matches the client replay below).
    {
      std::string line = "{\"v\":\"";
      line += mwc::svc::kWireVersionStream;
      line += "\",\"op\":\"open\",\"id\":\"open\",\"base\":\"" + base_hex +
              "\",\"speed\":";
      mwc::svc::append_json_number(line, travel_speed);
      line += ",\"charge_time\":0,\"t\":0}\n";
      if (!send_frame(line) || !await_ack("open")) {
        std::lock_guard<std::mutex> lock(stream_state.mutex);
        std::fprintf(stderr, "session open failed: %s\n",
                     stream_state.error.c_str());
        return 1;
      }
    }
    std::uint64_t session_id;
    {
      std::lock_guard<std::mutex> lock(stream_state.mutex);
      session_id = stream_state.session;
    }

    // Observe loop, paced on acks: rates are the ground truth B_i /
    // tau_i(t) of the storm process — calm until the surge arrives, then
    // the held storm cell's stressed cycles.
    std::vector<std::vector<double>> step_rates;
    step_rates.reserve(steps);
    bool stream_failed = false;
    const auto run_start = Clock::now();
    for (std::size_t k = 1; k <= steps && !stream_failed; ++k) {
      const std::size_t slot =
          surge && k >= surge_at ? storm_slot : std::size_t{0};
      std::vector<double> rates(n);
      for (std::size_t i = 0; i < n; ++i)
        rates[i] =
            network.sensor(i).battery_capacity / storm.cycle_at_slot(i, slot);
      const std::string id = "o" + std::to_string(k);
      std::string line = "{\"v\":\"";
      line += mwc::svc::kWireVersionStream;
      line += "\",\"op\":\"observe\",\"id\":\"" + id + "\",\"session\":";
      mwc::svc::append_json_number(line, static_cast<double>(session_id));
      line += ",\"t\":";
      mwc::svc::append_json_number(line,
                                   step_dt * static_cast<double>(k));
      line += ",\"rates\":[";
      for (std::size_t i = 0; i < n; ++i) {
        if (i > 0) line += ',';
        mwc::svc::append_json_number(line, rates[i]);
      }
      line += "]}\n";
      step_rates.push_back(std::move(rates));
      stream_failed = !send_frame(line) || !await_ack(id);
    }
    // Let a replan triggered by the last observe finish and push.
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    {
      std::string line = "{\"v\":\"";
      line += mwc::svc::kWireVersionStream;
      line += "\",\"op\":\"close\",\"id\":\"bye\",\"session\":";
      mwc::svc::append_json_number(line, static_cast<double>(session_id));
      line += "}\n";
      if (!send_frame(line) || !await_ack("bye")) stream_failed = true;
    }
    ep.transport.close_write();
    for (auto& t : readers) t.join();
    const double elapsed_s =
        std::chrono::duration<double>(Clock::now() - run_start).count();

    // Replay both arms over the identical discharge trajectory.
    std::vector<StreamPush> pushes;
    std::size_t observes, at_risk_total, server_dead;
    {
      std::lock_guard<std::mutex> lock(stream_state.mutex);
      pushes = stream_state.pushes;
      observes = stream_state.observes;
      at_risk_total = stream_state.at_risk_total;
      server_dead = stream_state.server_dead;
      if (stream_state.failed && !stream_state.error.empty())
        std::fprintf(stderr, "stream error: %s\n",
                     stream_state.error.c_str());
      stream_failed = stream_failed || stream_state.failed;
    }
    StreamPush base_event;
    base_event.t = 0.0;
    {
      std::lock_guard<std::mutex> lock(stream_state.mutex);
      base_event.plan = stream_state.base_plan;
    }
    std::vector<StreamPush> static_events{base_event};
    std::vector<StreamPush> streamed_events{base_event};
    streamed_events.insert(streamed_events.end(), pushes.begin(),
                           pushes.end());
    std::stable_sort(streamed_events.begin(), streamed_events.end(),
                     [](const StreamPush& a, const StreamPush& b) {
                       return a.t < b.t;
                     });
    const std::size_t deaths_static = replay_deaths(
        network, step_rates, step_dt, static_events, travel_speed, 0.0);
    const std::size_t deaths_stream = replay_deaths(
        network, step_rates, step_dt, streamed_events, travel_speed, 0.0);
    const long long saved = static_cast<long long>(deaths_static) -
                            static_cast<long long>(deaths_stream);

    std::vector<double> replan_ms, apply_ms;
    for (const StreamPush& push : pushes) {
      replan_ms.push_back(push.replan_ms);
      apply_ms.push_back(push.apply_ms);
    }
    std::sort(replan_ms.begin(), replan_ms.end());
    std::sort(apply_ms.begin(), apply_ms.end());
    // No pushes: report 0 rather than a quantile of nothing.
    const bool pushed = !pushes.empty();
    const double replan_p50 =
        pushed ? mwc::quantile_sorted(replan_ms, 0.50) : 0.0;
    const double replan_p95 =
        pushed ? mwc::quantile_sorted(replan_ms, 0.95) : 0.0;
    const double apply_p50 =
        pushed ? mwc::quantile_sorted(apply_ms, 0.50) : 0.0;
    const double apply_p95 =
        pushed ? mwc::quantile_sorted(apply_ms, 0.95) : 0.0;
    std::size_t storm_sensors = 0;
    if (surge)
      for (std::size_t i = 0; i < n; ++i)
        storm_sensors +=
            static_cast<std::size_t>(storm.storming(i, storm_slot));

    std::printf("mode=stream session=%llu observes=%zu/%zu pushes=%zu "
                "at_risk_flags=%zu server_dead=%zu elapsed %.3f s\n",
                static_cast<unsigned long long>(session_id), observes,
                steps, pushes.size(), at_risk_total, server_dead,
                elapsed_s);
    if (surge) {
      std::printf("surge: storm slot %zu covers %zu/%zu sensors "
                  "(stress x%.1f from t=%.1f)\n",
                  storm_slot, storm_sensors, n,
                  storm_config.stress_factor,
                  step_dt * static_cast<double>(surge_at));
      std::printf("surge summary:          deaths\n");
      std::printf("  static base plan      %6zu\n", deaths_static);
      std::printf("  streamed replans      %6zu\n", deaths_stream);
      std::printf("  sensors saved         %6lld\n", saved);
      std::printf(
          "replan ms (server): p50 %.3f  p95 %.3f   push->apply ms: "
          "p50 %.3f  p95 %.3f\n",
          replan_p50, replan_p95, apply_p50, apply_p95);
    }

    if (const auto json_path = args.get("json")) {
      mwc::svc::Json doc = mwc::svc::Json::object();
      doc.set("mode", mwc::svc::Json(std::string("stream")));
      doc.set("n", mwc::svc::Json(n));
      doc.set("q", mwc::svc::Json(q));
      doc.set("policy", mwc::svc::Json(policy));
      doc.set("steps", mwc::svc::Json(steps));
      doc.set("step_dt", mwc::svc::Json(step_dt));
      doc.set("observes", mwc::svc::Json(observes));
      doc.set("pushes", mwc::svc::Json(pushes.size()));
      doc.set("at_risk_flags", mwc::svc::Json(at_risk_total));
      doc.set("elapsed_s", mwc::svc::Json(elapsed_s));
      doc.set("replan_ms_p50", mwc::svc::Json(replan_p50));
      doc.set("replan_ms_p95", mwc::svc::Json(replan_p95));
      doc.set("push_apply_ms_p50", mwc::svc::Json(apply_p50));
      doc.set("push_apply_ms_p95", mwc::svc::Json(apply_p95));
      if (surge) {
        mwc::svc::Json surge_doc = mwc::svc::Json::object();
        surge_doc.set("surge_at", mwc::svc::Json(surge_at));
        surge_doc.set("storm_slot", mwc::svc::Json(storm_slot));
        surge_doc.set("storm_sensors", mwc::svc::Json(storm_sensors));
        surge_doc.set("stress", mwc::svc::Json(storm_config.stress_factor));
        surge_doc.set("deaths_static", mwc::svc::Json(deaths_static));
        surge_doc.set("deaths_stream", mwc::svc::Json(deaths_stream));
        surge_doc.set("sensors_saved",
                      mwc::svc::Json(static_cast<double>(saved)));
        doc.set("surge", std::move(surge_doc));
      }
      std::FILE* f = std::fopen(json_path->c_str(), "w");
      if (f == nullptr) {
        std::perror("fopen --json");
        return 1;
      }
      const std::string text = doc.dump() + "\n";
      std::fwrite(text.data(), 1, text.size(), f);
      std::fclose(f);
    }
    const bool failed = stream_failed || session_id == 0 ||
                        tally.errors > 0 || (surge && pushes.empty());
    return failed && args.get_bool_or("strict", true) ? 1 : 0;
  }

  // Priming pass: same instance mix and routing as the measured loop,
  // awaited before the clock starts and excluded from every statistic.
  if (warmup > 0 && !delta_mode) {
    for (std::size_t j = 0; j < warmup; ++j) {
      const std::string id = "w" + std::to_string(j);
      const std::uint64_t seed = base_seed + instance_for(j);
      Endpoint& ep = *endpoints[router.pick(seed)];
      {
        std::lock_guard<std::mutex> lock(tally.mutex);
        tally.warmup.insert(id);
      }
      if (!write_all(ep.transport.write_fd, full_request(id, seed) + "\n"))
        return 1;
    }
    for (int waited = 0; waited < 6000; ++waited) {
      {
        std::lock_guard<std::mutex> lock(tally.mutex);
        if (tally.warmup.empty()) break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }

  // Delta mode solves one base instance up front; the patch stream can
  // only be built once the reader has seen its fingerprint.
  std::uint64_t base_fingerprint = 0;
  Endpoint& delta_endpoint = *endpoints[router.pick(base_seed)];
  if (delta_mode) {
    const std::string line = full_request("base", base_seed) + "\n";
    {
      std::lock_guard<std::mutex> lock(tally.mutex);
      tally.sent.emplace("base", Clock::now());
    }
    if (!write_all(delta_endpoint.transport.write_fd, line)) {
      std::fprintf(stderr, "short write to server: %s\n",
                   std::strerror(errno));
      return 1;
    }
    std::string hex;
    for (int waited = 0; waited < 600 && hex.empty(); ++waited) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      std::lock_guard<std::mutex> lock(tally.mutex);
      hex = tally.fingerprint;
    }
    if (hex.empty()) {
      std::fprintf(stderr, "base solve never answered; cannot send deltas\n");
      return 1;
    }
    base_fingerprint = std::strtoull(hex.c_str(), nullptr, 16);
  }

  // Closed-loop window: at least the pipeline depth, else a deep batch
  // could never fill.
  const std::size_t window = std::max(concurrency, pipeline);
  bool write_failed = false;
  const auto start = Clock::now();
  for (std::size_t i = 0; i < count && !write_failed; ++i) {
    if (rate > 0.0) {
      // Open loop: fixed send schedule, independent of completions.
      const auto due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(
                          static_cast<double>(i) / rate));
      // Everything batched so far is already due: release partial
      // batches before sleeping so --pipeline cannot hold paced
      // requests past their slot (batching then only coalesces sends
      // when the sender is behind schedule).
      if (buffered > 0 && Clock::now() < due) {
        for (auto& ep : endpoints)
          if (!flush_endpoint(*ep)) write_failed = true;
        if (write_failed) break;
      }
      std::this_thread::sleep_until(due);
    } else {
      while (!write_failed && outstanding() + buffered >= window) {
        // The window can fill while every per-endpoint batch is still
        // short of the pipeline depth (requests split across daemons);
        // release the partial batches so responses can drain it.
        for (auto& ep : endpoints)
          if (buffered > 0 && !flush_endpoint(*ep)) write_failed = true;
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      if (write_failed) break;
    }
    std::string id;
    std::string line;
    std::uint64_t route_key;
    if (delta_mode) {
      // One sensor nudged per request; each distinct patch derives (and
      // caches) a new plan against the same base fingerprint — which
      // lives on exactly one daemon, so deltas route with the base.
      id = "d" + std::to_string(i);
      const double di = static_cast<double>(i);
      mwc::svc::DeltaBuilder builder(id, base_fingerprint);
      builder
          .move_sensor(i % n, {std::fmod(37.0 * di + 11.0, field_side),
                               std::fmod(53.0 * di + 29.0, field_side)})
          .deadline_ms(deadline_ms);
      if (!trace_prefix.empty()) builder.trace_id(trace_for(id));
      line = builder.to_json_line() + "\n";
      route_key = base_seed;
    } else {
      id = "r" + std::to_string(i);
      const std::uint64_t seed = base_seed + instance_for(i);
      line = full_request(id, seed) + "\n";
      route_key = seed;
    }
    Endpoint& ep = *endpoints[router.pick(route_key)];
    ep.batch += line;
    ep.batch_ids.push_back(std::move(id));
    ++ep.routed;
    ++buffered;
    if (ep.batch_ids.size() >= pipeline) write_failed = !flush_endpoint(ep);
  }
  for (auto& ep : endpoints)
    if (!flush_endpoint(*ep)) write_failed = true;
  for (auto& ep : endpoints)
    ep->transport.close_write();  // EOF -> daemon answers and half-closes
  for (auto& t : readers) t.join();
  const double elapsed_s =
      std::chrono::duration<double>(Clock::now() - start).count();

  const auto snapshot = local.snapshot();
  const auto& hist = snapshot.histograms.at("loadgen.latency_ms");
  const double p50 = hist.quantile(0.50);
  const double p95 = hist.quantile(0.95);
  const double p99 = hist.quantile(0.99);
  const double mean =
      hist.count > 0 ? hist.sum / static_cast<double>(hist.count) : 0.0;
  const double rps =
      elapsed_s > 0.0 ? static_cast<double>(hist.count) / elapsed_s : 0.0;

  std::printf("mode=%s count=%zu answered=%llu ok=%zu cached=%zu "
              "derived=%zu errors=%zu\n",
              delta_mode ? "delta" : mode.c_str(), count,
              static_cast<unsigned long long>(hist.count), tally.ok,
              tally.cached, tally.derived, tally.errors);
  if (pipeline > 1 || endpoints.size() > 1) {
    std::printf("pipeline=%zu endpoints=%zu routed=[", pipeline,
                endpoints.size());
    for (std::size_t e = 0; e < endpoints.size(); ++e)
      std::printf("%s%zu", e == 0 ? "" : ", ", endpoints[e]->routed);
    std::printf("]\n");
  }
  std::printf("elapsed %.3f s  throughput %.1f req/s\n", elapsed_s, rps);
  std::printf("latency ms: mean %.3f  p50 %.3f  p95 %.3f  p99 %.3f  "
              "min %.3f  max %.3f\n",
              mean, p50, p95, p99, hist.min, hist.max);
  for (const auto& [code, n] : tally.errors_by_code)
    std::printf("  error %s: %zu\n", code.c_str(), n);

  // Per-run stage-latency table (server-side breakdown); rows only exist
  // when responses echoed timings.
  bool any_stages = false;
  for (const char* key : kStageKeys) {
    const auto& h = snapshot.histograms.at(std::string("loadgen.stage.") + key);
    if (h.count > 0) any_stages = true;
  }
  if (any_stages) {
    std::printf("server stage ms:   %8s %8s %8s %8s %8s\n", "mean", "p50",
                "p95", "p99", "max");
    for (const char* key : kStageKeys) {
      const auto& h =
          snapshot.histograms.at(std::string("loadgen.stage.") + key);
      const double stage_mean =
          h.count > 0 ? h.sum / static_cast<double>(h.count) : 0.0;
      std::printf("  %-16s %8.3f %8.3f %8.3f %8.3f %8.3f\n", key, stage_mean,
                  h.quantile(0.50), h.quantile(0.95), h.quantile(0.99),
                  h.max);
    }
  }

  if (const auto json_path = args.get("json")) {
    mwc::svc::Json doc = mwc::svc::Json::object();
    doc.set("mode", mwc::svc::Json(delta_mode ? std::string("delta") : mode));
    doc.set("count", mwc::svc::Json(count));
    doc.set("answered", mwc::svc::Json(static_cast<double>(hist.count)));
    doc.set("ok", mwc::svc::Json(tally.ok));
    doc.set("cached", mwc::svc::Json(tally.cached));
    doc.set("derived", mwc::svc::Json(tally.derived));
    doc.set("errors", mwc::svc::Json(tally.errors));
    doc.set("n", mwc::svc::Json(n));
    doc.set("q", mwc::svc::Json(q));
    doc.set("policy", mwc::svc::Json(policy));
    doc.set("concurrency", mwc::svc::Json(concurrency));
    doc.set("pipeline", mwc::svc::Json(pipeline));
    doc.set("warmup", mwc::svc::Json(warmup));
    doc.set("endpoints", mwc::svc::Json(endpoints.size()));
    doc.set("rate", mwc::svc::Json(rate));
    doc.set("elapsed_s", mwc::svc::Json(elapsed_s));
    doc.set("req_per_s", mwc::svc::Json(rps));
    doc.set("latency_ms_mean", mwc::svc::Json(mean));
    doc.set("latency_ms_p50", mwc::svc::Json(p50));
    doc.set("latency_ms_p95", mwc::svc::Json(p95));
    doc.set("latency_ms_p99", mwc::svc::Json(p99));
    if (any_stages) {
      mwc::svc::Json stages_doc = mwc::svc::Json::object();
      for (const char* key : kStageKeys) {
        const auto& h =
            snapshot.histograms.at(std::string("loadgen.stage.") + key);
        mwc::svc::Json s = mwc::svc::Json::object();
        s.set("count", mwc::svc::Json(static_cast<double>(h.count)));
        s.set("mean",
              mwc::svc::Json(h.count > 0
                                 ? h.sum / static_cast<double>(h.count)
                                 : 0.0));
        s.set("p50", mwc::svc::Json(h.quantile(0.50)));
        s.set("p95", mwc::svc::Json(h.quantile(0.95)));
        s.set("p99", mwc::svc::Json(h.quantile(0.99)));
        s.set("max", mwc::svc::Json(h.max));
        stages_doc.set(key, std::move(s));
      }
      doc.set("stage_ms", std::move(stages_doc));
    }
    std::FILE* f = std::fopen(json_path->c_str(), "w");
    if (f == nullptr) {
      std::perror("fopen --json");
      return 1;
    }
    const std::string text = doc.dump() + "\n";
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
  }
  const bool failed =
      tally.errors > 0 || hist.count == 0 || write_failed;
  return failed && args.get_bool_or("strict", true) ? 1 : 0;
}
