// mwcd — the mwc::svc scheduling daemon.
//
// Speaks the mwc.svc.v1/v2 JSONL wire protocol (one request per line, one
// response per line, matched by id; see docs/SERVICE.md) plus the
// mwc.svc.admin.v1 introspection family ({"admin":"statusz|metrics|
// tracez|config"}, see docs/OBSERVABILITY.md) on the same transport.
// One serve loop (svc::NetServer's epoll event loop) behind two
// transports:
//
//   * stdin/stdout (default): the pair is served as one connection —
//     the mode mwc_loadgen and the CI smoke job drive through a pipe;
//     EOF on stdin drains the work and exits 0;
//   * TCP (--port N): every connection on 127.0.0.1:N.
//
// Either way clients may pipeline requests back-to-back and always get
// responses in request order, admin and stream frames included.
// SIGINT/SIGTERM stop the loop, flush every response owed (bounded by
// --drain-timeout-ms), and drain; the --metrics-out / --trace-out
// sidecars are written on *every* graceful exit path, signals included.
// With --cache-snapshot the daemon reloads its PlanCache from PATH at
// startup (ignoring a missing or invalid file) and rewrites PATH after
// draining, so a restarted daemon answers repeat requests warm.
//
// Flags:
//   --queue-depth N          max in-flight requests before queue_full (64)
//   --threads N              solver worker threads (0 = hardware)
//   --cache-capacity N       PlanCache capacity in plans; 0 disables (128)
//   --cache-shards N         PlanCache shard count (8)
//   --cache-snapshot FILE    load the plan cache from FILE at start and
//                            save it back after draining
//   --port N                 serve TCP on 127.0.0.1:N instead of stdio
//   --sessions               enable mwc.svc.stream.v1 streaming sessions
//                            (without it stream frames get the structured
//                            sessions_disabled error)
//   --max-sessions N         live session cap across connections (64)
//   --session-gamma G        EWMA weight of new rate observations (0.3)
//   --session-margin M       deadline-trigger hysteresis fraction (0.1)
//   --session-speed V        charger speed, field units / cycle unit (1000)
//   --session-charge-time S  per-visit charge time in cycle units (0)
//   --session-interval S     min cycle-time between replans/session (0)
//   --idle-timeout-ms MS     close connections idle for MS (0 = never); on
//                            stdio that ends the daemon
//   --drain-timeout-ms MS    on shutdown, force-close connections whose
//                            output cannot flush after MS (5000; 0 = wait)
//   --max-conns N            concurrent TCP connection cap (1024)
//   --metrics-out FILE       write the global obs registry (mwc.metrics.v1
//                            JSON) after draining
//   --trace-out FILE         enable span collection, write a Chrome trace
//   --access-log FILE        append one JSONL line per completed request
//   --access-log-slow-ms MS  only log requests slower than MS (0 = all)
#include <atomic>
#include <csignal>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>

#include <unistd.h>

#include "obs/obs.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "svc/access_log.hpp"
#include "svc/admin.hpp"
#include "svc/event_loop.hpp"
#include "svc/json.hpp"
#include "svc/server.hpp"
#include "svc/session.hpp"
#include "svc/snapshot.hpp"
#include "util/cli.hpp"

namespace {

using mwc::svc::AdminHandler;
using mwc::svc::NetServer;
using mwc::svc::NetServerOptions;
using mwc::svc::NetStats;
using mwc::svc::Server;
using mwc::svc::SessionManager;
using mwc::svc::SessionOptions;
using mwc::svc::StreamStats;

// SIGINT/SIGTERM call NetServer::request_stop (async-signal-safe: an
// atomic flag plus an eventfd write) — the loop flushes owed responses,
// closes every connection, and returns. No thread ever blocks in read()
// past the signal.
std::atomic<NetServer*> g_net_server{nullptr};

void stop_net_server(int) {
  NetServer* net = g_net_server.load(std::memory_order_relaxed);
  if (net != nullptr) net->request_stop();
}

}  // namespace

int main(int argc, char** argv) {
  mwc::CliArgs args(argc, argv);
  const double start_us = mwc::obs::now_us();

  mwc::svc::ServerOptions options;
  options.queue_capacity =
      static_cast<std::size_t>(args.get_int_or("queue-depth", 64));
  options.threads = static_cast<std::size_t>(args.get_int_or("threads", 0));
  options.cache_capacity =
      static_cast<std::size_t>(args.get_int_or("cache-capacity", 128));
  options.cache_shards =
      static_cast<std::size_t>(args.get_int_or("cache-shards", 8));
  const std::string metrics_path = args.get_or("metrics-out", "");
  const std::string trace_path = args.get_or("trace-out", "");
  const std::string access_log_path = args.get_or("access-log", "");
  const double access_log_slow_ms =
      args.get_double_or("access-log-slow-ms", 0.0);
  const std::string snapshot_path = args.get_or("cache-snapshot", "");
  const int port = static_cast<int>(args.get_int_or("port", 0));
  NetServerOptions net_options;
  net_options.port = port;
  net_options.idle_timeout_ms = args.get_double_or("idle-timeout-ms", 0.0);
  net_options.drain_timeout_ms =
      args.get_double_or("drain-timeout-ms", 5000.0);
  net_options.max_connections =
      static_cast<std::size_t>(args.get_int_or("max-conns", 1024));
  const bool sessions_enabled = args.get_bool_or("sessions", false);
  SessionOptions session_options;
  session_options.max_sessions =
      static_cast<std::size_t>(args.get_int_or("max-sessions", 64));
  session_options.gamma = args.get_double_or("session-gamma", 0.3);
  session_options.margin = args.get_double_or("session-margin", 0.1);
  session_options.travel_speed =
      args.get_double_or("session-speed", 1000.0);
  session_options.charge_time =
      args.get_double_or("session-charge-time", 0.0);
  session_options.min_replan_interval =
      args.get_double_or("session-interval", 0.0);
  if (!trace_path.empty()) mwc::obs::set_trace_enabled(true);

  std::unique_ptr<mwc::svc::AccessLog> access_log;
  if (!access_log_path.empty()) {
    access_log = std::make_unique<mwc::svc::AccessLog>(access_log_path,
                                                       access_log_slow_ms);
    if (!access_log->ok()) {
      std::fprintf(stderr, "mwcd: cannot open access log %s\n",
                   access_log_path.c_str());
      return 1;
    }
    options.access_log = access_log.get();
  }

  int rc = 0;
  {
    Server server(options);
    // Declared after `server` so it is destroyed first (its destructor
    // drains the server, so no replan callback outlives the session
    // table); the NetServer below dies before either.
    std::unique_ptr<SessionManager> sessions;
    if (sessions_enabled)
      sessions = std::make_unique<SessionManager>(server, session_options);

    if (!snapshot_path.empty() && options.cache_capacity > 0) {
      std::string error;
      const std::size_t restored =
          mwc::svc::load_cache_snapshot(server.cache(), snapshot_path,
                                        &error);
      if (!error.empty())
        std::fprintf(stderr, "mwcd: cache snapshot %s rejected: %s\n",
                     snapshot_path.c_str(), error.c_str());
      else if (restored > 0)
        std::fprintf(stderr, "mwcd: cache snapshot: restored %zu plans\n",
                     restored);
    }

    // statusz_extra must be wired before AdminHandler copies AdminInfo,
    // and the NetServer needs the AdminHandler: the hook reads the
    // server through a pointer set once it exists. Admin requests run
    // on the loop thread, so the hook only ever sees it set.
    NetServer* net_ptr = nullptr;
    SessionManager* const sessions_ptr = sessions.get();
    mwc::svc::AdminInfo info;
    info.build = std::string("mwcd libmwc/1.0.0 (obs ") +
                 (MWC_OBS_ENABLED != 0 ? "on" : "off") + ")";
    info.transport = port > 0 ? "tcp" : "stdio";
    info.start_us = start_us;
    info.metrics_out = metrics_path;
    info.trace_out = trace_path;
    info.statusz_extra = [&net_ptr, sessions_ptr](mwc::svc::Json& s) {
      const NetStats st = net_ptr->stats();
      mwc::svc::Json n = mwc::svc::Json::object();
      n.set("connections", mwc::svc::Json(st.connections));
      n.set("accepted", mwc::svc::Json(st.accepted));
      n.set("closed", mwc::svc::Json(st.closed));
      n.set("requests", mwc::svc::Json(st.requests));
      n.set("responses", mwc::svc::Json(st.responses));
      n.set("bytes_read", mwc::svc::Json(st.bytes_read));
      n.set("bytes_written", mwc::svc::Json(st.bytes_written));
      n.set("wakeups", mwc::svc::Json(st.wakeups));
      n.set("idle_closed", mwc::svc::Json(st.idle_closed));
      n.set("overflow_closed", mwc::svc::Json(st.overflow_closed));
      n.set("drain_dropped", mwc::svc::Json(st.drain_dropped));
      n.set("pushes", mwc::svc::Json(st.pushes));
      n.set("pushes_dropped", mwc::svc::Json(st.pushes_dropped));
      s.set("net", std::move(n));
      SessionManager* hub = sessions_ptr;
      if (hub == nullptr) return;
      const StreamStats ss = hub->stats();
      mwc::svc::Json j = mwc::svc::Json::object();
      j.set("active", mwc::svc::Json(ss.active));
      j.set("opened", mwc::svc::Json(ss.opened));
      j.set("closed", mwc::svc::Json(ss.closed));
      j.set("observes", mwc::svc::Json(ss.observes));
      j.set("rejected", mwc::svc::Json(ss.rejected));
      j.set("replans", mwc::svc::Json(ss.replans));
      j.set("replan_failures", mwc::svc::Json(ss.replan_failures));
      j.set("pushes", mwc::svc::Json(ss.pushes));
      j.set("at_risk", mwc::svc::Json(ss.at_risk));
      j.set("deaths", mwc::svc::Json(ss.deaths));
      j.set("last_replan_ms", mwc::svc::Json(ss.last_replan_ms));
      s.set("sessions", std::move(j));
    };
    AdminHandler admin(server, info);
    NetServer net(server, &admin, net_options, sessions.get());
    net_ptr = &net;
    if (port > 0 ? net.start() : net.start_fds(STDIN_FILENO, STDOUT_FILENO)) {
      g_net_server.store(&net);
      std::signal(SIGINT, stop_net_server);
      std::signal(SIGTERM, stop_net_server);
      if (port > 0)
        std::fprintf(stderr, "mwcd: listening on 127.0.0.1:%d (epoll)\n",
                     net.port());
      net.run();
      g_net_server.store(nullptr);
    } else {
      rc = 1;
    }
    server.shutdown();

    // Snapshot after the drain (cache fully settled) but while the
    // server is alive; sidecars below then record the save counters.
    if (!snapshot_path.empty() && options.cache_capacity > 0) {
      const long written =
          mwc::svc::save_cache_snapshot(server.cache(), snapshot_path);
      if (written < 0) {
        std::fprintf(stderr, "mwcd: cannot write cache snapshot %s\n",
                     snapshot_path.c_str());
        rc = rc == 0 ? 1 : rc;
      }
    }
  }

  // The log is asynchronous; tear it down before the sidecars so that
  // once metrics.json exists, every access-log line is on disk too.
  access_log.reset();

  if (!metrics_path.empty() &&
      !mwc::obs::Registry::global().write_json(metrics_path)) {
    std::fprintf(stderr, "mwcd: cannot write %s\n", metrics_path.c_str());
    rc = rc == 0 ? 1 : rc;
  }
  if (!trace_path.empty() && !mwc::obs::write_chrome_trace(trace_path)) {
    std::fprintf(stderr, "mwcd: cannot write %s\n", trace_path.c_str());
    rc = rc == 0 ? 1 : rc;
  }
  return rc;
}
