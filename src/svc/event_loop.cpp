#include "svc/event_loop.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <utility>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <pthread.h>
#include <signal.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include "obs/obs.hpp"
#include "svc/wire.hpp"

namespace mwc::svc {

namespace {
using SteadyClock = std::chrono::steady_clock;

// epoll user data: connections register under their token (>= 1).
constexpr std::uint64_t kListenToken = 0;
constexpr std::uint64_t kWakeToken = ~std::uint64_t{0};

// Per-turn work bound for one connection's input: at most one read
// chunk and at most this many lines (a line can cost a parse and a
// thrown error, so bytes alone do not bound the work).
constexpr std::size_t kReadChunk = 65536;
constexpr std::size_t kLinesPerTurn = 256;

}  // namespace

/// Per-connection state. The loop thread owns everything except `done`
/// and `closed`, which workers touch under `mutex`.
struct NetServer::Conn {
  int in_fd = -1;   ///< -1 once closed
  int out_fd = -1;  ///< equals in_fd for a socket
  std::uint64_t token = 0;  ///< stable id handed to the StreamHub
  /// An accepted socket (closed with the connection); false for the
  /// start_fds() pair, handed back open with `in_flags`/`out_flags`.
  bool owns_fds = true;
  int in_flags = 0;
  int out_flags = 0;
  /// On `more_input_`: input may be waiting that no epoll edge will
  /// announce (the read budget ran out, or in_fd is a regular file).
  bool input_pending = false;
  std::string in;   ///< input not yet split into lines
  std::size_t scanned = 0;  ///< prefix of `in` known to hold no newline
  std::string out;  ///< in-order response bytes awaiting the socket
  std::size_t out_pos = 0;  ///< flushed prefix of `out`
  /// Responses completed out of order, parked until every earlier
  /// sequence number has flushed.
  std::map<std::uint64_t, std::string> ready;
  std::size_t ready_bytes = 0;   ///< total size of `ready`
  std::uint64_t next_seq = 0;    ///< sequence of the next inbound line
  std::uint64_t next_flush = 0;  ///< sequence owed to the client next
  bool half_closed = false;      ///< peer sent EOF; flush then close
  bool epollout = false;         ///< EPOLLOUT currently armed
  bool streaming = false;  ///< holds a live stream session (loop thread)
  SteadyClock::time_point last_activity;

  std::mutex mutex;
  bool closed = false;
  std::vector<std::pair<std::uint64_t, std::string>> done;
  /// Server-initiated lines (no sequence number); drained into `out`
  /// between in-order flushes.
  std::vector<std::string> pushed;

  /// Leaves epoll and gives the fds back (see `owns_fds`).
  void release(int epoll_fd) {
    if (in_fd < 0) return;
    ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, in_fd, nullptr);
    if (owns_fds) {
      ::close(in_fd);
    } else {
      ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, out_fd, nullptr);
      ::fcntl(out_fd, F_SETFL, out_flags);
      ::fcntl(in_fd, F_SETFL, in_flags);
    }
    in_fd = out_fd = -1;
  }
};

NetServer::NetServer(Server& server, const AdminHandler* admin,
                     NetServerOptions options, StreamHub* sessions)
    : server_(server),
      admin_(admin),
      options_(std::move(options)),
      sessions_(sessions) {}

NetServer::~NetServer() {
  // Drain the solver first: after shutdown() no worker callback can run,
  // so tearing down connection state below cannot race one.
  server_.shutdown();
  for (auto& [token, conn] : conns_) conn->release(epoll_fd_);
  conns_.clear();
  const int wfd = wake_fd_.exchange(-1);
  if (wfd >= 0) ::close(wfd);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

bool NetServer::init_loop() {
  if (epoll_fd_ >= 0) return true;
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  const int wfd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ < 0 || wfd < 0) {
    std::perror("epoll_create1/eventfd");
    if (wfd >= 0) ::close(wfd);
    return false;
  }
  wake_fd_.store(wfd, std::memory_order_release);
  // Level-triggered on purpose: an unread wake count must keep the loop
  // from blocking (request_stop can fire between drain and wait).
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kWakeToken;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wfd, &ev) < 0) {
    std::perror("epoll_ctl wake");
    return false;
  }
  return true;
}

bool NetServer::start() {
  if (!init_loop()) return false;
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) {
    std::perror("socket");
    return false;
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    std::fprintf(stderr, "bad listen host %s\n", options_.host.c_str());
    return false;
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
          0 ||
      ::listen(listen_fd_, options_.backlog) < 0) {
    std::perror("bind/listen");
    return false;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof bound;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) == 0)
    bound_port_ = ntohs(bound.sin_port);

  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLET;
  ev.data.u64 = kListenToken;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) < 0) {
    std::perror("epoll_ctl listen");
    return false;
  }
  return true;
}

bool NetServer::start_fds(int in_fd, int out_fd) {
  if (!init_loop()) return false;
  auto conn = std::make_shared<Conn>();
  conn->in_fd = in_fd;
  conn->out_fd = out_fd;
  conn->token = next_conn_token_++;
  conn->owns_fds = false;
  // Read both flag words before setting either: fds 0 and 1 often share
  // one open file description (a tty).
  conn->in_flags = ::fcntl(in_fd, F_GETFL);
  conn->out_flags = ::fcntl(out_fd, F_GETFL);
  if (conn->in_flags < 0 || conn->out_flags < 0) {
    std::perror("fcntl");
    return false;
  }
  ::fcntl(in_fd, F_SETFL, conn->in_flags | O_NONBLOCK);
  ::fcntl(out_fd, F_SETFL, conn->out_flags | O_NONBLOCK);
  if (!add_conn(conn)) {
    std::perror("epoll_ctl");
    conn->release(epoll_fd_);
    return false;
  }
  return true;
}

bool NetServer::add_conn(const std::shared_ptr<Conn>& conn) {
  conn->last_activity = SteadyClock::now();
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLRDHUP | EPOLLET;
  ev.data.u64 = conn->token;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conn->in_fd, &ev) < 0) {
    // EPERM: a regular file, always readable and never announced —
    // it starts (and stays until EOF) on the pending-input list.
    if (errno != EPERM) return false;
    mark_input_pending(conn);
  }
  if (conn->out_fd != conn->in_fd) {
    // No interest until a write backs up (set_epollout); EPERM again
    // means a file, whose writes never block.
    ev.events = EPOLLET;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conn->out_fd, &ev);
  }
  conns_.emplace(conn->token, conn);
  accepted_.fetch_add(1, std::memory_order_relaxed);
  MWC_OBS_COUNT("svc.net.accepted");
  MWC_OBS_GAUGE_SET("svc.net.connections",
                    static_cast<double>(conns_.size()));
  return true;
}

void NetServer::request_stop() noexcept {
  stop_requested_.store(true, std::memory_order_release);
  const int fd = wake_fd_.load(std::memory_order_acquire);
  if (fd >= 0) {
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t rc = ::write(fd, &one, sizeof one);
  }
}

void NetServer::wake() noexcept {
  // Coalesce: one pending eventfd count is enough to get the loop
  // through drain_completions(), which picks up everything queued.
  if (wake_pending_.exchange(true, std::memory_order_acq_rel)) return;
  wakeups_.fetch_add(1, std::memory_order_relaxed);
  MWC_OBS_COUNT("svc.net.wakeups");
  const int fd = wake_fd_.load(std::memory_order_acquire);
  if (fd >= 0) {
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t rc = ::write(fd, &one, sizeof one);
  }
}

void NetServer::handle_accept() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN (drained) or listener gone
    }
    if (stopping_ || conns_.size() >= options_.max_connections) {
      ::close(fd);
      if (!stopping_) {
        overflow_closed_.fetch_add(1, std::memory_order_relaxed);
        MWC_OBS_COUNT("svc.net.overflow_closed");
      }
      continue;
    }
    if (options_.tcp_nodelay) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    }
    auto conn = std::make_shared<Conn>();
    conn->in_fd = fd;
    conn->out_fd = fd;
    conn->token = next_conn_token_++;
    if (!add_conn(conn)) ::close(fd);
  }
}

void NetServer::process_line(const std::shared_ptr<Conn>& conn,
                             std::string line) {
  const std::uint64_t seq = conn->next_seq++;
  requests_.fetch_add(1, std::memory_order_relaxed);
  MWC_OBS_COUNT("svc.net.requests");

  // Stream-session frames answer synchronously on the loop thread (the
  // hub's reply takes the frame's sequence slot); servers without a hub
  // reject them with the structured error instead of letting the
  // version string hit parse_any_request as unsupported_version.
  if (is_stream_frame(line)) {
    std::string reply;
    if (sessions_ == nullptr) {
      reply = stream_error_line(stream_frame_id(line),
                                ErrorCode::kSessionsDisabled,
                                "server started without --sessions");
    } else {
      auto push = [this, conn](std::string pushed) {
        return push_line(conn, std::move(pushed));
      };
      bool streaming = conn->streaming;
      reply = sessions_->handle_frame(conn->token, line, std::move(push),
                                      &streaming);
      conn->streaming = streaming;
    }
    park(conn, seq, std::move(reply));
    return;
  }

  // Admin requests answer synchronously on the loop thread but join the
  // sequence stream so pipelined responses stay in request order.
  if (admin_ != nullptr) {
    std::string admin_response;
    if (admin_->try_handle(line, &admin_response)) {
      park(conn, seq, std::move(admin_response));
      return;
    }
  }

  // The callback runs on a solver worker (or inline for synchronous
  // rejections); it serializes there so the loop thread only moves
  // bytes. A connection that died first drops the response.
  auto callback = [this, conn, seq](const Response& response) {
    std::string out_line = to_jsonl(response);
    bool enqueue = false;
    {
      std::lock_guard<std::mutex> lock(conn->mutex);
      if (!conn->closed) {
        conn->done.emplace_back(seq, std::move(out_line));
        enqueue = true;
      }
    }
    if (enqueue) {
      {
        std::lock_guard<std::mutex> lock(completed_mutex_);
        completed_.push_back(conn);
      }
      wake();
    }
  };
  server_.submit_line(line, std::move(callback),
                      conn->owns_fds ? "tcp" : "stdio");
}

std::size_t NetServer::split_lines(const std::shared_ptr<Conn>& conn,
                                   std::size_t lines_left) {
  std::string& in = conn->in;
  std::size_t start = 0;
  std::size_t nl = conn->scanned;
  while (lines_left > 0 && (nl = in.find('\n', nl)) != std::string::npos) {
    std::string line = in.substr(start, nl - start);
    start = ++nl;
    --lines_left;
    while (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || stopping_) continue;  // stop: no new admissions
    process_line(conn, std::move(line));
  }
  in.erase(0, start);
  // Out of lines: the rest is unscanned. Otherwise it holds no newline.
  conn->scanned = lines_left == 0 ? 0 : in.size();
  return lines_left;
}

void NetServer::read_input(const std::shared_ptr<Conn>& conn) {
  // Edge-triggered: read until EAGAIN or EOF, but within one turn's
  // budget (kReadChunk bytes, kLinesPerTurn lines). A connection that
  // used it up waits on the pending-input list for the next turn, and
  // lines it could not take yet stay in `in`; so one peer that writes
  // without pause cannot keep the loop from other connections, from
  // completions or from a stop.
  std::size_t lines_left = split_lines(conn, kLinesPerTurn);
  char buffer[kReadChunk];
  std::size_t budget = sizeof buffer;
  while (lines_left > 0 && budget > 0 && !conn->half_closed) {
    const ssize_t got = ::read(conn->in_fd, buffer, budget);
    if (got < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      close_conn(conn, "read error");
      return;
    }
    if (got == 0) {
      conn->half_closed = true;
      // EOF ends a final unterminated line.
      if (!conn->in.empty()) conn->in.push_back('\n');
    } else {
      bytes_read_.fetch_add(static_cast<std::uint64_t>(got),
                            std::memory_order_relaxed);
      MWC_OBS_COUNT_N("svc.net.bytes_read", static_cast<std::uint64_t>(got));
      conn->in.append(buffer, static_cast<std::size_t>(got));
      conn->last_activity = SteadyClock::now();
      budget -= static_cast<std::size_t>(got);
    }
    // Split per chunk, so the guard bounds one unterminated line, not a
    // whole burst or a whole input file.
    lines_left = split_lines(conn, lines_left);
    if (lines_left > 0 && conn->in.size() > options_.max_buffered_bytes) {
      overflow_closed_.fetch_add(1, std::memory_order_relaxed);
      MWC_OBS_COUNT("svc.net.overflow_closed");
      close_conn(conn, "input overflow");
      return;
    }
  }
  if (lines_left == 0 || budget == 0) mark_input_pending(conn);
  pump(conn);
}

void NetServer::mark_input_pending(const std::shared_ptr<Conn>& conn) {
  if (conn->input_pending) return;
  conn->input_pending = true;
  more_input_.push_back(conn);
}

void NetServer::read_pending_input() {
  // Each connection gets one more turn's budget; read_input() puts it
  // back if that ran out again. A stop drops the list: no new admissions.
  std::vector<std::shared_ptr<Conn>> batch;
  batch.swap(more_input_);
  for (const auto& conn : batch) {
    conn->input_pending = false;
    if (conn->in_fd >= 0 && !stopping_) read_input(conn);
  }
}

void NetServer::park(const std::shared_ptr<Conn>& conn, std::uint64_t seq,
                     std::string line) {
  conn->ready_bytes += line.size();
  conn->ready.emplace(seq, std::move(line));
}

void NetServer::set_epollout(const std::shared_ptr<Conn>& conn, bool on) {
  // A socket carries input interest on the same registration.
  epoll_event ev{};
  ev.events = EPOLLET | (on ? EPOLLOUT : 0u) |
              (conn->out_fd == conn->in_fd ? EPOLLIN | EPOLLRDHUP : 0u);
  ev.data.u64 = conn->token;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->out_fd, &ev) == 0)
    conn->epollout = on;
}

void NetServer::pump(const std::shared_ptr<Conn>& conn) {
  if (conn->in_fd < 0) return;
  {
    std::lock_guard<std::mutex> lock(conn->mutex);
    for (auto& [seq, line] : conn->done) park(conn, seq, std::move(line));
    conn->done.clear();
  }
  // Release responses strictly in request order.
  auto it = conn->ready.begin();
  while (it != conn->ready.end() && it->first == conn->next_flush) {
    conn->out += it->second;
    conn->ready_bytes -= it->second.size();
    it = conn->ready.erase(it);
    ++conn->next_flush;
    responses_.fetch_add(1, std::memory_order_relaxed);
    MWC_OBS_COUNT("svc.net.responses");
  }
  // Server-initiated pushes carry no sequence number: they append after
  // whatever in-order prefix is flushable right now, so they interleave
  // with pipelined responses without perturbing their order (a push
  // never waits on a still-parked earlier response, and the
  // next_flush/next_seq close accounting never sees them).
  {
    std::vector<std::string> pushed;
    {
      std::lock_guard<std::mutex> lock(conn->mutex);
      pushed.swap(conn->pushed);
    }
    for (std::string& line : pushed) conn->out += line;
  }

  while (conn->out_pos < conn->out.size()) {
    // write(), not send(): the output may be a pipe or a file. SIGPIPE
    // is blocked on the loop thread (run()), so a gone reader is EPIPE.
    const ssize_t wrote =
        ::write(conn->out_fd, conn->out.data() + conn->out_pos,
                conn->out.size() - conn->out_pos);
    if (wrote > 0) {
      bytes_written_.fetch_add(static_cast<std::uint64_t>(wrote),
                               std::memory_order_relaxed);
      MWC_OBS_COUNT_N("svc.net.bytes_written",
                      static_cast<std::uint64_t>(wrote));
      conn->out_pos += static_cast<std::size_t>(wrote);
      conn->last_activity = SteadyClock::now();
      continue;
    }
    if (wrote < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!conn->epollout) set_epollout(conn, true);
      break;
    }
    if (wrote < 0 && errno == EINTR) continue;
    close_conn(conn, "write error");
    return;
  }
  // The output guard counts every owed byte the peer has not taken:
  // unflushed output plus responses parked behind an unfinished one.
  if (conn->out.size() - conn->out_pos + conn->ready_bytes >
      options_.max_buffered_bytes) {
    overflow_closed_.fetch_add(1, std::memory_order_relaxed);
    MWC_OBS_COUNT("svc.net.overflow_closed");
    close_conn(conn, "output overflow");
    return;
  }
  if (conn->out_pos == conn->out.size()) {
    conn->out.clear();
    conn->out_pos = 0;
    if (conn->epollout) set_epollout(conn, false);
  } else if (conn->out_pos > (1u << 20)) {
    conn->out.erase(0, conn->out_pos);  // compact a long flushed prefix
    conn->out_pos = 0;
  }

  // Finished: every line answered and flushed, and no more input coming.
  if (((conn->half_closed && conn->in.empty()) || stopping_) &&
      conn->out_pos == conn->out.size() && conn->next_flush == conn->next_seq)
    close_conn(conn, "done");
}

bool NetServer::push_line(const std::shared_ptr<Conn>& conn,
                          std::string line) {
  bool enqueue = false;
  {
    std::lock_guard<std::mutex> lock(conn->mutex);
    if (!conn->closed) {
      conn->pushed.push_back(std::move(line));
      enqueue = true;
    }
  }
  if (!enqueue) {
    pushes_dropped_.fetch_add(1, std::memory_order_relaxed);
    MWC_OBS_COUNT("svc.net.pushes_dropped");
    return false;
  }
  pushes_.fetch_add(1, std::memory_order_relaxed);
  MWC_OBS_COUNT("svc.net.pushes");
  {
    std::lock_guard<std::mutex> lock(completed_mutex_);
    completed_.push_back(conn);
  }
  wake();
  return true;
}

void NetServer::close_conn(const std::shared_ptr<Conn>& conn,
                           const char* /*reason*/) {
  if (conn->in_fd < 0) return;
  conn->release(epoll_fd_);
  {
    std::lock_guard<std::mutex> lock(conn->mutex);
    conn->closed = true;
    conn->done.clear();
    conn->pushed.clear();
  }
  conn->ready.clear();
  conn->ready_bytes = 0;
  if (conn->streaming && sessions_ != nullptr) {
    conn->streaming = false;
    sessions_->drop_connection(conn->token);
  }
  conns_.erase(conn->token);
  closed_.fetch_add(1, std::memory_order_relaxed);
  MWC_OBS_COUNT("svc.net.closed");
  MWC_OBS_GAUGE_SET("svc.net.connections",
                    static_cast<double>(conns_.size()));
}

void NetServer::handle_conn_event(const std::shared_ptr<Conn>& conn,
                                  std::uint32_t events) {
  // A connection on the pending-input list reads there, once per turn.
  if ((events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR)) != 0 &&
      !conn->input_pending) {
    read_input(conn);
    if (conn->in_fd < 0) return;
  }
  if ((events & EPOLLOUT) != 0) pump(conn);
}

void NetServer::drain_completions() {
  std::vector<std::shared_ptr<Conn>> batch;
  {
    std::lock_guard<std::mutex> lock(completed_mutex_);
    batch.swap(completed_);
  }
  for (const auto& conn : batch) pump(conn);
}

void NetServer::sweep_idle() {
  if (options_.idle_timeout_ms <= 0.0) return;
  const auto now = SteadyClock::now();
  std::vector<std::shared_ptr<Conn>> idle;
  for (const auto& [token, conn] : conns_) {
    const double idle_ms =
        std::chrono::duration<double, std::milli>(now - conn->last_activity)
            .count();
    // Only reap quiet connections: nothing owed, nothing buffered —
    // a half-received request line in `in` counts as activity. A live
    // stream session is long-lived by design and never idle-reaped.
    if (idle_ms > options_.idle_timeout_ms && !conn->streaming &&
        conn->in.empty() && conn->next_flush == conn->next_seq &&
        conn->out_pos == conn->out.size())
      idle.push_back(conn);
  }
  for (const auto& conn : idle) {
    idle_closed_.fetch_add(1, std::memory_order_relaxed);
    MWC_OBS_COUNT("svc.net.idle_closed");
    close_conn(conn, "idle");
  }
}

void NetServer::begin_stop() {
  stopping_ = true;
  drain_deadline_ =
      SteadyClock::now() +
      std::chrono::duration_cast<SteadyClock::duration>(
          std::chrono::duration<double, std::milli>(options_.drain_timeout_ms));
  if (listen_fd_ >= 0) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // Unread input is dropped (a drain answers what was admitted, not what
  // is still in flight on the wire); connections owing nothing close now.
  std::vector<std::shared_ptr<Conn>> all;
  all.reserve(conns_.size());
  for (const auto& [token, conn] : conns_) all.push_back(conn);
  for (const auto& conn : all) {
    conn->in.clear();
    conn->scanned = 0;
    pump(conn);
  }
}

void NetServer::run() {
  // SIGPIPE stays blocked on this thread while it runs: a write() to a
  // peer that is gone then fails with EPIPE (closing that connection)
  // instead of killing the process.
  sigset_t sigpipe, old_mask;
  sigemptyset(&sigpipe);
  sigaddset(&sigpipe, SIGPIPE);
  ::pthread_sigmask(SIG_BLOCK, &sigpipe, &old_mask);
  std::vector<epoll_event> events(128);
  for (;;) {
    if (stop_requested_.load(std::memory_order_acquire) && !stopping_)
      begin_stop();
    // No listener (stopped, or serving a start_fds() pair): done once
    // the last connection has closed.
    if (listen_fd_ < 0 && conns_.empty()) break;
    if (stopping_ && options_.drain_timeout_ms > 0.0 &&
        SteadyClock::now() >= drain_deadline_) {
      // Drain deadline: a peer that stopped reading holds unflushable
      // output forever — force-close so run() always returns.
      std::vector<std::shared_ptr<Conn>> rest;
      rest.reserve(conns_.size());
      for (const auto& [token, conn] : conns_) rest.push_back(conn);
      for (const auto& conn : rest) {
        drain_dropped_.fetch_add(1, std::memory_order_relaxed);
        MWC_OBS_COUNT("svc.net.drain_dropped");
        close_conn(conn, "drain timeout");
      }
      break;
    }

    int timeout = -1;
    if (options_.idle_timeout_ms > 0.0 && !conns_.empty())
      timeout = std::clamp(static_cast<int>(options_.idle_timeout_ms / 2),
                           10, 1000);
    if (stopping_ && options_.drain_timeout_ms > 0.0)
      timeout = timeout < 0 ? 50 : std::min(timeout, 50);
    if (!more_input_.empty() && !stopping_) timeout = 0;
    const int n = ::epoll_wait(epoll_fd_, events.data(),
                               static_cast<int>(events.size()), timeout);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const std::uint64_t key = events[static_cast<std::size_t>(i)].data.u64;
      if (key == kWakeToken) {
        const int fd = wake_fd_.load(std::memory_order_acquire);
        std::uint64_t drained;
        while (::read(fd, &drained, sizeof drained) > 0) {
        }
        wake_pending_.store(false, std::memory_order_release);
      } else if (key == kListenToken) {
        if (listen_fd_ >= 0) handle_accept();
      } else {
        const auto it = conns_.find(key);
        if (it != conns_.end()) {
          // Copy out of the map: close_conn() inside the handler erases
          // this entry, which would destroy the shared_ptr a reference
          // to it->second still dereferences afterwards.
          const std::shared_ptr<Conn> conn = it->second;
          handle_conn_event(conn, events[static_cast<std::size_t>(i)].events);
        }
      }
    }
    if (!more_input_.empty()) read_pending_input();
    drain_completions();
    sweep_idle();
  }
  const timespec no_wait{};
  while (::sigtimedwait(&sigpipe, nullptr, &no_wait) > 0) {
  }  // discard a SIGPIPE a failed write left pending
  ::pthread_sigmask(SIG_SETMASK, &old_mask, nullptr);
}

NetStats NetServer::stats() const {
  NetStats s;
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.closed = closed_.load(std::memory_order_relaxed);
  s.connections = s.accepted - s.closed;
  s.requests = requests_.load(std::memory_order_relaxed);
  s.responses = responses_.load(std::memory_order_relaxed);
  s.bytes_read = bytes_read_.load(std::memory_order_relaxed);
  s.bytes_written = bytes_written_.load(std::memory_order_relaxed);
  s.wakeups = wakeups_.load(std::memory_order_relaxed);
  s.idle_closed = idle_closed_.load(std::memory_order_relaxed);
  s.overflow_closed = overflow_closed_.load(std::memory_order_relaxed);
  s.drain_dropped = drain_dropped_.load(std::memory_order_relaxed);
  s.pushes = pushes_.load(std::memory_order_relaxed);
  s.pushes_dropped = pushes_dropped_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace mwc::svc
