#include "svc/event_loop.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "obs/obs.hpp"
#include "obs/registry.hpp"
#include "svc/admin.hpp"
#include "svc/json.hpp"
#include "svc/server.hpp"
#include "svc/wire.hpp"

namespace mwc::svc {
namespace {

std::string request_line(const std::string& id) {
  return R"({"v":"mwc.svc.v1","id":")" + id +
         R"(","network":{"preset":{"n":5,"q":1}},)"
         R"("cycles":{"values":[1,1,1,1,1]}})"
         "\n";
}

Response ok_response(const std::string& id) {
  Response response;
  response.id = id;
  response.ok = true;
  return response;
}

/// A NetServer over an injectable Server, with its loop on a thread.
struct Loop {
  Server server;
  AdminHandler admin;
  NetServer net;
  std::thread thread;

  explicit Loop(ServerOptions server_options,
                NetServerOptions net_options = {},
                StreamHub* sessions = nullptr)
      : server(std::move(server_options)),
        admin(server, AdminInfo{}),
        net(server, &admin, std::move(net_options), sessions) {
    EXPECT_TRUE(net.start());
    thread = std::thread([this] { net.run(); });
  }

  ~Loop() { stop(); }

  void stop() {
    net.request_stop();
    if (thread.joinable()) thread.join();
  }
};

/// Blocking test client with a 10 s receive timeout so a regression
/// fails instead of hanging the suite.
struct Client {
  int fd = -1;

  /// `rcvbuf` > 0 shrinks SO_RCVBUF before connect (tiny TCP window, so
  /// an unread peer backs the server's writes up quickly).
  explicit Client(int port, int rcvbuf = 0) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    timeval tv{10, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    if (rcvbuf > 0)
      ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
              0);
  }

  ~Client() {
    if (fd >= 0) ::close(fd);
  }

  void send_all(const std::string& data) const {
    std::size_t off = 0;
    while (off < data.size()) {
      const ssize_t put =
          ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
      ASSERT_GT(put, 0);
      off += static_cast<std::size_t>(put);
    }
  }

  void half_close() const { ::shutdown(fd, SHUT_WR); }

  /// Reads until `n` full lines arrived (EOF or timeout end the read
  /// early — the caller's size assertion then fails loudly).
  std::vector<std::string> read_lines(std::size_t n) const {
    std::string buf;
    char chunk[65536];
    std::size_t newlines = 0;
    while (newlines < n) {
      const ssize_t got = ::recv(fd, chunk, sizeof chunk, 0);
      if (got <= 0) break;
      for (ssize_t i = 0; i < got; ++i)
        if (chunk[i] == '\n') ++newlines;
      buf.append(chunk, static_cast<std::size_t>(got));
    }
    std::vector<std::string> lines;
    std::size_t start = 0;
    for (;;) {
      const std::size_t nl = buf.find('\n', start);
      if (nl == std::string::npos) break;
      lines.push_back(buf.substr(start, nl - start));
      start = nl + 1;
    }
    return lines;
  }

  /// True when the server closed the connection (read returns 0).
  bool read_eof() const {
    char chunk[256];
    for (;;) {
      const ssize_t got = ::recv(fd, chunk, sizeof chunk, 0);
      if (got == 0) return true;
      if (got < 0) return false;  // timeout
    }
  }
};

std::string id_of(const std::string& line) {
  return Json::parse(line).at("id").as_string();
}

std::string stream_frame(const std::string& id) {
  return R"({"v":"mwc.svc.stream.v1","op":"open","id":")" + id + "\"}\n";
}

/// Minimal StreamHub: acks every frame, marks the connection streaming,
/// and hands the captured PushFn to the test thread so it can inject
/// server-initiated lines at chosen moments.
struct FakeHub final : StreamHub {
  std::mutex mutex;
  std::map<std::uint64_t, PushFn> push_fns;
  std::vector<std::uint64_t> dropped;

  std::string handle_frame(std::uint64_t conn_token, const std::string& line,
                           PushFn push, bool* streaming) override {
    {
      std::lock_guard<std::mutex> lock(mutex);
      push_fns[conn_token] = std::move(push);
    }
    *streaming = true;
    return R"({"v":"mwc.svc.stream.v1","id":")" +
           Json::parse(line).at("id").as_string() + R"(","ok":true})" "\n";
  }

  void drop_connection(std::uint64_t conn_token) override {
    std::lock_guard<std::mutex> lock(mutex);
    dropped.push_back(conn_token);
  }

  /// PushFn of the first (only) registered connection; waits for the
  /// loop thread to process the registering frame first.
  PushFn wait_push_fn() {
    for (int i = 0; i < 2000; ++i) {
      {
        std::lock_guard<std::mutex> lock(mutex);
        if (!push_fns.empty()) return push_fns.begin()->second;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return {};
  }

  bool was_dropped() {
    std::lock_guard<std::mutex> lock(mutex);
    return !dropped.empty();
  }
};

std::string push_line(const std::string& tag) {
  return R"({"v":"mwc.svc.stream.v1","op":"plan","push":true,"tag":")" + tag +
         "\"}\n";
}

TEST(NetServer, PipelinedOutOfOrderCompletionsFlushInRequestOrder) {
  ServerOptions options;
  options.threads = 4;
  // Later requests finish first: r0 sleeps longest. The transport must
  // still flush responses in request order.
  options.handler = [](const Request& request) {
    const int k = request.id.back() - '0';
    std::this_thread::sleep_for(std::chrono::milliseconds((5 - k) * 20));
    return ok_response(request.id);
  };
  Loop loop(options);

  Client client(loop.net.port());
  std::string burst;
  for (int i = 0; i < 5; ++i) burst += request_line("r" + std::to_string(i));
  client.send_all(burst);

  const auto lines = client.read_lines(5);
  ASSERT_EQ(lines.size(), 5u);
  for (int i = 0; i < 5; ++i)
    EXPECT_EQ(id_of(lines[static_cast<std::size_t>(i)]),
              "r" + std::to_string(i));

  const NetStats stats = loop.net.stats();
  EXPECT_EQ(stats.requests, 5u);
  EXPECT_EQ(stats.responses, 5u);
  EXPECT_EQ(stats.accepted, 1u);
}

TEST(NetServer, BadRequestMidPipelineDoesNotDesyncTheStream) {
  ServerOptions options;
  options.threads = 2;
  options.handler = [](const Request& request) {
    return ok_response(request.id);
  };
  Loop loop(options);

  Client client(loop.net.port());
  client.send_all(request_line("r0") + "{this is not json\n" +
                  request_line("r1"));

  const auto lines = client.read_lines(3);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(id_of(lines[0]), "r0");
  const Json bad = Json::parse(lines[1]);
  EXPECT_FALSE(bad.at("ok").as_bool());
  EXPECT_EQ(bad.at("error").as_string(), "bad_request");
  EXPECT_EQ(id_of(lines[2]), "r1");
}

TEST(NetServer, AdminResponsesJoinTheSequenceStream) {
  ServerOptions options;
  options.threads = 2;
  options.handler = [](const Request& request) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return ok_response(request.id);
  };
  Loop loop(options);

  Client client(loop.net.port());
  // The admin answer is ready instantly but owes its place in line
  // behind the slow r0.
  client.send_all(request_line("r0") +
                  R"({"admin":"statusz","id":"a1"})" "\n" +
                  request_line("r1"));

  const auto lines = client.read_lines(3);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(id_of(lines[0]), "r0");
  EXPECT_EQ(id_of(lines[1]), "a1");
  EXPECT_NE(lines[1].find("statusz"), std::string::npos);
  EXPECT_EQ(id_of(lines[2]), "r1");
}

TEST(NetServer, HalfCloseFlushesEveryOwedResponse) {
  ServerOptions options;
  options.threads = 2;
  options.handler = [](const Request& request) {
    return ok_response(request.id);
  };
  Loop loop(options);

  Client client(loop.net.port());
  // Final line deliberately unterminated: EOF must end it, matching the
  // stdio transport.
  std::string burst = request_line("r0") + request_line("r1");
  burst += request_line("r2");
  burst.pop_back();  // strip the trailing newline
  client.send_all(burst);
  client.half_close();

  const auto lines = client.read_lines(3);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(id_of(lines[0]), "r0");
  EXPECT_EQ(id_of(lines[1]), "r1");
  EXPECT_EQ(id_of(lines[2]), "r2");
  EXPECT_TRUE(client.read_eof());
}

TEST(NetServer, IdleConnectionsAreReaped) {
  ServerOptions options;
  options.threads = 1;
  options.handler = [](const Request& request) {
    return ok_response(request.id);
  };
  NetServerOptions net_options;
  net_options.idle_timeout_ms = 50.0;
  Loop loop(options, net_options);

  Client client(loop.net.port());
  EXPECT_TRUE(client.read_eof());  // server closes us, we sent nothing
  // The loop thread updates stats before/at close; poll briefly.
  for (int i = 0; i < 100 && loop.net.stats().idle_closed == 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(loop.net.stats().idle_closed, 1u);
}

TEST(NetServer, StopFlushesInFlightWorkAndClosesIdleConnections) {
  std::mutex mutex;
  std::condition_variable cv;
  bool entered = false;
  bool released = false;
  ServerOptions options;
  options.threads = 1;
  options.handler = [&](const Request& request) {
    std::unique_lock<std::mutex> lock(mutex);
    entered = true;
    cv.notify_all();
    cv.wait(lock, [&] { return released; });
    return ok_response(request.id);
  };
  Loop loop(options);

  Client busy(loop.net.port());
  Client idle(loop.net.port());  // never sends — the old transport's
                                 // per-connection read() would block on
                                 // this socket past SIGTERM
  busy.send_all(request_line("r0"));
  {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return entered; });
  }

  loop.net.request_stop();
  {
    std::lock_guard<std::mutex> lock(mutex);
    released = true;
    cv.notify_all();
  }

  // The loop must exit on its own: owed response flushed, idle
  // connection closed, run() returned.
  auto joined = std::async(std::launch::async, [&] { loop.stop(); });
  ASSERT_EQ(joined.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);

  const auto lines = busy.read_lines(1);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(id_of(lines[0]), "r0");
  EXPECT_TRUE(busy.read_eof());
  EXPECT_TRUE(idle.read_eof());
}

TEST(NetServer, BufferedPartialRequestLineIsNotReapedAsIdle) {
  ServerOptions options;
  options.threads = 1;
  options.handler = [](const Request& request) {
    return ok_response(request.id);
  };
  NetServerOptions net_options;
  net_options.idle_timeout_ms = 50.0;
  Loop loop(options, net_options);

  // Send half a request line, go quiet past the idle timeout, then
  // finish it: the half-sent request must still be answered, not
  // silently dropped by the idle sweep.
  Client client(loop.net.port());
  const std::string line = request_line("r0");
  client.send_all(line.substr(0, 10));
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  client.send_all(line.substr(10));

  const auto lines = client.read_lines(1);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(id_of(lines[0]), "r0");
  EXPECT_EQ(loop.net.stats().idle_closed, 0u);
}

TEST(NetServer, StopForceClosesConnectionsThatCannotFlush) {
  ServerOptions options;
  options.threads = 1;
  // An 8 MiB response cannot fit the kernel socket buffers, so a peer
  // that never reads leaves it unflushable forever.
  options.handler = [](const Request&) {
    Response response;
    response.id = std::string(8u << 20, 'x');
    response.ok = true;
    return response;
  };
  NetServerOptions net_options;
  net_options.drain_timeout_ms = 300.0;
  Loop loop(options, net_options);

  Client client(loop.net.port(), /*rcvbuf=*/1);
  client.send_all(request_line("r0"));
  // Wait until the response is queued on the connection's output buffer
  // (flushed as far as the socket accepts) before asking for the stop.
  for (int i = 0; i < 2000 && loop.net.stats().responses == 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_EQ(loop.net.stats().responses, 1u);

  // run() must return anyway: the drain deadline force-closes the
  // connection the peer refuses to drain.
  loop.net.request_stop();
  auto joined = std::async(std::launch::async, [&] { loop.stop(); });
  ASSERT_EQ(joined.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  EXPECT_EQ(loop.net.stats().drain_dropped, 1u);
}

TEST(NetServer, PeerWritingWithoutPauseCannotPinTheLoop) {
  ServerOptions options;
  options.threads = 1;
  options.handler = [](const Request& request) {
    return ok_response(request.id);
  };
  Loop loop(options);

  // One peer writes newline-terminated junk as fast as it can (each line
  // is answered synchronously with bad_request) and drains the replies.
  // Its socket never runs dry, so only a per-turn read budget lets the
  // loop serve anyone else or notice a stop.
  Client flooder(loop.net.port());
  std::atomic<bool> quit{false};
  std::thread writer([&] {
    std::string junk;
    for (int i = 0; i < 8192; ++i) junk += "x\n";
    while (!quit.load()) {
      if (::send(flooder.fd, junk.data(), junk.size(), MSG_NOSIGNAL) <= 0)
        break;
    }
  });
  std::thread reader([&] {
    char chunk[65536];
    while (::recv(flooder.fd, chunk, sizeof chunk, 0) > 0) {
    }
  });
  for (int i = 0; i < 2000 && loop.net.stats().requests < 20000; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));

  Client client(loop.net.port());
  client.send_all(request_line("r0"));
  const auto lines = client.read_lines(1);

  loop.net.request_stop();
  auto joined = std::async(std::launch::async, [&] { loop.stop(); });
  const bool returned =
      joined.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  quit.store(true);
  ::shutdown(flooder.fd, SHUT_RDWR);
  writer.join();
  reader.join();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(id_of(lines[0]), "r0");
  EXPECT_TRUE(returned);
}

TEST(NetServer, ParkedResponsesCountAgainstTheOutputGuard) {
  std::mutex mutex;
  std::condition_variable cv;
  bool released = false;
  ServerOptions options;
  options.threads = 1;
  options.handler = [&](const Request& request) {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return released; });
    return ok_response(request.id);
  };
  NetServerOptions net_options;
  net_options.max_buffered_bytes = 64 * 1024;
  Loop loop(options, net_options);

  // r0 blocks in the handler, so every bad_request behind it parks in
  // the reorder map: those owed bytes count against the guard too.
  Client client(loop.net.port());
  std::string burst = request_line("r0");
  for (int i = 0; i < 4096; ++i) burst += "x\n";
  client.send_all(burst);
  EXPECT_TRUE(client.read_eof());
  EXPECT_EQ(loop.net.stats().overflow_closed, 1u);
  {
    std::lock_guard<std::mutex> lock(mutex);
    released = true;
  }
  cv.notify_all();
}

TEST(NetServer, WireBytesMatchInProcessServerModuloLatency) {
  // Same request through the epoll transport and through submit_line on
  // an identical server must serialize identically (latency aside).
  const std::string line = request_line("gold");

  ServerOptions options;
  options.threads = 1;
  Loop loop(options);
  Client client(loop.net.port());
  client.send_all(line);
  const auto wire = client.read_lines(1);
  ASSERT_EQ(wire.size(), 1u);

  Server reference(options);
  std::promise<std::string> answered;
  ASSERT_TRUE(reference.submit_line(
      line.substr(0, line.size() - 1),
      [&](const Response& r) { answered.set_value(to_jsonl(r)); }));
  std::string local = answered.get_future().get();
  ASSERT_EQ(local.back(), '\n');
  local.pop_back();

  Json from_wire = Json::parse(wire[0]);
  Json from_local = Json::parse(local);
  from_wire.set("latency_ms", Json(0.0));
  from_local.set("latency_ms", Json(0.0));
  EXPECT_EQ(from_wire.dump(), from_local.dump());
  reference.shutdown();
}

TEST(NetServer, StreamFramesRejectedWithoutHub) {
  ServerOptions options;
  options.threads = 1;
  options.handler = [](const Request& request) {
    return ok_response(request.id);
  };
  Loop loop(options);  // no StreamHub attached

  Client client(loop.net.port());
  client.send_all(stream_frame("s0"));
  const auto lines = client.read_lines(1);
  ASSERT_EQ(lines.size(), 1u);
  const Json doc = Json::parse(lines[0]);
  EXPECT_EQ(doc.at("id").as_string(), "s0");
  EXPECT_FALSE(doc.at("ok").as_bool());
  EXPECT_EQ(doc.at("error").as_string(), "sessions_disabled");
}

TEST(NetServer, PushesInterleaveWithoutDesyncingThePipeline) {
  std::mutex mutex;
  std::condition_variable cv;
  bool released = false;
  ServerOptions options;
  options.threads = 2;
  // r0 parks the head of the response queue until the test releases it;
  // pushes injected meanwhile must flush without waiting for it.
  options.handler = [&](const Request& request) {
    if (request.id == "r0") {
      std::unique_lock<std::mutex> lock(mutex);
      cv.wait(lock, [&] { return released; });
    }
    return ok_response(request.id);
  };
  FakeHub hub;
  Loop loop(options, {}, &hub);

  Client client(loop.net.port());
  client.send_all(request_line("r0") + stream_frame("s0") +
                  request_line("r1"));
  StreamHub::PushFn push = hub.wait_push_fn();
  ASSERT_TRUE(static_cast<bool>(push));
  EXPECT_TRUE(push(push_line("p0")));
  EXPECT_TRUE(push(push_line("p1")));

  // Both pushes must reach the client while r0 still blocks the
  // sequence stream — a push carries no sequence number.
  const auto early = client.read_lines(2);
  ASSERT_EQ(early.size(), 2u);
  EXPECT_EQ(Json::parse(early[0]).at("tag").as_string(), "p0");
  EXPECT_EQ(Json::parse(early[1]).at("tag").as_string(), "p1");

  {
    std::lock_guard<std::mutex> lock(mutex);
    released = true;
    cv.notify_all();
  }
  // The owed responses then flush in request order: r0, s0's ack, r1.
  const auto lines = client.read_lines(3);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(id_of(lines[0]), "r0");
  EXPECT_EQ(id_of(lines[1]), "s0");
  EXPECT_EQ(id_of(lines[2]), "r1");

  const NetStats stats = loop.net.stats();
  EXPECT_EQ(stats.pushes, 2u);
  EXPECT_EQ(stats.pushes_dropped, 0u);
}

TEST(NetServer, PushesCoexistWithMidPipelineRejections) {
  std::mutex mutex;
  std::condition_variable cv;
  bool released = false;
  ServerOptions options;
  options.threads = 2;
  options.handler = [&](const Request& request) {
    if (request.id == "r0") {
      std::unique_lock<std::mutex> lock(mutex);
      cv.wait(lock, [&] { return released; });
    }
    return ok_response(request.id);
  };
  FakeHub hub;
  Loop loop(options, {}, &hub);

  Client client(loop.net.port());
  // A malformed line parks its bad_request rejection mid-pipeline while
  // r0 blocks; a push injected on top must not disturb the order.
  client.send_all(request_line("r0") + "{not json\n" + stream_frame("s0") +
                  request_line("r1"));
  StreamHub::PushFn push = hub.wait_push_fn();
  ASSERT_TRUE(static_cast<bool>(push));
  EXPECT_TRUE(push(push_line("p0")));
  {
    std::lock_guard<std::mutex> lock(mutex);
    released = true;
    cv.notify_all();
  }

  const auto lines = client.read_lines(5);
  ASSERT_EQ(lines.size(), 5u);
  // The push interleaves at an arbitrary point; everything else keeps
  // request order: r0, the rejection, s0's ack, r1.
  std::vector<std::string> ordered;
  std::size_t pushes_seen = 0;
  for (const auto& line : lines) {
    const Json doc = Json::parse(line);
    if (doc.find("tag") != nullptr) {
      ++pushes_seen;
      continue;
    }
    ordered.push_back(line);
  }
  EXPECT_EQ(pushes_seen, 1u);
  ASSERT_EQ(ordered.size(), 4u);
  EXPECT_EQ(id_of(ordered[0]), "r0");
  const Json bad = Json::parse(ordered[1]);
  EXPECT_FALSE(bad.at("ok").as_bool());
  EXPECT_EQ(bad.at("error").as_string(), "bad_request");
  EXPECT_EQ(id_of(ordered[2]), "s0");
  EXPECT_EQ(id_of(ordered[3]), "r1");
}

TEST(NetServer, PushToClosedConnectionReportsDropped) {
  ServerOptions options;
  options.threads = 1;
  options.handler = [](const Request& request) {
    return ok_response(request.id);
  };
  FakeHub hub;
  Loop loop(options, {}, &hub);

  {
    Client client(loop.net.port());
    client.send_all(stream_frame("s0"));
    ASSERT_EQ(client.read_lines(1).size(), 1u);
  }  // client disconnects
  StreamHub::PushFn push = hub.wait_push_fn();
  ASSERT_TRUE(static_cast<bool>(push));
  // The loop notices the EOF and tears the streaming connection down,
  // telling the hub; a late push must fail cleanly, not write to a
  // dead socket.
  for (int i = 0; i < 2000 && !hub.was_dropped(); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_TRUE(hub.was_dropped());
  EXPECT_FALSE(push(push_line("late")));
  EXPECT_EQ(loop.net.stats().pushes_dropped, 1u);
}

TEST(NetServer, StreamingConnectionsAreNotReapedAsIdle) {
  ServerOptions options;
  options.threads = 1;
  options.handler = [](const Request& request) {
    return ok_response(request.id);
  };
  NetServerOptions net_options;
  net_options.idle_timeout_ms = 50.0;
  FakeHub hub;
  Loop loop(options, net_options, &hub);

  Client client(loop.net.port());
  client.send_all(stream_frame("s0"));
  ASSERT_EQ(client.read_lines(1).size(), 1u);
  // Quiet for several idle periods: a live session holds the line open.
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  EXPECT_EQ(loop.net.stats().idle_closed, 0u);
  client.send_all(request_line("r0"));
  const auto lines = client.read_lines(1);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(id_of(lines[0]), "r0");
}

// --- start_fds(): a pre-opened fd pair served as one connection -------

/// A NetServer serving one fd pair (no listener), its loop on a thread.
/// `returned` resolves when run() returns.
struct PairLoop {
  Server server;
  AdminHandler admin;
  NetServer net;
  std::future<void> returned;

  PairLoop(ServerOptions server_options, int in_fd, int out_fd,
           NetServerOptions net_options = {}, StreamHub* sessions = nullptr)
      : server(std::move(server_options)),
        admin(server, AdminInfo{}),
        net(server, &admin, std::move(net_options), sessions) {
    EXPECT_TRUE(net.start_fds(in_fd, out_fd));
    returned = std::async(std::launch::async, [this] { net.run(); });
  }

  ~PairLoop() {
    net.request_stop();
    returned.wait();
  }

  bool wait_returned() {
    return returned.wait_for(std::chrono::seconds(10)) ==
           std::future_status::ready;
  }
};

/// Both ends of two pipes: the test writes `to_server[1]` and reads
/// `from_server[0]`; the server gets the other two ends.
struct Pipes {
  int to_server[2] = {-1, -1};
  int from_server[2] = {-1, -1};

  Pipes() {
    EXPECT_EQ(::pipe(to_server), 0);
    EXPECT_EQ(::pipe(from_server), 0);
  }
  ~Pipes() {
    for (int fd : {to_server[0], to_server[1], from_server[0],
                   from_server[1]})
      if (fd >= 0) ::close(fd);
  }

  int server_in() const { return to_server[0]; }
  int server_out() const { return from_server[1]; }

  void write_all(const std::string& data) const {
    std::size_t off = 0;
    while (off < data.size()) {
      const ssize_t put =
          ::write(to_server[1], data.data() + off, data.size() - off);
      ASSERT_GT(put, 0);
      off += static_cast<std::size_t>(put);
    }
  }

  void close_input() {
    ::close(to_server[1]);
    to_server[1] = -1;
  }

  /// Reads until `n` full lines arrived; a 10 s poll timeout or EOF ends
  /// the read early so the caller's size assertion fails loudly.
  std::vector<std::string> read_lines(std::size_t n) const {
    std::string buf;
    char chunk[65536];
    std::size_t newlines = 0;
    while (newlines < n) {
      pollfd pfd{from_server[0], POLLIN, 0};
      if (::poll(&pfd, 1, 10000) <= 0) break;
      const ssize_t got = ::read(from_server[0], chunk, sizeof chunk);
      if (got <= 0) break;
      for (ssize_t i = 0; i < got; ++i)
        if (chunk[i] == '\n') ++newlines;
      buf.append(chunk, static_cast<std::size_t>(got));
    }
    std::vector<std::string> lines;
    std::size_t start = 0;
    for (;;) {
      const std::size_t nl = buf.find('\n', start);
      if (nl == std::string::npos) break;
      lines.push_back(buf.substr(start, nl - start));
      start = nl + 1;
    }
    return lines;
  }
};

ServerOptions echo_options() {
  ServerOptions options;
  options.threads = 2;
  options.handler = [](const Request& request) {
    return ok_response(request.id);
  };
  return options;
}

TEST(NetServerFdPair, PipelinedRequestsComeBackInRequestOrder) {
  ServerOptions options;
  options.threads = 4;
  options.handler = [](const Request& request) {
    const int k = request.id.back() - '0';
    std::this_thread::sleep_for(std::chrono::milliseconds((5 - k) * 20));
    return ok_response(request.id);
  };
  Pipes pipes;
  PairLoop loop(options, pipes.server_in(), pipes.server_out());

  std::string burst;
  for (int i = 0; i < 5; ++i) burst += request_line("r" + std::to_string(i));
  burst += R"({"admin":"statusz","id":"a5"})" "\n";
  pipes.write_all(burst);

  const auto lines = pipes.read_lines(6);
  ASSERT_EQ(lines.size(), 6u);
  for (int i = 0; i < 5; ++i)
    EXPECT_EQ(id_of(lines[static_cast<std::size_t>(i)]),
              "r" + std::to_string(i));
  EXPECT_EQ(id_of(lines[5]), "a5");
  const NetStats stats = loop.net.stats();
  EXPECT_EQ(stats.requests, 6u);
  EXPECT_EQ(stats.responses, 6u);
  EXPECT_EQ(stats.connections, 1u);
}

TEST(NetServerFdPair, EofEndsTheLastLineDrainsAndReturns) {
  Pipes pipes;
  const int in_flags = ::fcntl(pipes.server_in(), F_GETFL);
  const int out_flags = ::fcntl(pipes.server_out(), F_GETFL);
  PairLoop loop(echo_options(), pipes.server_in(), pipes.server_out());

  std::string burst = request_line("r0") + request_line("r1");
  burst.pop_back();  // final line unterminated: EOF must end it
  pipes.write_all(burst);
  pipes.close_input();

  const auto lines = pipes.read_lines(2);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(id_of(lines[0]), "r0");
  EXPECT_EQ(id_of(lines[1]), "r1");
  // No listener: run() returns once the pair has drained and closed,
  // handing the fds back open with their file-status flags restored.
  ASSERT_TRUE(loop.wait_returned());
  EXPECT_EQ(loop.net.stats().closed, 1u);
  EXPECT_EQ(::fcntl(pipes.server_in(), F_GETFL), in_flags);
  EXPECT_EQ(::fcntl(pipes.server_out(), F_GETFL), out_flags);
}

TEST(NetServerFdPair, ServesARegularFileLargerThanTheBufferGuard) {
  // epoll refuses regular files (EPERM); the loop reads them a chunk per
  // turn and splits lines per chunk, so a file far larger than the guard
  // is served as long as no single line exceeds it. More lines than one
  // turn takes: the rest carry over to later turns, and EOF waits for
  // them.
  std::FILE* file = std::tmpfile();
  ASSERT_NE(file, nullptr);
  constexpr int kRequests = 600;
  std::string body;
  for (int i = 0; i < kRequests; ++i)
    body += request_line("f" + std::to_string(i));
  ASSERT_EQ(std::fwrite(body.data(), 1, body.size(), file), body.size());
  std::fflush(file);
  std::rewind(file);
  NetServerOptions net_options;
  net_options.max_buffered_bytes = 1024;
  ASSERT_GT(body.size(), 8 * net_options.max_buffered_bytes);

  // One worker: the guard also counts responses parked behind an
  // unfinished earlier one (ParkedResponsesCountAgainstTheOutputGuard),
  // and with two workers a preempted one lets the other park more than
  // 1024 bytes of echoes, closing the pair as "output overflow". In-order
  // completion leaves only unflushed output, and the whole response
  // stream fits the output pipe, so the guard never trips.
  ServerOptions options = echo_options();
  options.threads = 1;
  options.queue_capacity = kRequests;
  Pipes pipes;
  {
    PairLoop loop(options, ::fileno(file), pipes.server_out(), net_options);
    const auto lines = pipes.read_lines(kRequests);
    ASSERT_EQ(lines.size(), static_cast<std::size_t>(kRequests));
    std::size_t response_bytes = 0;
    for (int i = 0; i < kRequests; ++i) {
      const auto& line = lines[static_cast<std::size_t>(i)];
      EXPECT_EQ(id_of(line), "f" + std::to_string(i));
      response_bytes += line.size() + 1;
    }
    EXPECT_LT(response_bytes,
              static_cast<std::size_t>(::fcntl(pipes.from_server[0],
                                               F_GETPIPE_SZ)));
    ASSERT_TRUE(loop.wait_returned());
    EXPECT_EQ(loop.net.stats().overflow_closed, 0u);
  }
  std::fclose(file);
}

TEST(NetServerFdPair, ClosedOutputEndsTheConnectionWithoutSigpipe) {
  Pipes pipes;
  ::close(pipes.from_server[0]);  // nobody will read the responses
  pipes.from_server[0] = -1;
  PairLoop loop(echo_options(), pipes.server_in(), pipes.server_out());

  // The response write hits a reader-less pipe: EPIPE closes the
  // connection (SIGPIPE would have killed this test binary).
  pipes.write_all(request_line("r0"));
  ASSERT_TRUE(loop.wait_returned());
  EXPECT_EQ(loop.net.stats().closed, 1u);
}

TEST(NetServerFdPair, NewlineFreeInputOverTheGuardIsClosedAndCounted) {
  const std::uint64_t counted_before =
      obs::Registry::global().counter("svc.net.overflow_closed").value();
  NetServerOptions net_options;
  net_options.max_buffered_bytes = 1024;
  Pipes pipes;
  PairLoop loop(echo_options(), pipes.server_in(), pipes.server_out(),
                net_options);

  pipes.write_all(std::string(4096, 'x'));
  ASSERT_TRUE(loop.wait_returned());
  EXPECT_EQ(loop.net.stats().overflow_closed, 1u);
  EXPECT_EQ(loop.net.stats().requests, 0u);
  if (MWC_OBS_ENABLED != 0) {
    EXPECT_EQ(
        obs::Registry::global().counter("svc.net.overflow_closed").value(),
        counted_before + 1);
  }
}

TEST(NetServerFdPair, StreamOpenReachesTheHub) {
  FakeHub hub;
  Pipes pipes;
  PairLoop loop(echo_options(), pipes.server_in(), pipes.server_out(), {},
                &hub);

  pipes.write_all(request_line("r0") + stream_frame("s0"));
  const auto replies = pipes.read_lines(2);
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(id_of(replies[0]), "r0");
  EXPECT_EQ(id_of(replies[1]), "s0");
  StreamHub::PushFn push = hub.wait_push_fn();
  ASSERT_TRUE(static_cast<bool>(push));
  EXPECT_TRUE(push(push_line("p0")));
  const auto pushed = pipes.read_lines(1);
  ASSERT_EQ(pushed.size(), 1u);
  EXPECT_EQ(Json::parse(pushed[0]).at("tag").as_string(), "p0");

  pipes.close_input();  // EOF tears the session down with the connection
  ASSERT_TRUE(loop.wait_returned());
  EXPECT_TRUE(hub.was_dropped());
}

}  // namespace
}  // namespace mwc::svc
