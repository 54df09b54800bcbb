// svc::SessionManager — mwc.svc.stream.v1 unit tests. Drives
// handle_frame directly (no transport) against an in-process Server
// running the real engine, so opens resolve genuine cached base plans
// and deadline-triggered replans exercise the full submit ->
// handle_delta -> push pipeline.
#include "svc/session.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "geom/bbox.hpp"
#include "svc/json.hpp"
#include "svc/server.hpp"
#include "svc/wire.hpp"
#include "wsn/network.hpp"

namespace mwc::svc {
namespace {

constexpr std::size_t kN = 16;
constexpr std::size_t kQ = 2;

/// Base cycles tau_i in {10, 20, 30, 40}: slow enough that a calm
/// observation never trips the deadline trigger.
std::vector<double> base_cycles() {
  std::vector<double> tau(kN);
  for (std::size_t i = 0; i < kN; ++i)
    tau[i] = 10.0 + double(i % 4) * 10.0;
  return tau;
}

/// Solves the shared base instance and returns its fingerprint.
std::uint64_t solve_base(Server& server) {
  const Request request = RequestBuilder("base")
                              .preset(kN, kQ, /*field_side=*/400.0,
                                      /*seed=*/3)
                              .cycle_values(base_cycles())
                              .horizon(100.0)
                              .build();
  std::promise<Response> promise;
  EXPECT_TRUE(server.submit(
      request, [&](const Response& r) { promise.set_value(r); }));
  const Response response = promise.get_future().get();
  EXPECT_TRUE(response.ok) << response.message;
  EXPECT_NE(response.plan, nullptr);
  return response.plan->fingerprint;
}

/// Thread-safe sink for unsolicited plan pushes (replans complete on
/// solver workers).
class PushCapture {
 public:
  StreamHub::PushFn fn() {
    return [this](std::string line) {
      // Notify under the lock: a waiter that sees the line can then
      // destroy this capture only after the pushing worker is done with
      // the condition variable.
      std::lock_guard<std::mutex> lock(mutex_);
      lines_.push_back(std::move(line));
      cv_.notify_all();
      return true;
    };
  }

  std::string wait_line(std::size_t index = 0) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait_for(lock, std::chrono::seconds(10),
                 [&] { return lines_.size() > index; });
    if (lines_.size() <= index) return {};
    return lines_[index];
  }

  std::size_t count() {
    std::lock_guard<std::mutex> lock(mutex_);
    return lines_.size();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<std::string> lines_;
};

std::string open_frame(const std::string& id, std::uint64_t fp) {
  return "{\"v\":\"mwc.svc.stream.v1\",\"op\":\"open\",\"id\":\"" + id +
         "\",\"base\":\"" + fingerprint_hex(fp) + "\"}";
}

std::string observe_frame(const std::string& id, std::uint64_t sid,
                          double t, const std::vector<double>& rates) {
  std::string out = "{\"v\":\"mwc.svc.stream.v1\",\"op\":\"observe\"";
  out += ",\"id\":\"" + id + "\",\"session\":";
  out += std::to_string(sid);
  out += ",\"t\":";
  append_json_number(out, t);
  out += ",\"rates\":[";
  for (std::size_t i = 0; i < rates.size(); ++i) {
    if (i > 0) out += ',';
    append_json_number(out, rates[i]);
  }
  out += "]}";
  return out;
}

std::string close_frame(const std::string& id, std::uint64_t sid) {
  return "{\"v\":\"mwc.svc.stream.v1\",\"op\":\"close\",\"id\":\"" + id +
         "\",\"session\":" + std::to_string(sid) + "}";
}

/// Planned steady-state rates: one battery per cycle.
std::vector<double> calm_rates() {
  std::vector<double> rates(kN);
  const auto tau = base_cycles();
  for (std::size_t i = 0; i < kN; ++i) rates[i] = 1.0 / tau[i];
  return rates;
}

Json reply_of(const std::string& line) { return Json::parse(line); }

/// Fixture: real engine server + one solved base plan.
class SessionManagerTest : public ::testing::Test {
 protected:
  SessionManagerTest() : server_(server_options()), fp_(solve_base(server_)) {}

  static ServerOptions server_options() {
    ServerOptions options;
    options.threads = 2;
    return options;
  }

  /// Opens a session; returns its id and asserts the ack shape.
  std::uint64_t open_session(SessionManager& manager,
                             std::uint64_t conn = 1,
                             PushCapture* pushes = nullptr) {
    static PushCapture ignored;
    bool streaming = false;
    const Json ack = reply_of(manager.handle_frame(
        conn, open_frame("o", fp_), (pushes ? *pushes : ignored).fn(),
        &streaming));
    EXPECT_TRUE(ack.at("ok").as_bool()) << ack.dump();
    EXPECT_TRUE(streaming);
    return static_cast<std::uint64_t>(ack.at("session").as_int());
  }

  Server server_;
  std::uint64_t fp_;
};

TEST_F(SessionManagerTest, OpenUnknownBaseRejected) {
  SessionManager manager(server_);
  bool streaming = false;
  PushCapture pushes;
  const Json reply = reply_of(manager.handle_frame(
      1, open_frame("o1", fp_ ^ 0xDEADu), pushes.fn(), &streaming));
  EXPECT_FALSE(reply.at("ok").as_bool());
  EXPECT_EQ(reply.at("error").as_string(), "unknown_base");
  EXPECT_FALSE(streaming);
  EXPECT_EQ(manager.stats().opened, 0u);
  EXPECT_EQ(manager.stats().rejected, 1u);
}

TEST_F(SessionManagerTest, OpenAckDescribesBasePlan) {
  SessionManager manager(server_);
  bool streaming = false;
  PushCapture pushes;
  const Json ack = reply_of(
      manager.handle_frame(1, open_frame("o1", fp_), pushes.fn(),
                           &streaming));
  ASSERT_TRUE(ack.at("ok").as_bool()) << ack.dump();
  EXPECT_EQ(ack.at("op").as_string(), "open");
  EXPECT_EQ(ack.at("id").as_string(), "o1");
  EXPECT_EQ(ack.at("v").as_string(), kWireVersionStream);
  EXPECT_GE(ack.at("session").as_int(), 1);
  EXPECT_EQ(ack.at("n").as_int(), std::int64_t(kN));
  // MinTotalDistance's first round serves V_0 (tau in [tau1, 2*tau1]) —
  // a strict, non-empty subset of our {10,20,30,40} grid.
  EXPECT_GT(ack.at("round_sensors").as_int(), 0);
  EXPECT_LT(ack.at("round_sensors").as_int(), std::int64_t(kN));
  EXPECT_EQ(ack.at("base").as_string(), fingerprint_hex(fp_));
  EXPECT_TRUE(streaming);

  const StreamStats stats = manager.stats();
  EXPECT_EQ(stats.opened, 1u);
  EXPECT_EQ(stats.active, 1u);
}

TEST_F(SessionManagerTest, CalmObserveDoesNotTrigger) {
  SessionManager manager(server_);
  const std::uint64_t sid = open_session(manager);
  bool streaming = true;
  PushCapture pushes;
  // Draining exactly one battery per cycle is the plan's own steady
  // state: predicted lifetime matches the recharge deadline, so the
  // margin-scaled trigger must stay quiet.
  for (double t : {1.0, 2.0, 3.0}) {
    const Json ack = reply_of(manager.handle_frame(
        1, observe_frame("c", sid, t, calm_rates()), pushes.fn(),
        &streaming));
    ASSERT_TRUE(ack.at("ok").as_bool()) << ack.dump();
    EXPECT_EQ(ack.at("op").as_string(), "observe");
    EXPECT_EQ(ack.at("at_risk").as_int(), 0) << "t=" << t;
    EXPECT_EQ(ack.at("dead").as_int(), 0);
    EXPECT_FALSE(ack.at("replan").as_bool());
  }
  const StreamStats stats = manager.stats();
  EXPECT_EQ(stats.observes, 3u);
  EXPECT_EQ(stats.replans, 0u);
  EXPECT_EQ(stats.pushes, 0u);
  EXPECT_EQ(stats.at_risk, 0u);
}

TEST_F(SessionManagerTest, DeadlineTriggerReplansAndPushesPlan) {
  SessionManager manager(server_);
  PushCapture pushes;
  const std::uint64_t sid = open_session(manager, 1, &pushes);
  bool streaming = true;

  // Surge: sensors 4..7 suddenly drain 8x faster than planned,
  // observed early (t=0.25) so nobody is dead yet. The EWMA blend
  // (gamma 0.3) already cuts their predicted lifetime well below the
  // next recharge deadline for the slow-cycle sensors.
  std::vector<double> rates = calm_rates();
  for (std::size_t i = 4; i < 8; ++i) rates[i] *= 8.0;
  const Json ack = reply_of(manager.handle_frame(
      1, observe_frame("s1", sid, 0.25, rates), pushes.fn(), &streaming));
  ASSERT_TRUE(ack.at("ok").as_bool()) << ack.dump();
  EXPECT_GE(ack.at("at_risk").as_int(), 1);
  EXPECT_TRUE(ack.at("replan").as_bool());

  const std::string line = pushes.wait_line();
  ASSERT_FALSE(line.empty()) << "no plan push within 10s";
  const Json push = reply_of(line);
  EXPECT_EQ(push.at("v").as_string(), kWireVersionStream);
  EXPECT_EQ(push.at("op").as_string(), "plan");
  EXPECT_TRUE(push.at("push").as_bool());
  EXPECT_EQ(static_cast<std::uint64_t>(push.at("session").as_int()), sid);
  EXPECT_EQ(push.at("seq").as_int(), 1);
  EXPECT_EQ(push.at("reason").as_string(), "deadline");
  EXPECT_DOUBLE_EQ(push.at("t").as_double(), 0.25);
  EXPECT_GE(push.at("at_risk").items().size(), 1u);
  EXPECT_GE(push.at("replan_ms").as_double(), 0.0);
  // The push names the fingerprint it supersedes and carries the full
  // derived plan.
  EXPECT_EQ(push.at("base").as_string(), fingerprint_hex(fp_));
  const Json& plan = push.at("plan");
  EXPECT_FALSE(plan.at("first_round_tours").items().empty());
  EXPECT_GT(plan.at("first_round_length").as_double(), 0.0);

  // The pushes counter increments after the push callback returns, so
  // settle briefly before reading stats.
  StreamStats stats = manager.stats();
  for (int i = 0; i < 500 && stats.pushes < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    stats = manager.stats();
  }
  EXPECT_EQ(stats.replans, 1u);
  EXPECT_EQ(stats.pushes, 1u);
  EXPECT_GE(stats.at_risk, 1u);
  EXPECT_EQ(stats.replan_failures, 0u);
  EXPECT_GT(stats.last_replan_ms, 0.0);

  // The session now rides the derived plan: a follow-up calm observe is
  // accepted against the swapped base without another trigger firing
  // for the already-replanned sensors' old deadlines.
  const Json after = reply_of(manager.handle_frame(
      1, observe_frame("s2", sid, 0.5, calm_rates()), pushes.fn(),
      &streaming));
  EXPECT_TRUE(after.at("ok").as_bool()) << after.dump();
}

TEST_F(SessionManagerTest, SessionLimitAndCloseFreesSlot) {
  SessionOptions options;
  options.max_sessions = 1;
  SessionManager manager(server_, options);
  const std::uint64_t sid = open_session(manager);

  bool streaming = true;
  PushCapture pushes;
  const Json full = reply_of(manager.handle_frame(
      1, open_frame("o2", fp_), pushes.fn(), &streaming));
  EXPECT_FALSE(full.at("ok").as_bool());
  EXPECT_EQ(full.at("error").as_string(), "session_limit");

  const Json closed = reply_of(manager.handle_frame(
      1, close_frame("c1", sid), pushes.fn(), &streaming));
  ASSERT_TRUE(closed.at("ok").as_bool());
  EXPECT_EQ(closed.at("op").as_string(), "close");
  EXPECT_FALSE(streaming) << "no live session left on the connection";

  // The slot is free again.
  const std::uint64_t sid2 = open_session(manager);
  EXPECT_NE(sid2, sid);
  const StreamStats stats = manager.stats();
  EXPECT_EQ(stats.opened, 2u);
  EXPECT_EQ(stats.closed, 1u);
  EXPECT_EQ(stats.active, 1u);
}

TEST_F(SessionManagerTest, SessionsAreConnectionScoped) {
  SessionManager manager(server_);
  const std::uint64_t sid = open_session(manager, /*conn=*/1);
  bool streaming = true;
  PushCapture pushes;

  // Unknown id, and a live id observed from a different connection,
  // both answer unknown_session (sessions are not guessable handles).
  const Json unknown = reply_of(manager.handle_frame(
      1, observe_frame("x", 999, 1.0, calm_rates()), pushes.fn(),
      &streaming));
  EXPECT_FALSE(unknown.at("ok").as_bool());
  EXPECT_EQ(unknown.at("error").as_string(), "unknown_session");

  const Json foreign = reply_of(manager.handle_frame(
      2, observe_frame("x", sid, 1.0, calm_rates()), pushes.fn(),
      &streaming));
  EXPECT_FALSE(foreign.at("ok").as_bool());
  EXPECT_EQ(foreign.at("error").as_string(), "unknown_session");

  const Json foreign_close = reply_of(manager.handle_frame(
      2, close_frame("x", sid), pushes.fn(), &streaming));
  EXPECT_FALSE(foreign_close.at("ok").as_bool());
  EXPECT_EQ(foreign_close.at("error").as_string(), "unknown_session");
}

TEST_F(SessionManagerTest, MalformedFramesAnswerBadRequest) {
  SessionManager manager(server_);
  const std::uint64_t sid = open_session(manager);
  bool streaming = true;
  PushCapture pushes;
  const auto expect_bad = [&](const std::string& frame) {
    const Json reply = reply_of(
        manager.handle_frame(1, frame, pushes.fn(), &streaming));
    EXPECT_FALSE(reply.at("ok").as_bool()) << frame;
    EXPECT_EQ(reply.at("error").as_string(), "bad_request") << frame;
  };
  expect_bad("{not json");
  expect_bad("[1,2,3]");
  expect_bad("{\"id\":\"x\"}");  // no op
  expect_bad("{\"op\":\"subscribe\",\"id\":\"x\"}");
  // Wrong rates length surfaces FleetPredictor's invalid_argument as a
  // structured rejection, not a crash.
  expect_bad(observe_frame("x", sid, 1.0, {1.0, 2.0}));
  // Time must be non-decreasing within a session.
  Json ok = reply_of(manager.handle_frame(
      1, observe_frame("t1", sid, 5.0, calm_rates()), pushes.fn(),
      &streaming));
  ASSERT_TRUE(ok.at("ok").as_bool());
  expect_bad(observe_frame("t2", sid, 4.0, calm_rates()));
  EXPECT_EQ(manager.stats().rejected, 6u);
}

TEST_F(SessionManagerTest, NonFiniteOrHugeTimesRejected) {
  SessionManager manager(server_);
  const std::uint64_t sid = open_session(manager);
  bool streaming = true;
  PushCapture pushes;
  const auto expect_bad = [&](const std::string& frame) {
    const Json reply = reply_of(
        manager.handle_frame(1, frame, pushes.fn(), &streaming));
    EXPECT_FALSE(reply.at("ok").as_bool()) << frame;
    EXPECT_EQ(reply.at("error").as_string(), "bad_request") << frame;
  };
  // A huge observation time used to spin the deadline roll-forward loop
  // forever on the transport thread (1e300 makes `deadline += tau` a
  // double-precision no-op) — it must be a structured rejection instead.
  expect_bad(observe_frame("huge", sid, 1e300, calm_rates()));
  expect_bad(observe_frame("neg", sid, -1.0, calm_rates()));
  // Same bound applies to the open epoch.
  expect_bad("{\"v\":\"mwc.svc.stream.v1\",\"op\":\"open\",\"id\":\"o\","
             "\"base\":\"" +
             fingerprint_hex(fp_) + "\",\"t\":1e300}");

  // The session is still healthy: a sane observation is accepted.
  const Json ok = reply_of(manager.handle_frame(
      1, observe_frame("fine", sid, 1.0, calm_rates()), pushes.fn(),
      &streaming));
  EXPECT_TRUE(ok.at("ok").as_bool()) << ok.dump();
  EXPECT_EQ(manager.stats().rejected, 3u);
}

TEST_F(SessionManagerTest, FarFutureObserveIsBoundedWork) {
  SessionManager manager(server_);
  const std::uint64_t sid = open_session(manager);
  bool streaming = true;
  PushCapture pushes;
  // A jump spanning ~1e7 cycles stays within the validated time bound;
  // the closed-form deadline roll must absorb it instantly (the old
  // loop iterated once per missed cycle per sensor). Everybody drains
  // to zero over such a gap — the frame still answers.
  const Json far = reply_of(manager.handle_frame(
      1, observe_frame("far", sid, 1e8, calm_rates()), pushes.fn(),
      &streaming));
  ASSERT_TRUE(far.at("ok").as_bool()) << far.dump();
  EXPECT_EQ(far.at("dead").as_int(), std::int64_t(kN));
  // And time keeps advancing from there.
  const Json later = reply_of(manager.handle_frame(
      1, observe_frame("later", sid, 2e8, calm_rates()), pushes.fn(),
      &streaming));
  EXPECT_TRUE(later.at("ok").as_bool()) << later.dump();
}

TEST_F(SessionManagerTest, DropConnectionReapsItsSessions) {
  SessionManager manager(server_);
  const std::uint64_t mine = open_session(manager, /*conn=*/7);
  const std::uint64_t other = open_session(manager, /*conn=*/8);
  manager.drop_connection(7);

  bool streaming = true;
  PushCapture pushes;
  const Json gone = reply_of(manager.handle_frame(
      7, observe_frame("x", mine, 1.0, calm_rates()), pushes.fn(),
      &streaming));
  EXPECT_FALSE(gone.at("ok").as_bool());
  EXPECT_EQ(gone.at("error").as_string(), "unknown_session");

  // The other connection's session is untouched.
  const Json alive = reply_of(manager.handle_frame(
      8, observe_frame("y", other, 1.0, calm_rates()), pushes.fn(),
      &streaming));
  EXPECT_TRUE(alive.at("ok").as_bool());

  const StreamStats stats = manager.stats();
  EXPECT_EQ(stats.opened, 2u);
  EXPECT_EQ(stats.closed, 1u);
  EXPECT_EQ(stats.active, 1u);

  // Dropping a connection with no sessions is a no-op.
  manager.drop_connection(99);
  EXPECT_EQ(manager.stats().closed, 1u);
}

TEST(PlanVisitTimes, WalksToursAtTravelSpeed) {
  // Hand-built geometry: depot at origin, two sensors along +x.
  const wsn::Network network(
      {wsn::Sensor{0, {10.0, 0.0}, 1.0}, wsn::Sensor{1, {30.0, 0.0}, 1.0},
       wsn::Sensor{2, {50.0, 50.0}, 1.0}},  // sensor 2 not in the round
      /*base_station=*/{0.0, 0.0}, /*depots=*/{{0.0, 0.0}},
      geom::BBox::square(100.0));

  Plan plan;
  plan.first_round_tours.push_back(PlanTour{0, {0, 1}, 60.0});
  const auto times =
      plan_visit_times(plan, network, /*travel_speed=*/10.0,
                       /*charge_time=*/2.0);
  ASSERT_EQ(times.size(), 3u);
  EXPECT_DOUBLE_EQ(times[0], 1.0);        // 10 / 10
  EXPECT_DOUBLE_EQ(times[1], 1.0 + 2.0 + 2.0);  // + charge + 20/10
  EXPECT_TRUE(std::isinf(times[2]));
}

}  // namespace
}  // namespace mwc::svc
