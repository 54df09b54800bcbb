#include "svc/server.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace mwc::svc {
namespace {

Request tiny_request(const std::string& id) {
  Request request;
  request.id = id;
  request.network.deployment.n = 12;
  request.network.deployment.q = 2;
  request.network.deployment.field_side = 100.0;
  request.network.seed = 5;
  request.horizon = 50.0;
  return request;
}

Response ok_response(const std::string& id) {
  Response response;
  response.id = id;
  response.ok = true;
  return response;
}

/// Handler whose requests block until release() — lets tests hold the
/// queue at a known occupancy.
class Gate {
 public:
  Handler handler() {
    return [this](const Request& request) {
      std::unique_lock<std::mutex> lock(mutex_);
      ++entered_;
      entered_cv_.notify_all();
      release_cv_.wait(lock, [this] { return released_; });
      return ok_response(request.id);
    };
  }

  void wait_entered(std::size_t count) {
    std::unique_lock<std::mutex> lock(mutex_);
    entered_cv_.wait(lock, [&] { return entered_ >= count; });
  }

  void release() {
    std::lock_guard<std::mutex> lock(mutex_);
    released_ = true;
    release_cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable entered_cv_;
  std::condition_variable release_cv_;
  std::size_t entered_ = 0;
  bool released_ = false;
};

TEST(Server, FullQueueRejectsSynchronouslyWithStructuredError) {
  Gate gate;
  ServerOptions options;
  options.queue_capacity = 2;
  options.threads = 1;
  options.handler = gate.handler();
  Server server(options);

  std::mutex mutex;
  std::vector<Response> accepted_responses;
  const auto collect = [&](const Response& r) {
    std::lock_guard<std::mutex> lock(mutex);
    accepted_responses.push_back(r);
  };

  // Fill the queue: one solving (blocked in the gate), one waiting.
  ASSERT_TRUE(server.submit(tiny_request("a"), collect));
  ASSERT_TRUE(server.submit(tiny_request("b"), collect));
  gate.wait_entered(1);
  EXPECT_EQ(server.in_flight(), 2u);

  // Third submit must be rejected immediately — structured error, no
  // blocking, no crash.
  Response rejection;
  bool callback_ran = false;
  const bool admitted =
      server.submit(tiny_request("c"), [&](const Response& r) {
        rejection = r;
        callback_ran = true;
      });
  EXPECT_FALSE(admitted);
  ASSERT_TRUE(callback_ran);  // synchronous
  EXPECT_FALSE(rejection.ok);
  EXPECT_EQ(rejection.error, ErrorCode::kQueueFull);
  EXPECT_EQ(rejection.id, "c");
  EXPECT_NE(rejection.message.find("capacity 2"), std::string::npos);
  EXPECT_EQ(server.metrics().snapshot().counters.at(
                "svc.rejected.queue_full"),
            1u);

  gate.release();
  server.shutdown();
  EXPECT_EQ(accepted_responses.size(), 2u);
  for (const auto& r : accepted_responses) EXPECT_TRUE(r.ok);
}

TEST(Server, ShutdownDrainsAcceptedWorkThenRejects) {
  Gate gate;
  ServerOptions options;
  options.queue_capacity = 8;
  options.threads = 1;
  options.handler = gate.handler();
  Server server(options);

  std::atomic<int> answered{0};
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(server.submit(tiny_request("d" + std::to_string(i)),
                              [&](const Response& r) {
                                EXPECT_TRUE(r.ok);
                                ++answered;
                              }));
  }
  gate.wait_entered(1);

  // Shut down from another thread while work is still gated; it must
  // block until all four accepted requests are answered.
  auto drained = std::async(std::launch::async, [&] { server.shutdown(); });
  EXPECT_EQ(drained.wait_for(std::chrono::milliseconds(50)),
            std::future_status::timeout);
  gate.release();
  drained.get();
  EXPECT_EQ(answered.load(), 4);
  EXPECT_EQ(server.in_flight(), 0u);

  // Post-shutdown submits are rejected synchronously.
  Response rejection;
  EXPECT_FALSE(server.submit(tiny_request("late"),
                             [&](const Response& r) { rejection = r; }));
  EXPECT_EQ(rejection.error, ErrorCode::kShuttingDown);
  const auto counters = server.metrics().snapshot().counters;
  EXPECT_EQ(counters.at("svc.requests_accepted"), 4u);
  EXPECT_EQ(counters.at("svc.completed"), 4u);
  EXPECT_EQ(counters.at("svc.rejected.shutdown"), 1u);
}

TEST(Server, ExpiredDeadlineSkipsSolving) {
  Gate gate;
  ServerOptions options;
  options.queue_capacity = 4;
  options.threads = 1;
  options.handler = gate.handler();
  Server server(options);

  // First request occupies the only worker...
  server.submit(tiny_request("blocker"), [](const Response&) {});
  gate.wait_entered(1);

  // ...so this one waits in the queue past its 1 ms deadline.
  Request hurried = tiny_request("hurried");
  hurried.deadline_ms = 1.0;
  std::promise<Response> answered;
  ASSERT_TRUE(server.submit(hurried, [&](const Response& r) {
    answered.set_value(r);
  }));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  gate.release();
  const Response response = answered.get_future().get();
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.error, ErrorCode::kDeadlineExceeded);
  EXPECT_GE(response.latency_ms, 1.0);
  server.shutdown();
  EXPECT_EQ(server.metrics().snapshot().counters.at("svc.deadline_expired"),
            1u);
}

TEST(Server, SubmitLineParsesAndReportsBadLines) {
  ServerOptions options;
  options.threads = 1;
  options.handler = [](const Request& request) {
    return ok_response(request.id);
  };
  Server server(options);

  Response bad;
  EXPECT_FALSE(server.submit_line("{not json", [&](const Response& r) {
    bad = r;
  }));
  EXPECT_EQ(bad.error, ErrorCode::kBadRequest);

  std::promise<Response> answered;
  EXPECT_TRUE(server.submit_line(
      R"({"v":"mwc.svc.v1","id":"L1","network":{"preset":{"n":5,"q":1}},)"
      R"("cycles":{"values":[1,1,1,1,1]}})",
      [&](const Response& r) { answered.set_value(r); }));
  EXPECT_TRUE(answered.get_future().get().ok);
  server.shutdown();
}

TEST(Server, DispatchCapProbesGetStructuredErrorsAndServingGoesOn) {
  ServerOptions options;
  options.threads = 1;
  Server server(options);  // default engine: the simulator really runs
  const auto submit = [&](const std::string& line) {
    std::promise<Response> answered;
    server.submit_line(line, [&](const Response& r) {
      answered.set_value(r);
    });
    return answered.get_future().get();
  };
  const std::string network =
      R"("network":{"preset":{"n":6,"q":2,"seed":3}},)";
  // ⌈horizon / smallest τ⌉ beyond the simulator's dispatch cap: a long
  // horizon, or a tiny τ, is rejected at admission.
  for (const std::string& probe :
       {R"({"v":"mwc.svc.v1","id":"p1",)" + network +
            R"("cycles":{"model":{"tau_min":1,"tau_max":5}},"horizon":1e15})",
        R"({"v":"mwc.svc.v1","id":"p2",)" + network +
            R"("cycles":{"model":{"tau_min":1e-9,"tau_max":5}}})",
        R"({"v":"mwc.svc.v1","id":"p3",)" + network +
            R"("cycles":{"values":[1,1,1,1,1,1e-9]}})"}) {
    const Response r = submit(probe);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.error, ErrorCode::kBadRequest) << r.message;
    EXPECT_NE(r.message.find("dispatch"), std::string::npos) << r.message;
  }
  // The same server still answers the next request.
  const Response next = submit(R"({"v":"mwc.svc.v1","id":"ok",)" + network +
                               R"("cycles":{"model":{"tau_min":1,)"
                               R"("tau_max":5}},"horizon":20})");
  EXPECT_TRUE(next.ok) << next.message;
  EXPECT_EQ(next.id, "ok");
  server.shutdown();
}

TEST(Server, DeadlineBoundsTheSolveAndServingGoesOn) {
  ServerOptions options;
  options.threads = 1;
  Server server(options);  // default engine: the simulator really runs
  const auto submit = [&](const std::string& line) {
    std::promise<Response> answered;
    server.submit_line(line, [&](const Response& r) {
      answered.set_value(r);
    });
    return answered.get_future().get();
  };
  const std::string instance =
      R"("network":{"preset":{"n":200,"q":5,"seed":3}},)"
      R"("cycles":{"model":{"tau_min":1,"tau_max":20}},)";
  // A million rounds hold a worker for seconds; the deadline ends the
  // horizon loop soon after it passes.
  const auto start = std::chrono::steady_clock::now();
  const Response r = submit(R"({"v":"mwc.svc.v1","id":"long",)" + instance +
                            R"("horizon":1e6,"deadline_ms":100})");
  const double waited_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - start)
                               .count();
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error, ErrorCode::kDeadlineExceeded) << r.message;
  EXPECT_EQ(r.id, "long");
  EXPECT_LT(waited_ms, 1000.0);
  // The same server still answers the next request, deadline or not.
  const Response next = submit(R"({"v":"mwc.svc.v1","id":"ok",)" + instance +
                               R"("horizon":20,"deadline_ms":60000})");
  EXPECT_TRUE(next.ok) << next.message;
  EXPECT_EQ(next.id, "ok");
  server.shutdown();
  EXPECT_EQ(server.metrics().snapshot().counters.at("svc.deadline_expired"),
            1u);
}

TEST(Server, WorkBeyondTheBoundIsRejectedAndServingGoesOn) {
  ServerOptions options;
  options.threads = 1;
  Server server(options);  // default engine: the simulator really runs
  const auto submit = [&](const std::string& line) {
    std::promise<Response> answered;
    server.submit_line(line, [&](const Response& r) {
      answered.set_value(r);
    });
    return answered.get_future().get();
  };
  const std::string cycles =
      R"("cycles":{"model":{"tau_min":1,"tau_max":20}},)";
  // 10^5 sensors × 10^4 rounds: each factor within its cap, the product
  // 4× the work bound. No deadline, so only admission can refuse it.
  const auto start = std::chrono::steady_clock::now();
  const Response r =
      submit(R"({"v":"mwc.svc.v1","id":"huge",)"
             R"("network":{"preset":{"n":100000,"q":5,"seed":3}},)" +
             cycles + R"("horizon":1e4})");
  const double waited_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - start)
                               .count();
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error, ErrorCode::kBadRequest);
  EXPECT_NE(r.message.find("work bound"), std::string::npos) << r.message;
  EXPECT_LT(waited_ms, 1000.0);
  const Response next =
      submit(R"({"v":"mwc.svc.v1","id":"ok",)"
             R"("network":{"preset":{"n":60,"q":3,"seed":5}},)" +
             cycles + R"("horizon":50})");
  EXPECT_TRUE(next.ok) << next.message;
  EXPECT_EQ(next.id, "ok");
  server.shutdown();
}

TEST(Server, GeometryAndSlotProbesGetStructuredErrorsAndServingGoesOn) {
  ServerOptions options;
  options.threads = 1;
  Server server(options);  // default engine: the solver really runs
  const auto submit = [&](const std::string& line) {
    std::promise<Response> answered;
    server.submit_line(line, [&](const Response& r) {
      answered.set_value(r);
    });
    return answered.get_future().get();
  };
  const std::string cycles =
      R"("cycles":{"model":{"tau_min":1,"tau_max":5}},)";
  const std::string preset = R"("network":{"preset":{"n":6,"q":2,"seed":3}},)";
  for (const std::string& probe :
       {// A sensor at 1e300 used to abort in the MST ("graph must be
        // connected"); a 1e300 field in the cycle rounding.
        std::string(R"({"v":"mwc.svc.v1","id":"p1","network":{)"
                    R"("sensors":[[1e300,5],[10,10]],"depots":[[0,0]],)"
                    R"("base":[0,0]},"cycles":{"values":[5,5]}})"),
        R"({"v":"mwc.svc.v1","id":"p2","network":{"preset":{"n":6,"q":2,)"
        R"("field":1e300}},)" +
            cycles + R"("horizon":20})",
        // Negative and vanishing slot lengths.
        R"({"v":"mwc.svc.v1","id":"p3",)" + preset + cycles +
            R"("horizon":20,"slot_length":-1})",
        R"({"v":"mwc.svc.v1","id":"p4",)" + preset + cycles +
            R"("horizon":100,"slot_length":1e-7})"}) {
    const Response r = submit(probe);
    EXPECT_FALSE(r.ok) << probe;
    EXPECT_EQ(r.error, ErrorCode::kBadRequest) << r.message;
  }
  const Response next = submit(R"({"v":"mwc.svc.v1","id":"ok",)" + preset +
                               cycles + R"("horizon":20})");
  EXPECT_TRUE(next.ok) << next.message;
  EXPECT_EQ(next.id, "ok");
  server.shutdown();
}

TEST(Server, UnknownVersionLineGetsStructuredError) {
  ServerOptions options;
  options.threads = 1;
  options.handler = [](const Request& request) {
    return ok_response(request.id);
  };
  Server server(options);

  Response rejected;
  EXPECT_FALSE(server.submit_line(
      R"({"v":"mwc.svc.v99","id":"x","network":{"preset":{"n":1,"q":1}},)"
      R"("cycles":{"values":[1]}})",
      [&](const Response& r) { rejected = r; }));
  EXPECT_EQ(rejected.error, ErrorCode::kUnsupportedVersion);
  EXPECT_EQ(rejected.id, "");
  server.shutdown();
}

TEST(Server, DeltaRequestsFlowThroughSubmitAndSubmitLine) {
  ServerOptions options;
  options.threads = 1;
  options.queue_capacity = 8;
  options.cache_capacity = 8;
  Server server(options);

  std::promise<Response> solved;
  ASSERT_TRUE(server.submit(tiny_request("base"), [&](const Response& r) {
    solved.set_value(r);
  }));
  const Response base = solved.get_future().get();
  ASSERT_TRUE(base.ok) << base.message;

  // Typed delta submit.
  std::promise<Response> derived;
  ASSERT_TRUE(server.submit(DeltaBuilder("d1", base.plan->fingerprint)
                                .move_sensor(2, {10.0, 10.0})
                                .build(),
                            [&](const Response& r) {
                              derived.set_value(r);
                            }));
  const Response typed = derived.get_future().get();
  ASSERT_TRUE(typed.ok) << typed.message;
  EXPECT_TRUE(typed.derived);
  EXPECT_EQ(typed.base_fingerprint, base.plan->fingerprint);
  EXPECT_EQ(typed.version, WireVersion::kV2);

  // Same patch over the wire form: a derived-plan cache hit.
  std::promise<Response> again;
  ASSERT_TRUE(server.submit_line(DeltaBuilder("d2", base.plan->fingerprint)
                                     .move_sensor(2, {10.0, 10.0})
                                     .to_json_line(),
                                 [&](const Response& r) {
                                   again.set_value(r);
                                 }));
  const Response wire = again.get_future().get();
  ASSERT_TRUE(wire.ok) << wire.message;
  EXPECT_TRUE(wire.cached);
  EXPECT_EQ(wire.plan->fingerprint, typed.plan->fingerprint);

  // Unknown base comes back structured, with the fingerprint echoed.
  std::promise<Response> orphan;
  ASSERT_TRUE(server.submit(
      DeltaBuilder("d3", 0x1234).remove_sensor(0).build(),
      [&](const Response& r) { orphan.set_value(r); }));
  const Response unknown = orphan.get_future().get();
  EXPECT_FALSE(unknown.ok);
  EXPECT_EQ(unknown.error, ErrorCode::kUnknownBase);
  EXPECT_EQ(unknown.base_fingerprint, 0x1234u);
  server.shutdown();
}

TEST(Server, LatencyHistogramObservesEveryCompletion) {
  ServerOptions options;
  options.threads = 2;
  options.handler = [](const Request& request) {
    return ok_response(request.id);
  };
  Server server(options);
  std::atomic<int> answered{0};
  for (int i = 0; i < 10; ++i)
    server.submit(tiny_request("h" + std::to_string(i)),
                  [&](const Response&) { ++answered; });
  server.shutdown();
  EXPECT_EQ(answered.load(), 10);
  const auto snapshot = server.metrics().snapshot();
  const auto& hist = snapshot.histograms.at("svc.request_latency_ms");
  EXPECT_EQ(hist.count, 10u);
  EXPECT_GE(hist.quantile(0.99), hist.quantile(0.5));
}

TEST(Server, V1EchoesSuppliedTraceIdAndTimings) {
  ServerOptions options;
  options.threads = 1;
  Server server(options);

  // Client-supplied trace id: echoed verbatim with stage timings.
  std::promise<Response> traced;
  Request with_trace = tiny_request("t1");
  with_trace.trace_id = "client-abc";
  ASSERT_TRUE(server.submit(std::move(with_trace), [&](const Response& r) {
    traced.set_value(r);
  }));
  const Response echoed = traced.get_future().get();
  ASSERT_TRUE(echoed.ok) << echoed.message;
  EXPECT_EQ(echoed.trace_id, "client-abc");
  EXPECT_TRUE(echoed.has_timings);
  EXPECT_GT(echoed.stages.solve_ms, 0.0);

  // No client trace id on v1: the response omits it (byte-stability).
  std::promise<Response> plain;
  ASSERT_TRUE(server.submit(tiny_request("t2"), [&](const Response& r) {
    plain.set_value(r);
  }));
  const Response untraced = plain.get_future().get();
  ASSERT_TRUE(untraced.ok);
  EXPECT_TRUE(untraced.trace_id.empty());
  EXPECT_FALSE(untraced.has_timings);
  server.shutdown();
}

TEST(Server, V2ResponsesAlwaysCarryAGeneratedTraceId) {
  ServerOptions options;
  options.threads = 1;
  options.cache_capacity = 4;
  Server server(options);

  std::promise<Response> solved;
  ASSERT_TRUE(server.submit(tiny_request("base"), [&](const Response& r) {
    solved.set_value(r);
  }));
  const Response base = solved.get_future().get();
  ASSERT_TRUE(base.ok) << base.message;

  // v2 delta without a client trace id: the server generates a 16-hex
  // id and echoes it.
  std::promise<Response> derived;
  ASSERT_TRUE(server.submit(DeltaBuilder("d1", base.plan->fingerprint)
                                .move_sensor(1, {5.0, 5.0})
                                .build(),
                            [&](const Response& r) {
                              derived.set_value(r);
                            }));
  const Response v2 = derived.get_future().get();
  ASSERT_TRUE(v2.ok) << v2.message;
  ASSERT_EQ(v2.trace_id.size(), 16u);
  EXPECT_EQ(v2.trace_id.find_first_not_of("0123456789abcdef"),
            std::string::npos);
  EXPECT_TRUE(v2.has_timings);
  server.shutdown();
}

TEST(Server, RecentRequestRingKeepsNewestUpToCapacity) {
  ServerOptions options;
  options.threads = 1;
  options.recent_capacity = 4;
  options.handler = [](const Request& request) {
    return ok_response(request.id);
  };
  Server server(options);
  for (int i = 0; i < 7; ++i) {
    std::promise<Response> answered;
    ASSERT_TRUE(server.submit(tiny_request("r" + std::to_string(i)),
                              [&](const Response& r) {
                                answered.set_value(r);
                              }));
    answered.get_future().get();
  }
  server.shutdown();
  const auto recent = server.recent_requests();
  ASSERT_EQ(recent.size(), 4u);
  // The four newest ids survive, the first three were overwritten.
  std::size_t newest = 0;
  for (const auto& record : recent) {
    EXPECT_NE(record.id, "r0");
    EXPECT_NE(record.id, "r1");
    EXPECT_NE(record.id, "r2");
    if (record.id == "r6") ++newest;
  }
  EXPECT_EQ(newest, 1u);
}

TEST(Server, EndToEndSolvesThroughDefaultEngineHandler) {
  ServerOptions options;
  options.threads = 2;
  options.queue_capacity = 16;
  options.cache_capacity = 8;
  Server server(options);

  std::vector<Response> responses;
  for (int i = 0; i < 3; ++i) {
    // Identical instances, submitted one at a time so the first solve
    // has deterministically populated the cache before the next probe.
    std::promise<Response> answered;
    ASSERT_TRUE(server.submit(tiny_request("e" + std::to_string(i)),
                              [&](const Response& r) {
                                answered.set_value(r);
                              }));
    responses.push_back(answered.get_future().get());
  }
  server.shutdown();
  ASSERT_EQ(responses.size(), 3u);
  std::size_t cached = 0;
  const Plan* plan = nullptr;
  for (const auto& r : responses) {
    ASSERT_TRUE(r.ok) << r.message;
    ASSERT_NE(r.plan, nullptr);
    if (plan == nullptr) plan = r.plan.get();
    EXPECT_DOUBLE_EQ(r.plan->total_distance, plan->total_distance);
    if (r.cached) ++cached;
  }
  EXPECT_EQ(server.cache().misses(), 1u);
  EXPECT_EQ(cached, 2u);
  EXPECT_EQ(server.cache().hits(), 2u);
}

}  // namespace
}  // namespace mwc::svc
