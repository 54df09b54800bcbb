#include "svc/server.hpp"

#include <chrono>
#include <cstdio>
#include <random>
#include <utility>

#include "obs/obs.hpp"
#include "obs/span.hpp"
#include "svc/delta.hpp"
#include "svc/engine.hpp"

namespace mwc::svc {

namespace {

// Log-ish spaced millisecond buckets: sub-millisecond cache hits through
// multi-second cold solves.
constexpr double kLatencyBucketsMs[] = {0.1,  0.25, 0.5,  1.0,   2.5,  5.0,
                                        10.0, 25.0, 50.0, 100.0, 250.0,
                                        500.0, 1000.0, 2500.0, 5000.0,
                                        10000.0};

// Finer-grained buckets for the per-stage breakdown: parse and cache
// probes live in the microseconds, solves in the milliseconds+.
constexpr double kStageBucketsMs[] = {0.001, 0.005, 0.01,  0.025, 0.05,
                                      0.1,   0.25,  0.5,   1.0,   2.5,
                                      5.0,   10.0,  25.0,  50.0,  100.0,
                                      250.0, 1000.0};

/// Budgets at or above this (about 30 years) leave the solve unbounded:
/// the steady clock's nanosecond count cannot hold much more.
constexpr double kMaxSolveBudgetMs = 1e12;

/// Metric-name-safe policy label: lowercased, anything outside
/// [a-z0-9_] becomes '_' ("MinTotalDistance" -> "mintotaldistance"),
/// bounded so hostile policy strings can't bloat the registry.
std::string sanitize_label(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (out.size() >= 48) break;
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '_';
    out.push_back(ok ? c : '_');
  }
  return out;
}

double wall_clock_ms() {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

const std::string& job_id(const ParsedRequest& job) {
  return job.is_delta ? job.delta.id : job.full.id;
}

double job_deadline_ms(const ParsedRequest& job) {
  return job.is_delta ? job.delta.deadline_ms : job.full.deadline_ms;
}

WireVersion job_version(const ParsedRequest& job) {
  return job.is_delta ? WireVersion::kV2 : job.full.version;
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      cache_(options_.cache_capacity, options_.cache_shards),
      accepted_(metrics_.counter("svc.requests_accepted")),
      completed_(metrics_.counter("svc.completed")),
      rejected_full_(metrics_.counter("svc.rejected.queue_full")),
      rejected_shutdown_(metrics_.counter("svc.rejected.shutdown")),
      expired_(metrics_.counter("svc.deadline_expired")),
      latency_ms_(metrics_.histogram("svc.request_latency_ms",
                                     kLatencyBucketsMs)),
      pool_(std::make_unique<ThreadPool>(options_.threads)) {
  if (options_.queue_capacity == 0) options_.queue_capacity = 1;
  trace_prefix_ = (std::uint64_t(std::random_device{}()) << 32) ^
                  std::random_device{}();
  if (options_.recent_capacity > 0) recent_.reserve(options_.recent_capacity);
}

Server::~Server() { shutdown(); }

std::string Server::generate_trace_id() {
  // Per-server random salt x a golden-ratio-stepped sequence: ids are
  // unique within a server and effectively unique across restarts.
  const std::uint64_t seq =
      trace_seq_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t id = trace_prefix_ ^ (seq * 0x9e3779b97f4a7c15ULL);
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(id));
  return std::string(buf);
}

Server::Job Server::make_job(ParsedRequest parsed, std::string peer,
                             double parse_ms) {
  Job job;
  const std::string& supplied =
      parsed.is_delta ? parsed.delta.trace_id : parsed.full.trace_id;
  job.trace_supplied = !supplied.empty();
  job.trace_id = job.trace_supplied ? supplied : generate_trace_id();
  job.parsed = std::move(parsed);
  job.peer = std::move(peer);
  job.stages.parse_ms = parse_ms;
  return job;
}

bool Server::submit(Request request, ResponseCallback callback,
                    std::string peer) {
  ParsedRequest parsed;
  parsed.is_delta = false;
  parsed.full = std::move(request);
  return admit(make_job(std::move(parsed), std::move(peer), 0.0),
               std::move(callback));
}

bool Server::submit(DeltaRequest request, ResponseCallback callback,
                    std::string peer) {
  ParsedRequest parsed;
  parsed.is_delta = true;
  parsed.delta = std::move(request);
  return admit(make_job(std::move(parsed), std::move(peer), 0.0),
               std::move(callback));
}

bool Server::submit_line(const std::string& line, ResponseCallback callback,
                         std::string peer) {
  ParsedRequest parsed;
  const double parse_start_us = obs::now_us();
  try {
    parsed = parse_any_request(line);
  } catch (const UnsupportedVersionError& e) {
    MWC_OBS_COUNT("svc.unsupported_version");
    callback(error_response("", ErrorCode::kUnsupportedVersion, e.what()));
    return false;
  } catch (const WireError& e) {
    MWC_OBS_COUNT("svc.bad_request");
    callback(error_response("", ErrorCode::kBadRequest, e.what()));
    return false;
  }
  const double parse_ms = (obs::now_us() - parse_start_us) / 1000.0;
  return admit(make_job(std::move(parsed), std::move(peer), parse_ms),
               std::move(callback));
}

bool Server::admit(Job job, ResponseCallback callback) {
  const auto admitted = Clock::now();
  // Rejections echo the trace id under the same rule as completions:
  // always for v2, only when client-supplied for v1.
  const auto reject = [&](ErrorCode code, const std::string& message) {
    Response response = error_response(job_id(job.parsed), code, message);
    response.version = job_version(job.parsed);
    if (job.parsed.is_delta)
      response.base_fingerprint = job.parsed.delta.base_fingerprint;
    if (job.trace_supplied || response.version == WireVersion::kV2)
      response.trace_id = job.trace_id;
    callback(response);
  };
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) {
      rejected_shutdown_.add(1);
      MWC_OBS_COUNT("svc.rejected.shutdown");
      reject(ErrorCode::kShuttingDown, "server is shutting down");
      return false;
    }
    if (in_flight_ >= options_.queue_capacity) {
      rejected_full_.add(1);
      MWC_OBS_COUNT("svc.rejected.queue_full");
      reject(ErrorCode::kQueueFull,
             "queue full (capacity " +
                 std::to_string(options_.queue_capacity) + ")");
      return false;
    }
    ++in_flight_;
    accepted_.add(1);
    MWC_OBS_COUNT("svc.requests_accepted");
  }
  // The pool queue is unbounded and its submit() only throws after the
  // pool starts stopping, which shutdown() orders strictly after the
  // in-flight drain — so this enqueue cannot fail for admitted work.
  pool_->submit([this, job = std::move(job), callback = std::move(callback),
                 admitted]() mutable {
    Response response = process(job, admitted);
    finish(job, std::move(response), callback);
  });
  return true;
}

Response Server::process(Job& job, Clock::time_point admitted) {
  const auto elapsed_ms = [admitted] {
    return std::chrono::duration<double, std::milli>(Clock::now() - admitted)
        .count();
  };
  job.stages.queue_ms = elapsed_ms();
  const ParsedRequest& parsed = job.parsed;
  const auto job_error = [&](ErrorCode code, const std::string& message) {
    Response response =
        error_response(job_id(parsed), code, message, elapsed_ms());
    response.version = job_version(parsed);
    if (parsed.is_delta)
      response.base_fingerprint = parsed.delta.base_fingerprint;
    return response;
  };

  const double deadline_ms = job_deadline_ms(parsed);
  if (deadline_ms > 0.0 && job.stages.queue_ms > deadline_ms) {
    expired_.add(1);
    MWC_OBS_COUNT("svc.deadline_expired");
    return job_error(ErrorCode::kDeadlineExceeded,
                     "deadline of " + std::to_string(deadline_ms) +
                         " ms expired in the queue");
  }
  // What is left of the budget bounds the solve itself. A budget past
  // kMaxSolveBudgetMs is no bound, and would overflow the clock.
  Clock::time_point solve_deadline = Clock::time_point::max();
  if (deadline_ms > 0.0 && deadline_ms < kMaxSolveBudgetMs)
    solve_deadline =
        admitted + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double, std::milli>(deadline_ms));

  // Every span opened on this worker while the handler runs — engine,
  // delta repair, solver internals — carries this request's trace id.
  Fnv1a trace_hash;
  trace_hash.str(job.trace_id);
  obs::TraceContext trace_scope(trace_hash.value());
  Response response;
  try {
    if (parsed.is_delta) {
      response = handle_delta(parsed.delta, &cache_, &job.stages);
    } else {
      response = options_.handler ? options_.handler(parsed.full)
                                  : handle_request(parsed.full, &cache_,
                                                   &job.stages,
                                                   solve_deadline);
    }
  } catch (const std::exception& e) {
    response = job_error(ErrorCode::kInternal, e.what());
  } catch (...) {
    response = job_error(ErrorCode::kInternal, "unknown handler failure");
  }
  if (response.error == ErrorCode::kDeadlineExceeded) {
    expired_.add(1);
    MWC_OBS_COUNT("svc.deadline_expired");
  }
  // Report full admission -> completion latency (queueing included),
  // not just the handler's own solve time.
  response.latency_ms = elapsed_ms();
  return response;
}

void Server::finish(const Job& job, Response response,
                    const ResponseCallback& callback) {
  // Wire echo policy: v2 responses always carry a trace id (generated if
  // need be); v1 echoes only client-supplied ids so pre-tracing v1
  // responses stay byte-identical. Timings ride with the trace id.
  response.version = job_version(job.parsed);
  if (job.trace_supplied || response.version == WireVersion::kV2) {
    response.trace_id = job.trace_id;
  } else {
    response.trace_id.clear();
  }
  response.stages.parse_ms = job.stages.parse_ms;
  response.stages.queue_ms = job.stages.queue_ms;
  response.stages.cache_ms = job.stages.cache_ms;
  response.stages.solve_ms = job.stages.solve_ms;
  response.has_timings = !response.trace_id.empty();
  if (response.policy.empty() && !job.parsed.is_delta)
    response.policy = job.parsed.full.policy;

  completed_.add(1);
  MWC_OBS_COUNT("svc.completed");
  latency_ms_.observe(response.latency_ms);
  MWC_OBS_HISTOGRAM("svc.request_latency_ms", response.latency_ms, 0.1,
                    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0,
                    250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0);
  const double serialize_start_us = obs::now_us();
  try {
    callback(response);
  } catch (...) {
    // A throwing sink must not leak a worker or wedge the drain.
  }
  response.stages.serialize_ms =
      (obs::now_us() - serialize_start_us) / 1000.0;

  record_stages(job, response);

  RequestRecord record;
  record.trace_id = job.trace_id;
  record.id = response.id;
  record.peer = job.peer;
  record.policy = response.policy;
  record.version = response.version;
  record.is_delta = job.parsed.is_delta;
  record.ok = response.ok;
  record.error = response.error;
  record.cached = response.cached;
  record.derived = response.derived;
  record.latency_ms = response.latency_ms;
  record.stages = response.stages;
  record.ts_ms = static_cast<std::int64_t>(wall_clock_ms());
  if (options_.access_log != nullptr) options_.access_log->write(record);
  if (options_.recent_capacity > 0) {
    std::lock_guard<std::mutex> lock(recent_mutex_);
    if (recent_.size() < options_.recent_capacity) {
      recent_.push_back(std::move(record));
    } else {
      recent_[recent_head_] = std::move(record);
      recent_head_ = (recent_head_ + 1) % options_.recent_capacity;
    }
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    --in_flight_;
  }
  drained_cv_.notify_all();
}

void Server::record_stages(const Job& job, const Response& response) {
  struct StageValue {
    const char* name;
    double ms;
  };
  const StageValue stages[] = {
      {"parse", response.stages.parse_ms},
      {"queue", response.stages.queue_ms},
      {"cache", response.stages.cache_ms},
      {"solve", response.stages.solve_ms},
      {"serialize", response.stages.serialize_ms},
  };
  const char* version_label =
      job_version(job.parsed) == WireVersion::kV2 ? "v2" : "v1";
  const std::string policy_label = sanitize_label(
      response.policy.empty() ? std::string("none") : response.policy);
  for (const StageValue& s : stages) {
    const std::string base = std::string("svc.stage.") + s.name + "_ms";
    metrics_.histogram(base, kStageBucketsMs).observe(s.ms);
    const std::string keyed = base + "." + version_label + "." + policy_label;
    metrics_.histogram(keyed, kStageBucketsMs).observe(s.ms);
#if MWC_OBS_ENABLED
    obs::Registry::global().histogram(base, kStageBucketsMs).observe(s.ms);
    obs::Registry::global().histogram(keyed, kStageBucketsMs).observe(s.ms);
#endif
  }
}

void Server::shutdown() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    stopping_ = true;
    drained_cv_.wait(lock, [this] { return in_flight_ == 0; });
  }
  pool_.reset();  // joins workers; idempotent (reset of null is a no-op)
}

std::size_t Server::in_flight() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return in_flight_;
}

std::vector<RequestRecord> Server::recent_requests() const {
  std::lock_guard<std::mutex> lock(recent_mutex_);
  return recent_;
}

}  // namespace mwc::svc
