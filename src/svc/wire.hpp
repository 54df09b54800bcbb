// mwc::svc wire format — versioned JSONL requests and responses.
//
// One request per line, one response per line, matched by `id`. A request
// names a scheduling problem instance (a network carried inline or as a
// generator preset, a cycle assignment, a policy registry name, horizon /
// slot parameters) plus service-level fields (deadline). The schema is
// versioned: "v" is "mwc.svc.v1" or "mwc.svc.v2"; a request without the
// field is treated as v1, and unknown versions are rejected with the
// structured `unsupported_version` error. Responses echo the negotiated
// version. See docs/SERVICE.md.
//
// Full request example (preset network, fixed cycles from a model):
//
//   {"v":"mwc.svc.v1","id":"r1","policy":"MinTotalDistance",
//    "network":{"preset":{"n":200,"q":5,"field":1000,"seed":7}},
//    "cycles":{"model":{"dist":"linear","tau_min":1,"tau_max":50,
//                       "sigma":2,"seed":11}},
//    "horizon":1000,"slot_length":0,"improve":false,"deadline_ms":500}
//
// Inline variants carry "network":{"sensors":[[x,y],...],
// "depots":[[x,y],...],"base":[x,y]} and "cycles":{"values":[...]}.
//
// v2 adds the delta form — a patch against a previously solved base plan,
// selected by the presence of "base" (the base plan's fingerprint):
//
//   {"v":"mwc.svc.v2","id":"d1","base":"0c0f1095d4693a41",
//    "patch":[{"op":"move_sensor","sensor":3,"pos":[120.5,80.0]},
//             {"op":"add_sensor","pos":[40.0,60.0],"tau":5.0}],
//    "deadline_ms":250}
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "geom/point.hpp"
#include "wsn/cycles.hpp"
#include "wsn/deployment.hpp"

namespace mwc::svc {

inline constexpr const char* kWireVersion = "mwc.svc.v1";
inline constexpr const char* kWireVersionV2 = "mwc.svc.v2";
/// Streaming-session frames ({"op":"open"/"observe"/"close"} plus the
/// server-initiated {"op":"plan"} push) carry this version string and
/// are routed to svc::SessionManager instead of parse_any_request.
/// See docs/SERVICE.md and svc/session.hpp.
inline constexpr const char* kWireVersionStream = "mwc.svc.stream.v1";

/// Negotiated protocol version. Requests without "v" default to kV1 so
/// pre-versioning clients keep working byte-for-byte.
enum class WireVersion { kV1 = 1, kV2 = 2 };

/// Stable wire spelling of a version ("mwc.svc.v1" / "mwc.svc.v2").
const char* wire_version_name(WireVersion version);

/// Problem network: either generator-preset parameters (the server runs
/// wsn::deploy_random) or inline geometry.
struct NetworkSpec {
  bool inline_points = false;

  // Preset form.
  wsn::DeploymentConfig deployment;  ///< n, q, field side, depot-at-BS
  std::uint64_t seed = 1;            ///< topology stream seed

  // Inline form (field side still used for the bounding box).
  std::vector<geom::Point> sensors;
  std::vector<geom::Point> depots;
  geom::Point base_station;
};

/// Per-sensor maximum charging cycles: explicit values (held for every
/// slot) or a synthetic wsn::CycleModel drawn server-side.
struct CycleSpec {
  bool inline_values = false;
  std::vector<double> values;  ///< inline: τ_i, one per sensor
  wsn::CycleModelConfig model;
  std::uint64_t seed = 1;
};

/// Maximum accepted length of a client-supplied trace id (longer ids
/// are rejected with bad_request so access-log lines stay bounded).
inline constexpr std::size_t kMaxTraceIdLength = 128;

/// Largest network.preset "n" and "q" a request may ask for (larger or
/// negative values are rejected with bad_request).
inline constexpr std::size_t kMaxPresetSize = 100'000;

/// Largest n × ⌈horizon / smallest τ⌉ (and n × ⌈horizon / slot_length⌉)
/// a full request may ask for, in sensor-rounds. The horizon loop ages
/// all n sensors at every round and slot boundary, so this product bounds
/// a solve's work whatever the deadline; larger requests are rejected
/// with bad_request. 2e8 sensor-rounds (n=200, horizon 1e6, τ ≥ 1) ran
/// for 0.9 s on a 4-vCPU AVX-512 host, so the bound is about a second of
/// horizon loop there, against ≈1e12 that n and the round cap allowed
/// apart. The n=100 000 preset at horizon 50 and τ_min 1 asks for 5e6.
inline constexpr double kMaxSensorRounds = 2.5e8;

/// Every coordinate a request carries (sensors, depots, base, patch
/// positions) and every field side must be finite and either 0 or of
/// magnitude in [kMinCoordinate, kMaxCoordinate]; anything else is
/// rejected with bad_request. The upper bound keeps distances and the
/// deployment arithmetic finite. Both bounds keep the q-rooted MSF's
/// exact Delaunay predicates inside their exact domain
/// (geom::kMinExactMagnitude, geom::kMaxExactMagnitude), including the
/// preset positions drawn uniformly in [0, field).
inline constexpr double kMaxCoordinate = 1e6;
inline constexpr double kMinCoordinate = 1e-30;

/// Per-request stage breakdown, filled in by the server as a request
/// moves through the pipeline. Milliseconds, wall clock. `serialize_ms`
/// is measured *around* the response callback, so it can only appear in
/// the access log and tracez ring — never in the wire echo.
struct StageTimings {
  double parse_ms = 0.0;      ///< JSONL line -> ParsedRequest
  double queue_ms = 0.0;      ///< admission -> worker dequeue
  double cache_ms = 0.0;      ///< instance resolve + plan-cache probe
  double solve_ms = 0.0;      ///< sim::solve_network / sim::replan_round
  double serialize_ms = 0.0;  ///< Response -> JSONL line + write
};

struct Request {
  std::string id;
  /// Optional client-supplied trace id, echoed in the response and used
  /// to correlate spans / access-log lines. Empty = server generates one
  /// (echoed on v2; omitted from v1 echoes to keep pre-tracing v1
  /// responses byte-identical).
  std::string trace_id;
  WireVersion version = WireVersion::kV1;
  std::string policy = "MinTotalDistance";
  NetworkSpec network;
  CycleSpec cycles;
  double horizon = 1000.0;
  double slot_length = 0.0;  ///< <= 0 freezes cycles (fixed-τ setting)
  bool improve = false;      ///< polish tours with 2-opt/Or-opt
  /// Soft deadline measured from admission; a request still queued when
  /// it expires is answered with `deadline_exceeded` instead of solved.
  /// 0 = no deadline.
  double deadline_ms = 0.0;
};

/// One mutation in a v2 delta patch list. Sensor/charger ids always
/// reference the *base* instance; sensors added earlier in the same
/// patch list cannot be referenced by later ops.
enum class PatchOpKind {
  kAddSensor,     ///< {"op":"add_sensor","pos":[x,y],"tau":v}
  kRemoveSensor,  ///< {"op":"remove_sensor","sensor":i}
  kMoveSensor,    ///< {"op":"move_sensor","sensor":i,"pos":[x,y]}
  kUpdateCycles,  ///< {"op":"update_cycles","sensor":i,"tau":v}
  kChargerDown,   ///< {"op":"charger_down","charger":l}
  kChargerUp,     ///< {"op":"charger_up","charger":l}
};

/// Stable wire spelling of a patch op ("add_sensor", ...).
const char* patch_op_name(PatchOpKind kind);

struct PatchOp {
  PatchOpKind kind = PatchOpKind::kAddSensor;
  std::size_t target = 0;  ///< base sensor id or charger id (op-dependent)
  geom::Point pos{};       ///< add_sensor / move_sensor
  double tau = 0.0;        ///< add_sensor / update_cycles
};

/// v2 delta request: repair the cached plan identified by
/// `base_fingerprint` under a list of patch ops instead of re-solving.
struct DeltaRequest {
  std::string id;
  std::string trace_id;  ///< same semantics as Request::trace_id
  std::uint64_t base_fingerprint = 0;
  std::vector<PatchOp> patch;
  double deadline_ms = 0.0;  ///< same semantics as Request::deadline_ms
};

/// One parsed request line: exactly one of the two forms is active.
/// v1 lines always parse as full requests; v2 lines parse as deltas
/// when the "base" key is present.
struct ParsedRequest {
  bool is_delta = false;
  Request full;        ///< valid iff !is_delta
  DeltaRequest delta;  ///< valid iff is_delta
};

/// One charger's closed tour within the plan's first charging round.
struct PlanTour {
  std::size_t depot = 0;             ///< depot / charger index
  std::vector<std::size_t> sensors;  ///< sensor ids in visit order
  double length = 0.0;
};

/// The solved schedule summary returned to the client. Immutable once
/// built; the cache shares instances across responses.
struct Plan {
  /// Tours of the first executed charging round (Algorithm 2 over the
  /// first dispatch set); empty when the policy never dispatches.
  std::vector<PlanTour> first_round_tours;
  double first_round_length = 0.0;
  /// Total travelled distance over the horizon (the paper's service
  /// cost) and its breakdown. Derived (delta) plans inherit these
  /// horizon aggregates from their base plan; only the first round is
  /// re-planned.
  double total_distance = 0.0;
  std::size_t num_dispatches = 0;
  std::size_t num_sensor_charges = 0;
  std::size_t dead_sensors = 0;
  std::uint64_t fingerprint = 0;  ///< cache key of the solved instance
};

enum class ErrorCode {
  kNone = 0,
  kBadRequest,          ///< malformed JSON / missing fields
  kUnknownPolicy,       ///< policy not in exp::PolicyRegistry
  kQueueFull,           ///< admission control rejected (backpressure)
  kDeadlineExceeded,    ///< deadline_ms expired in the queue or the solve
  kShuttingDown,        ///< server draining; no new admissions
  kInternal,            ///< unexpected solver failure
  kUnsupportedVersion,  ///< "v" names a version this server doesn't speak
  kUnknownBase,         ///< delta base fingerprint not in the plan cache
  // Streaming-session codes (mwc.svc.stream.v1 frames only; never
  // emitted on v1/v2 responses, so the v1 golden bytes are unaffected).
  kSessionsDisabled,  ///< stream frame on a server without --sessions
  kUnknownSession,    ///< "session" does not name a live session
  kSessionLimit,      ///< open rejected: session table is full
};

/// Stable wire spelling of an error code ("queue_full", ...).
const char* error_code_name(ErrorCode code);

struct Response {
  std::string id;
  /// Trace id echo: serialized as "trace_id" when non-empty. The server
  /// sets it to the client-supplied id (any version) or, for v2
  /// requests, the server-generated one; v1 requests without a client
  /// id leave it empty so pre-tracing v1 responses stay byte-identical.
  std::string trace_id;
  WireVersion version = WireVersion::kV1;  ///< echoed negotiated version
  bool ok = false;
  ErrorCode error = ErrorCode::kNone;
  std::string message;
  bool cached = false;      ///< plan served from svc::PlanCache
  double latency_ms = 0.0;  ///< admission -> completion
  /// Stage breakdown echo: serialized as "t" (parse/queue/cache/solve)
  /// when `has_timings` — the server sets it whenever a trace id is
  /// echoed.
  StageTimings stages;
  bool has_timings = false;
  std::shared_ptr<const Plan> plan;  ///< set iff ok
  /// Delta responses: the base fingerprint the plan was derived from
  /// (serialized as "base" alongside "derived":true). 0 = not derived.
  std::uint64_t base_fingerprint = 0;
  bool derived = false;
  /// Effective policy label (request policy, or the base plan's policy
  /// for deltas). Not serialized; feeds the access log and tracez.
  std::string policy;
};

/// Parsing throws WireError (an std::runtime_error) on malformed JSON
/// or missing fields.
class WireError : public std::runtime_error {
 public:
  explicit WireError(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown when "v" names a version this server does not speak, so
/// callers can answer with `unsupported_version` rather than the
/// generic `bad_request`.
class UnsupportedVersionError : public WireError {
 public:
  explicit UnsupportedVersionError(const std::string& what)
      : WireError(what) {}
};

/// Parses one request line of either form (full or v2 delta).
ParsedRequest parse_any_request(const std::string& line);

/// Parses one full-request line (v1 or v2). Kept for callers that do
/// not speak the delta form; a delta line fails with WireError.
Request parse_request(const std::string& line);

/// Serializes a request to its canonical one-line JSON (round-trips
/// through parse_request; used by the load generator and tests).
std::string to_json(const Request& request);
std::string to_json(const DeltaRequest& request);

/// Serializes a response as one JSONL line (newline included).
std::string to_jsonl(const Response& response);

/// Convenience: a failed response carrying a structured error.
Response error_response(const std::string& id, ErrorCode code,
                        const std::string& message, double latency_ms = 0.0);

/// Canonical 16-hex-digit wire spelling of a plan fingerprint.
std::string fingerprint_hex(std::uint64_t fingerprint);

/// Parses a 1-16 hex digit fingerprint string (throws WireError).
std::uint64_t parse_fingerprint_hex(const std::string& hex);

/// Appends the plan object (the exact bytes to_jsonl emits for "plan")
/// to `out`. Shared with the stream-session plan push so pushed plans
/// are byte-identical to the same plan served over v1/v2.
void append_plan_json(std::string& out, const Plan& plan);

/// True when a request line is an mwc.svc.stream.v1 session frame:
/// a cheap scan for the `"v":"mwc.svc.stream.v1"` key/value pair
/// (whitespace around the colon tolerated), used by transports to
/// route session traffic before parse_any_request (which rejects the
/// stream version string). A v1/v2 request whose id merely contains
/// the version string does not match.
bool is_stream_frame(const std::string& line);

/// Best-effort "id" extraction from a stream frame (empty string when
/// the frame is malformed or carries no string id) — lets a transport
/// echo the id on sessions_disabled errors without a session layer.
std::string stream_frame_id(const std::string& line);

/// One structured stream-session error frame (newline included):
///   {"v":"mwc.svc.stream.v1","id":...,"ok":false,"error":...,
///    "message":...}
/// `id` is echoed when non-empty (it may be unrecoverable from a
/// malformed frame).
std::string stream_error_line(const std::string& id, ErrorCode code,
                              const std::string& message);

/// Fluent builder for full requests — the one in-tree producer of the
/// wire schema (tools, benches, and tests assemble requests through it
/// instead of hand-rolling JSON).
///
///   const Request r = RequestBuilder("r1")
///                         .preset(200, 5, 1000.0, /*seed=*/7)
///                         .cycle_values(taus)
///                         .horizon(500)
///                         .improve(true)
///                         .build();
class RequestBuilder {
 public:
  explicit RequestBuilder(std::string id) { request_.id = std::move(id); }

  RequestBuilder& version(WireVersion v) {
    request_.version = v;
    return *this;
  }
  RequestBuilder& trace_id(std::string id) {
    request_.trace_id = std::move(id);
    return *this;
  }
  RequestBuilder& policy(std::string name) {
    request_.policy = std::move(name);
    return *this;
  }
  /// Generator-preset network: n sensors, q depots on a square field.
  RequestBuilder& preset(std::size_t n, std::size_t q,
                         double field_side = 1000.0, std::uint64_t seed = 1) {
    request_.network.inline_points = false;
    request_.network.deployment.n = n;
    request_.network.deployment.q = q;
    request_.network.deployment.field_side = field_side;
    request_.network.seed = seed;
    return *this;
  }
  /// Inline network geometry (field side still bounds the box).
  RequestBuilder& inline_network(std::vector<geom::Point> sensors,
                                 std::vector<geom::Point> depots,
                                 geom::Point base_station) {
    request_.network.inline_points = true;
    request_.network.sensors = std::move(sensors);
    request_.network.depots = std::move(depots);
    request_.network.base_station = base_station;
    return *this;
  }
  RequestBuilder& cycle_values(std::vector<double> values) {
    request_.cycles.inline_values = true;
    request_.cycles.values = std::move(values);
    return *this;
  }
  RequestBuilder& cycle_model(const wsn::CycleModelConfig& model,
                              std::uint64_t seed) {
    request_.cycles.inline_values = false;
    request_.cycles.model = model;
    request_.cycles.seed = seed;
    return *this;
  }
  RequestBuilder& horizon(double v) {
    request_.horizon = v;
    return *this;
  }
  RequestBuilder& slot_length(double v) {
    request_.slot_length = v;
    return *this;
  }
  RequestBuilder& improve(bool v) {
    request_.improve = v;
    return *this;
  }
  RequestBuilder& deadline_ms(double v) {
    request_.deadline_ms = v;
    return *this;
  }

  const Request& build() const { return request_; }
  /// The canonical one-line JSON of the built request.
  std::string to_json_line() const { return to_json(request_); }

 private:
  Request request_;
};

/// Fluent builder for v2 delta requests.
///
///   const DeltaRequest d = DeltaBuilder("d1", base_fp)
///                              .move_sensor(3, {120.5, 80.0})
///                              .add_sensor({40.0, 60.0}, 5.0)
///                              .build();
class DeltaBuilder {
 public:
  DeltaBuilder(std::string id, std::uint64_t base_fingerprint) {
    request_.id = std::move(id);
    request_.base_fingerprint = base_fingerprint;
  }

  DeltaBuilder& add_sensor(geom::Point pos, double tau) {
    request_.patch.push_back(
        PatchOp{PatchOpKind::kAddSensor, 0, pos, tau});
    return *this;
  }
  DeltaBuilder& remove_sensor(std::size_t sensor) {
    request_.patch.push_back(
        PatchOp{PatchOpKind::kRemoveSensor, sensor, {}, 0.0});
    return *this;
  }
  DeltaBuilder& move_sensor(std::size_t sensor, geom::Point pos) {
    request_.patch.push_back(
        PatchOp{PatchOpKind::kMoveSensor, sensor, pos, 0.0});
    return *this;
  }
  DeltaBuilder& update_cycles(std::size_t sensor, double tau) {
    request_.patch.push_back(
        PatchOp{PatchOpKind::kUpdateCycles, sensor, {}, tau});
    return *this;
  }
  DeltaBuilder& charger_down(std::size_t charger) {
    request_.patch.push_back(
        PatchOp{PatchOpKind::kChargerDown, charger, {}, 0.0});
    return *this;
  }
  DeltaBuilder& charger_up(std::size_t charger) {
    request_.patch.push_back(
        PatchOp{PatchOpKind::kChargerUp, charger, {}, 0.0});
    return *this;
  }
  DeltaBuilder& trace_id(std::string id) {
    request_.trace_id = std::move(id);
    return *this;
  }
  DeltaBuilder& deadline_ms(double v) {
    request_.deadline_ms = v;
    return *this;
  }

  const DeltaRequest& build() const { return request_; }
  /// The canonical one-line JSON of the built delta request.
  std::string to_json_line() const { return to_json(request_); }

 private:
  DeltaRequest request_;
};

}  // namespace mwc::svc
