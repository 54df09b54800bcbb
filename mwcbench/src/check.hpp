// Output checks applied to every response the benchmark receives.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "geom/point.hpp"
#include "svc/wire.hpp"

namespace mwcbench {

/// The bytes of the response's "plan" object (the tail of a v1/v2
/// response or plan push); empty when the line carries no plan.
std::string_view plan_bytes(std::string_view line);

/// The plan's fingerprint (16 hex digits) read off the end of its bytes.
std::string plan_fingerprint(std::string_view plan);

/// Instance geometry a plan is checked against.
struct Geometry {
  std::vector<mwc::geom::Point> depots;
  std::vector<mwc::geom::Point> sensors;
  std::vector<char> charger_active;  ///< empty = all active
};

/// Parses a plan object and checks it against the geometry: every tour
/// length recomputed from the points matches `length`, first_round_length
/// is their sum, sensor ids are in range and no sensor is visited twice;
/// with `cover_all`, the tours visit every sensor; tours of inactive
/// chargers are empty. Returns an empty string when the plan passes,
/// otherwise the first violation. `plan_out` receives the parsed plan.
std::string check_plan(std::string_view plan, const Geometry& geometry,
                       bool cover_all, mwc::svc::Plan* plan_out = nullptr);

/// Checks a full-request response: ok, the request's id, `cached` as
/// expected, and a plan that passes check_plan against the geometry the
/// request resolves to (the same svc::resolve the daemon runs).
std::string check_solved(std::string_view response,
                         const mwc::svc::Request& request, bool cached,
                         bool cover_all, mwc::svc::Plan* plan_out = nullptr);

/// The geometry svc::resolve gives a request.
Geometry resolved_geometry(const mwc::svc::Request& request);

/// Extracts a top-level string / number field by plain scan (responses
/// are flat up to "plan", which comes last). Empty / NaN when absent.
std::string string_field(std::string_view line, std::string_view key);
double number_field(std::string_view line, std::string_view key);
bool has_flag(std::string_view line, std::string_view key_value);

}  // namespace mwcbench
