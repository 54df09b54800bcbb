#include "check.hpp"

#include <cmath>
#include <cstdlib>
#include <exception>

#include "geom/distance.hpp"
#include "svc/engine.hpp"
#include "svc/json.hpp"

namespace mwcbench {

namespace {

constexpr std::string_view kPlanKey = "\"plan\":";

/// The part of a line before its plan object (where flat fields live).
std::string_view head_of(std::string_view line) {
  const std::size_t at = line.find(kPlanKey);
  return at == std::string_view::npos ? line : line.substr(0, at);
}

}  // namespace

std::string_view plan_bytes(std::string_view line) {
  const std::size_t at = line.find(kPlanKey);
  if (at == std::string_view::npos) return {};
  std::string_view tail = line.substr(at + kPlanKey.size());
  while (!tail.empty() && (tail.back() == '\n' || tail.back() == '\r'))
    tail.remove_suffix(1);
  if (tail.size() < 2 || tail.back() != '}') return {};
  tail.remove_suffix(1);  // the response object's closing brace
  return tail;
}

std::string plan_fingerprint(std::string_view plan) {
  constexpr std::string_view key = "\"fingerprint\":\"";
  const std::size_t at = plan.rfind(key);
  if (at == std::string_view::npos) return {};
  const std::size_t start = at + key.size();
  const std::size_t end = plan.find('"', start);
  if (end == std::string_view::npos) return {};
  return std::string(plan.substr(start, end - start));
}

std::string string_field(std::string_view line, std::string_view key) {
  const std::string_view head = head_of(line);
  const std::string needle = "\"" + std::string(key) + "\":\"";
  const std::size_t at = head.find(needle);
  if (at == std::string_view::npos) return {};
  const std::size_t start = at + needle.size();
  const std::size_t end = head.find('"', start);
  if (end == std::string_view::npos) return {};
  return std::string(head.substr(start, end - start));
}

double number_field(std::string_view line, std::string_view key) {
  const std::string_view head = head_of(line);
  const std::string needle = "\"" + std::string(key) + "\":";
  const std::size_t at = head.find(needle);
  if (at == std::string_view::npos) return std::nan("");
  const std::string number(
      head.substr(at + needle.size(),
                  std::min<std::size_t>(32, head.size() - at - needle.size())));
  char* end = nullptr;
  const double v = std::strtod(number.c_str(), &end);
  return end == number.c_str() ? std::nan("") : v;
}

bool has_flag(std::string_view line, std::string_view key_value) {
  return head_of(line).find(key_value) != std::string_view::npos;
}

std::string check_plan(std::string_view plan_json, const Geometry& geometry,
                       bool cover_all, mwc::svc::Plan* plan_out) {
  using mwc::svc::Json;
  Json doc;
  try {
    doc = Json::parse(plan_json);
  } catch (const std::exception& e) {
    return std::string("plan is not JSON: ") + e.what();
  }
  mwc::svc::Plan plan;
  const std::size_t q = geometry.depots.size();
  const std::size_t n = geometry.sensors.size();
  std::vector<char> seen(n, 0);
  std::size_t visited = 0;
  double total = 0.0;
  try {
    for (const Json& tj : doc.at("first_round_tours").items()) {
      mwc::svc::PlanTour tour;
      tour.depot = static_cast<std::size_t>(tj.at("depot").as_int());
      if (tour.depot >= q) return "tour depot out of range";
      for (const Json& s : tj.at("sensors").items()) {
        const std::int64_t id = s.as_int();
        if (id < 0 || static_cast<std::size_t>(id) >= n)
          return "sensor id " + std::to_string(id) + " out of range";
        if (seen[id]++ != 0)
          return "sensor " + std::to_string(id) + " visited twice";
        tour.sensors.push_back(static_cast<std::size_t>(id));
        ++visited;
      }
      tour.length = tj.at("length").as_double();
      if (!geometry.charger_active.empty() &&
          geometry.charger_active[tour.depot] == 0 && !tour.sensors.empty())
        return "inactive charger " + std::to_string(tour.depot) +
               " was given a tour";
      double length = 0.0;
      mwc::geom::Point at = geometry.depots[tour.depot];
      for (const std::size_t id : tour.sensors) {
        length += mwc::geom::distance(at, geometry.sensors[id]);
        at = geometry.sensors[id];
      }
      if (!tour.sensors.empty())
        length += mwc::geom::distance(at, geometry.depots[tour.depot]);
      if (std::abs(length - tour.length) > 1e-9 * std::max(1.0, length))
        return "tour of depot " + std::to_string(tour.depot) + " has length " +
               std::to_string(tour.length) + ", geometry gives " +
               std::to_string(length);
      total += tour.length;
      plan.first_round_tours.push_back(std::move(tour));
    }
    plan.first_round_length = doc.at("first_round_length").as_double();
    plan.total_distance = doc.at("total_distance").as_double();
  } catch (const std::exception& e) {
    return std::string("malformed plan: ") + e.what();
  }
  if (std::abs(total - plan.first_round_length) >
      1e-9 * std::max(1.0, total))
    return "first_round_length is not the sum of the tour lengths";
  if (cover_all && visited != n)
    return "round visits " + std::to_string(visited) + " of " +
           std::to_string(n) + " sensors";
  if (plan_out != nullptr) *plan_out = std::move(plan);
  return {};
}

Geometry resolved_geometry(const mwc::svc::Request& request) {
  const mwc::svc::ResolvedInstance instance = mwc::svc::resolve(request);
  Geometry geometry;
  geometry.depots = instance.network.depots();
  geometry.sensors = instance.network.sensor_points();
  return geometry;
}

std::string check_solved(std::string_view response,
                         const mwc::svc::Request& request, bool cached,
                         bool cover_all, mwc::svc::Plan* plan_out) {
  if (!has_flag(response, "\"ok\":true"))
    return request.id + " failed: " + string_field(response, "error") + " " +
           string_field(response, "message");
  if (string_field(response, "id") != request.id)
    return "response id " + string_field(response, "id") + " for request " +
           request.id;
  if (has_flag(response, "\"cached\":true") != cached)
    return request.id + (cached ? " missed" : " hit") + " the plan cache";
  const std::string why = check_plan(plan_bytes(response),
                                     resolved_geometry(request), cover_all,
                                     plan_out);
  return why.empty() ? why : request.id + ": " + why;
}

}  // namespace mwcbench
