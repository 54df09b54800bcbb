// svc request engine — resolves a wire Request into a concrete problem
// instance, fingerprints it, and drives one solve through sim::solve_network.
//
// Resolution is deterministic: a preset network deploys through
// wsn::deploy_random on a stream derived from the request's seed, inline
// geometry is adopted verbatim, and cycles come from wsn::CycleModel (model
// spec) or a single-row wsn::TraceCycleProcess (inline values, held for
// every slot). The fingerprint hashes the *resolved* instance — quantized
// coordinates, slot-0 cycle draws, policy name, and solve options — so a
// preset request and an inline request describing the same geometry share
// one PlanCache entry.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>

#include "exp/config.hpp"
#include "svc/plan_cache.hpp"
#include "svc/wire.hpp"
#include "wsn/cycles.hpp"
#include "wsn/network.hpp"

namespace mwc::svc {

/// A request made concrete: the network, its cycle process, the solver
/// options, and the experiment config the policy factory consumes (the
/// paper's greedy reads Δl = τ_min from it).
struct ResolvedInstance {
  wsn::Network network;
  std::unique_ptr<wsn::CycleProcess> cycles;
  sim::SimOptions sim;
  exp::ExperimentConfig config;
};

/// Materializes the request's instance. Throws WireError on specs that
/// parse but cannot be realized (e.g. inline cycle count mismatching the
/// deployed sensor count).
ResolvedInstance resolve(const Request& request);

/// Cache key of the resolved instance: FNV-1a over the policy name, the
/// solve options, quantized geometry (1e-6 m), and quantized slot-0 cycle
/// draws (plus the cycle model parameters when per-slot redraws are on,
/// since then slot 0 alone does not pin the trajectory).
std::uint64_t fingerprint(const Request& request,
                          const ResolvedInstance& instance);

/// Cheap hash of the *raw* request spec (everything resolution and
/// fingerprinting read: policy, solve options, network spec, cycle
/// spec — id / trace / deadline excluded). Resolution is deterministic,
/// so equal spec hashes imply equal instance fingerprints; the warm path
/// memoizes spec -> fingerprint in the PlanCache and skips resolving
/// (network deployment + quantized hashing) on repeat requests. Unlike
/// the fingerprint it does not canonicalize: a preset and an equivalent
/// inline request hash differently here but still meet at the same
/// fingerprint and cache entry.
std::uint64_t spec_fingerprint(const Request& request);

/// Serves one request end to end: resolve, policy lookup, cache probe,
/// solve, cache fill. Never throws — every failure comes back as a
/// structured error Response (bad_request / unknown_policy /
/// deadline_exceeded / internal). `cache` may be null (solve-always).
/// `latency_ms` covers this call only; the server adds queueing time on
/// top. When `stages` is non-null the engine fills `cache_ms` (resolve +
/// fingerprint + cache probe) and `solve_ms` (the sim::solve_network
/// call); other stages are the server's to measure. A `deadline` other
/// than max() bounds the horizon simulation (SimOptions::deadline): a
/// solve still running when it passes is abandoned, answered
/// deadline_exceeded and not cached.
Response handle_request(
    const Request& request, PlanCache* cache, StageTimings* stages = nullptr,
    std::chrono::steady_clock::time_point deadline =
        std::chrono::steady_clock::time_point::max());

}  // namespace mwc::svc
