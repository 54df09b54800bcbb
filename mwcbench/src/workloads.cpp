#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

#include "trace.hpp"

namespace mwcbench {

std::vector<std::string> daemon_flags(const RunConfig& config) {
  const Sizes& s = config.sizes;
  // Two solver threads and at most two client connections leave the
  // client, the daemon's event loop and the OS a core each on four.
  std::vector<std::string> flags{"--threads", "2", "--queue-depth", "256"};
  flags.push_back("--cache-capacity");
  if (config.workload == "cold") {
    flags.push_back(std::to_string(s.cold_cache));
  } else if (config.workload == "warm") {
    flags.push_back(std::to_string(s.warm_cache));
  } else {
    flags.push_back(std::to_string(s.replan_cache));
    flags.push_back("--sessions");
  }
  return flags;
}

std::unique_ptr<Daemon> set_up(const RunConfig& config,
                               const std::function<void(int)>& warm_up,
                               std::vector<double>& seconds) {
  const std::string log = config.out_dir + "/mwcd-" + config.workload + ".log";
  std::unique_ptr<Daemon> daemon;
  for (std::size_t k = 0; k < config.sizes.setups; ++k) {
    if (daemon != nullptr) daemon->stop();
    daemon.reset();
    const auto start = Clock::now();
    daemon = std::make_unique<Daemon>(config.mwcd, daemon_flags(config), log);
    warm_up(daemon->port());
    seconds.push_back(ms_between(start, Clock::now()) / 1e3);
  }
  return daemon;
}

std::vector<Exchange> closed_loop(
    int port, std::size_t conns,
    const std::function<std::string(std::size_t)>& line_for,
    Clock::time_point end, std::size_t min_count, std::size_t max_count) {
  std::atomic<std::size_t> next{0};
  std::mutex mutex;
  std::vector<Exchange> all;
  std::exception_ptr error;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < conns; ++c) {
    threads.emplace_back([&] {
      try {
        Conn conn(port);
        std::vector<Exchange> mine;
        for (;;) {
          const std::size_t i = next.fetch_add(1);
          if (i >= max_count || (i >= min_count && Clock::now() >= end)) break;
          const std::string line = line_for(i) + "\n";
          Exchange x;
          x.index = i;
          const auto sent = Clock::now();
          conn.send(line);
          if (!conn.read_line(x.response))
            throw std::runtime_error("mwcd closed the connection");
          x.latency_ms = ms_between(sent, Clock::now());
          mine.push_back(std::move(x));
        }
        std::lock_guard<std::mutex> lock(mutex);
        for (auto& x : mine) all.push_back(std::move(x));
      } catch (...) {
        std::lock_guard<std::mutex> lock(mutex);
        if (!error) error = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  if (error) std::rethrow_exception(error);
  std::sort(all.begin(), all.end(),
            [](const Exchange& a, const Exchange& b) { return a.index < b.index; });
  return all;
}

void write_spans(const RunConfig& config, const Tracer& tracer, Outcome& out) {
  const std::string path = config.out_dir + "/spans-" + config.workload +
                           "-" + std::to_string(config.seed) + ".json";
  if (!tracer.write(path)) {
    out.fail("cannot write " + path);
    return;
  }
  out.notes.push_back("spans: " + std::to_string(tracer.spans().size()) +
                      " written to " + path);
  if (tracer.dropped() > 0)
    out.fail(std::to_string(tracer.dropped()) +
             " library spans dropped by a full trace ring");
}

}  // namespace mwcbench
