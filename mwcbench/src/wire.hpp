// The benchmark's side of the wire: an mwcd child process serving TCP on
// a loopback port, and a blocking JSONL connection to it.
#pragma once

#include <string>
#include <sys/types.h>
#include <vector>

namespace mwcbench {

/// One mwcd child. The constructor spawns it with `flags` plus
/// `--port P` on a free loopback port and returns once a connection is
/// accepted; the destructor stops it (SIGTERM, then waits).
class Daemon {
 public:
  Daemon(const std::string& exe, const std::vector<std::string>& flags,
         const std::string& log_path);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  int port() const noexcept { return port_; }
  /// Peak resident set size of the daemon so far (VmHWM), in MB.
  double peak_rss_mb() const;
  /// Sends SIGTERM and waits; returns true when mwcd exited with 0.
  bool stop();

 private:
  pid_t pid_ = -1;
  int port_ = 0;
};

/// Blocking line-oriented TCP connection. One thread may send while
/// another reads.
class Conn {
 public:
  explicit Conn(int port);
  ~Conn();

  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  /// Writes every byte; throws std::runtime_error on a socket error.
  void send(const std::string& data);
  void send(const char* data, std::size_t size);
  /// Next response line without its newline; false at EOF or when
  /// `timeout_ms` (>= 0) passes without a full line.
  bool read_line(std::string& line, int timeout_ms = -1);

 private:
  int fd_ = -1;
  std::string buffer_;
  std::size_t head_ = 0;
};

}  // namespace mwcbench
