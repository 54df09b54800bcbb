#include "wire.hpp"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <thread>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

extern char** environ;

namespace mwcbench {

namespace {

int free_loopback_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket: " + std::string(std::strerror(errno)));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  socklen_t len = sizeof addr;
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    throw std::runtime_error("cannot reserve a loopback port");
  }
  ::close(fd);
  return ntohs(addr.sin_port);
}

int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

}  // namespace

Daemon::Daemon(const std::string& exe, const std::vector<std::string>& flags,
               const std::string& log_path) {
  // A port can be taken between reservation and mwcd's bind; mwcd then
  // exits and the next attempt picks another.
  for (int attempt = 0; attempt < 5; ++attempt) {
    port_ = free_loopback_port();
    std::vector<std::string> args{exe};
    args.insert(args.end(), flags.begin(), flags.end());
    args.push_back("--port");
    args.push_back(std::to_string(port_));
    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);

    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, STDIN_FILENO, "/dev/null",
                                     O_RDONLY, 0);
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO,
                                     log_path.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
    const int rc = ::posix_spawn(&pid_, exe.c_str(), &actions, nullptr,
                                 argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0)
      throw std::runtime_error("cannot start " + exe + ": " +
                               std::strerror(rc));

    for (int waited = 0; waited < 10000; ++waited) {
      const int fd = connect_loopback(port_);
      if (fd >= 0) {
        ::close(fd);
        return;
      }
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        break;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
      pid_ = -1;
    }
  }
  throw std::runtime_error("mwcd did not start listening (see " + log_path +
                           ")");
}

Daemon::~Daemon() { stop(); }

double Daemon::peak_rss_mb() const {
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kb = 0.0;
      status >> kb;
      return kb / 1024.0;
    }
    std::getline(status, key);
  }
  return 0.0;
}

bool Daemon::stop() {
  if (pid_ <= 0) return false;
  ::kill(pid_, SIGTERM);
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

Conn::Conn(int port) : fd_(connect_loopback(port)) {
  if (fd_ < 0)
    throw std::runtime_error("cannot connect to mwcd on port " +
                             std::to_string(port));
}

Conn::~Conn() {
  if (fd_ >= 0) ::close(fd_);
}

void Conn::send(const std::string& data) { send(data.data(), data.size()); }

void Conn::send(const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::send(fd_, data, size, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("send: " + std::string(std::strerror(errno)));
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
}

bool Conn::read_line(std::string& line, int timeout_ms) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    const std::size_t nl = buffer_.find('\n', head_);
    if (nl != std::string::npos) {
      line.assign(buffer_, head_, nl - head_);
      head_ = nl + 1;
      return true;
    }
    buffer_.erase(0, head_);
    head_ = 0;
    if (timeout_ms >= 0) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      pollfd pfd{fd_, POLLIN, 0};
      if (left.count() < 0 ||
          ::poll(&pfd, 1, static_cast<int>(left.count())) == 0)
        return false;
    }
    char chunk[65536];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

}  // namespace mwcbench
