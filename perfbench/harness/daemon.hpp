// daemon.hpp — the real proteusd as a child process, and a TCP loopback
// client connection speaking its newline-delimited JSON protocol.
#pragma once

#include <sys/types.h>

#include <string>
#include <vector>

#include "programs.hpp"

namespace perfbench {

/// A blocking TCP client connection to 127.0.0.1:port.
class Conn {
 public:
  explicit Conn(int port);
  ~Conn();
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  [[nodiscard]] int fd() const { return fd_; }
  void send_all(const std::string& data);
  /// Blocks until one full reply line arrives (throws on EOF/timeout).
  std::string read_line(int timeout_ms = 30000);
  /// After poll() said readable: reads once, appends complete lines.
  /// Returns false on EOF or error.
  bool read_available(std::vector<std::string>* lines);
  std::string roundtrip(const std::string& line);

 private:
  void quick_ack();

  int fd_ = -1;
  std::string buf_;
};

/// proteusd --port 0 --workers 2, started as a child process. The
/// constructor returns once {"op":"health"} answers "ok".
class Daemon {
 public:
  explicit Daemon(const std::string& binary);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] int port() const { return port_; }
  /// Peak RSS of the daemon process (VmHWM), read from /proc.
  [[nodiscard]] double peak_rss_mb() const;
  /// Sends {"op":"shutdown"} and waits for the process to exit
  /// (SIGTERM, then SIGKILL, if it does not).
  void stop();

 private:
  pid_t pid_ = -1;
  int port_ = 0;
  int announce_fd_ = -1;
};

/// JSON string literal (quoted, escaped) of `s`.
std::string json_string(const std::string& s);
/// {"op":"eval","source":...,"fun":...,"args":[...]} for `call`.
std::string eval_line(const Call& call);
/// True when `reply` is an ok eval reply whose result matches `expected`.
bool reply_matches(const std::string& reply, const std::string& expected);
/// Cache counters from the daemon's {"op":"metrics"} reply.
struct CacheStats {
  double hits = 0;
  double misses = 0;
  double entries = 0;
};
CacheStats cache_stats(Conn& conn);

}  // namespace perfbench
