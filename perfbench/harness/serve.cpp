// serve-warm and serve-cold — the real proteusd over TCP loopback, driven
// from this one generator process with at most 2 threads and 2
// connections (the daemon runs --workers 2: four cores in total).
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cerrno>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <thread>

#include "daemon.hpp"
#include "harness.hpp"
#include "serve/json.hpp"

namespace perfbench {

// --- connection and daemon --------------------------------------------------

Conn::Conn(int port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd_);
    throw std::runtime_error("connect() to proteusd failed");
  }
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  quick_ack();
}

// The daemon does not set TCP_NODELAY on accepted connections, so with
// pipelined traffic a reply written while the previous one is still
// unacknowledged waits for the client's next segment. With delayed ACKs
// that wait chains from reply to reply and latency flips between two
// stable modes (service time, or one inter-request interval) from run to
// run. The generator ACKs every reply at once (re-armed after each read,
// as Linux clears TCP_QUICKACK), so latency measures the daemon.
void Conn::quick_ack() {
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof one);
}

Conn::~Conn() { ::close(fd_); }

void Conn::send_all(const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd_, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("send() to proteusd failed");
    off += static_cast<std::size_t>(n);
  }
}

bool Conn::read_available(std::vector<std::string>* lines) {
  char chunk[65536];
  const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
  if (n < 0 && (errno == EINTR || errno == EAGAIN)) return true;
  if (n <= 0) return false;
  quick_ack();
  buf_.append(chunk, static_cast<std::size_t>(n));
  std::size_t start = 0;
  std::size_t nl = 0;
  while ((nl = buf_.find('\n', start)) != std::string::npos) {
    lines->push_back(buf_.substr(start, nl - start));
    start = nl + 1;
  }
  buf_.erase(0, start);
  return true;
}

std::string Conn::read_line(int timeout_ms) {
  for (;;) {
    const std::size_t nl = buf_.find('\n');
    if (nl != std::string::npos) {
      std::string line = buf_.substr(0, nl);
      buf_.erase(0, nl + 1);
      return line;
    }
    pollfd p{fd_, POLLIN, 0};
    const int r = ::poll(&p, 1, timeout_ms);
    if (r == 0) throw std::runtime_error("timed out waiting for proteusd");
    if (r < 0 && errno == EINTR) continue;
    char chunk[65536];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("proteusd closed the connection");
    quick_ack();
    buf_.append(chunk, static_cast<std::size_t>(n));
  }
}

std::string Conn::roundtrip(const std::string& line) {
  send_all(line + "\n");
  return read_line();
}

Daemon::Daemon(const std::string& binary) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe() failed");
  pid_ = ::fork();
  if (pid_ < 0) throw std::runtime_error("fork() failed");
  if (pid_ == 0) {
    const int devnull = ::open("/dev/null", O_RDWR);
    ::dup2(devnull, 0);
    ::dup2(fds[1], 1);
    ::dup2(devnull, 2);
    ::close(fds[0]);
    ::execl(binary.c_str(), binary.c_str(), "--port", "0", "--workers", "2",
            static_cast<char*>(nullptr));
    ::_exit(127);
  }
  ::close(fds[1]);
  announce_fd_ = fds[0];

  // "proteusd listening on <port>"
  std::string announce;
  while (announce.find('\n') == std::string::npos) {
    pollfd p{announce_fd_, POLLIN, 0};
    if (::poll(&p, 1, 10000) <= 0) break;
    char chunk[256];
    const ssize_t n = ::read(announce_fd_, chunk, sizeof chunk);
    if (n <= 0) break;
    announce.append(chunk, static_cast<std::size_t>(n));
  }
  const std::string prefix = "proteusd listening on ";
  const std::size_t at = announce.find(prefix);
  if (at == std::string::npos) {
    stop();
    throw std::runtime_error("proteusd did not announce its port");
  }
  port_ = std::stoi(announce.substr(at + prefix.size()));
  Conn admin(port_);
  if (admin.roundtrip(R"({"op":"health"})").find(R"("status":"ok")") ==
      std::string::npos) {
    stop();
    throw std::runtime_error("proteusd health check failed");
  }
}

Daemon::~Daemon() { stop(); }

double Daemon::peak_rss_mb() const {
  return perfbench::peak_rss_mb(std::to_string(pid_));
}

void Daemon::stop() {
  if (pid_ <= 0) return;
  if (port_ > 0) {
    try {
      Conn admin(port_);
      admin.send_all("{\"op\":\"shutdown\"}\n");
      (void)admin.read_line(5000);
    } catch (const std::exception&) {
      // fall through to signals
    }
  }
  int status = 0;
  for (int i = 0; i < 500; ++i) {  // up to 5 s for a clean exit
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      break;
    }
    if (i == 300) ::kill(pid_, SIGTERM);
    ::usleep(10000);
  }
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
  }
  if (announce_fd_ >= 0) ::close(announce_fd_);
  announce_fd_ = -1;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default: out += c;
    }
  }
  return out + "\"";
}

std::string eval_line(const Call& call) {
  std::string line = "{\"op\":\"eval\",\"source\":" + json_string(*call.source) +
                     ",\"fun\":" + json_string(call.fun) + ",\"args\":[";
  for (std::size_t i = 0; i < call.arg_texts.size(); ++i) {
    if (i > 0) line += ',';
    line += json_string(call.arg_texts[i]);
  }
  return line + "]}";
}

bool reply_matches(const std::string& reply, const std::string& expected) {
  const std::optional<proteus::serve::Json> j =
      proteus::serve::parse_json(reply);
  if (!j.has_value() || !j->get("ok").as_bool()) return false;
  const proteus::serve::Json& result = j->get("result");
  return result.is_string() && same_text(expected, result.as_string());
}

CacheStats cache_stats(Conn& conn) {
  const std::optional<proteus::serve::Json> j =
      proteus::serve::parse_json(conn.roundtrip(R"({"op":"metrics"})"));
  CacheStats s;
  if (!j.has_value()) return s;
  const proteus::serve::Json& m = j->get("metrics");
  s.hits = m.get("serve.cache.hit").as_double();
  s.misses = m.get("serve.cache.miss").as_double();
  s.entries = j->get("cache_entries").as_double();
  return s;
}

namespace {

constexpr int kSetupReps = 5;

/// Latency samples, each filed under the time slice of the run it
/// started in. Every statistic is the median over slices of that
/// statistic within one slice: the daemon and the generator run on
/// shared virtual CPUs, and a burst of host contention then moves the
/// slice it falls in, not the reported value.
class SlicedLatency {
 public:
  SlicedLatency(double seconds, int slices)
      : slice_s_(seconds / slices), slices_(static_cast<std::size_t>(slices)) {}

  void add(double at_s, const std::string& family, double us) {
    Slice& s = slices_[std::min(slices_.size() - 1,
                                static_cast<std::size_t>(std::max(0.0, at_s) / slice_s_))];
    s.all.push_back(us);
    s.family[family].push_back(us);
  }
  /// Median over slices of the q-quantile of all latencies (us).
  [[nodiscard]] double quantile_us(double q) const {
    return over_slices([q](const Slice& s) { return quantile(s.all, q); });
  }
  /// Median over slices of the median latency of one family (ms).
  [[nodiscard]] double family_ms(const std::string& family) const {
    return over_slices([&family](const Slice& s) {
             auto it = s.family.find(family);
             return it == s.family.end() ? 0.0 : median(it->second);
           }) / 1e3;
  }
  /// Median over slices of the completed requests per second.
  [[nodiscard]] double rate() const {
    return over_slices([this](const Slice& s) {
      return static_cast<double>(s.all.size()) / slice_s_;
    });
  }
  /// The per-slice values of quantile q, for the notes.
  [[nodiscard]] std::string detail(double q) const {
    std::string out;
    for (const Slice& s : slices_) {
      out += (out.empty() ? "" : " ") + number_text(quantile(s.all, q));
    }
    return out;
  }

 private:
  struct Slice {
    std::vector<double> all;
    std::map<std::string, std::vector<double>> family;
  };
  template <typename F>
  [[nodiscard]] double over_slices(F&& stat) const {
    std::vector<double> v;
    for (const Slice& s : slices_) {
      if (!s.all.empty()) v.push_back(stat(s));
    }
    return median(v);
  }
  double slice_s_;
  std::vector<Slice> slices_;
};

void sleep_until(std::uint64_t t_ns) {
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(t_ns / 1000000000ULL);
  ts.tv_nsec = static_cast<long>(t_ns % 1000000000ULL);
  while (::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

// --- serve-warm: open loop at fixed rates -----------------------------------

/// The open-loop nominal rate, the ladder and the p99 latency limit (as
/// stated in the README). After the fixed ladder, kRefineSteps bisection
/// rungs (geometric midpoints) narrow the gap between the last rung that
/// met the limit and the first that missed it, so the reported maximum
/// moves continuously with capacity.
constexpr double kNominalRps = 800;
constexpr double kLadderRps[] = {1200, 1800, 2700, 4050};
constexpr int kRefineSteps = 3;
/// Slices per open-loop rung for the sliced statistics.
constexpr int kSlices = 5;
constexpr double kP99LimitUs = 50000;
constexpr int kPoolSize = 400;

/// Slices of a closed-loop phase (1 s each for serve-warm's 10 s, 2 s for
/// serve-cold's 20 s), and the serve-cold request count at which
/// peak_rss_mb is read.
constexpr int kClosedSlices = 10;
constexpr std::size_t kRssAtRequests = 4000;

struct RungResult {
  double rate = 0;
  std::size_t sent = 0;
  std::size_t completed = 0;
  std::size_t failed = 0;
  std::vector<double> latency_us;  ///< from each request's due time
  std::vector<double> late_us;     ///< send time minus due time
  SlicedLatency sliced;            ///< the same latencies, by due-time slice
  double achieved_rps = 0;
  std::size_t outstanding_at_end = 0;
  bool backlog = false;
  [[nodiscard]] bool meets_limit() const {
    return failed == 0 && !backlog && quantile(latency_us, 0.99) <= kP99LimitUs;
  }
};

/// Sends requests on a fixed schedule (one sender thread), reads replies
/// on the calling thread. Request k goes on connection k % 2, so the j-th
/// reply on connection c answers request 2j + c.
RungResult open_loop(Conn* conns[2], const std::vector<Call>& pool,
                     const std::vector<std::string>& lines, Rng& rng,
                     double rate, double seconds, Result& res) {
  RungResult out{rate, 0, 0, 0, {}, {}, SlicedLatency(seconds, kSlices)};
  const auto n = static_cast<std::size_t>(rate * seconds);
  std::vector<std::size_t> pick(n);
  std::uniform_int_distribution<std::size_t> d(0, pool.size() - 1);
  for (std::size_t& p : pick) p = d(rng);
  const double interval_ns = 1e9 / rate;
  const std::uint64_t t0 = now_ns() + 2000000;
  std::vector<std::uint64_t> due(n);
  for (std::size_t k = 0; k < n; ++k) {
    due[k] = t0 + static_cast<std::uint64_t>(static_cast<double>(k) * interval_ns);
  }
  const std::uint64_t t_end = t0 + static_cast<std::uint64_t>(seconds * 1e9);
  std::vector<std::uint64_t> sent(n, 0);
  std::vector<std::uint64_t> recv(n, 0);
  std::vector<std::string> reply(n);
  std::atomic<bool> send_failed{false};

  std::thread sender([&] {
    try {
      for (std::size_t k = 0; k < n; ++k) {
        sleep_until(due[k]);
        conns[k % 2]->send_all(lines[pick[k]]);
        sent[k] = now_ns();
      }
    } catch (const std::exception&) {
      send_failed = true;
    }
  });

  std::size_t received[2] = {0, 0};
  std::size_t got = 0;
  std::size_t sent_by_end = 0;
  std::size_t recv_by_end = 0;
  bool end_marked = false;
  const std::uint64_t give_up = t_end + 10000000000ULL;  // 10 s drain
  std::vector<std::string> batch;
  while (got < n && now_ns() < give_up && !send_failed) {
    pollfd p[2] = {{conns[0]->fd(), POLLIN, 0}, {conns[1]->fd(), POLLIN, 0}};
    const int r = ::poll(p, 2, 2);
    const std::uint64_t t = now_ns();
    if (!end_marked && t >= t_end) {
      end_marked = true;
      sent_by_end = std::min<std::size_t>(
          n, static_cast<std::size_t>(static_cast<double>(t_end - t0) /
                                      interval_ns) + 1);
      recv_by_end = got;
    }
    if (r <= 0) continue;
    for (int c = 0; c < 2; ++c) {
      if ((p[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      batch.clear();
      if (!conns[c]->read_available(&batch)) {
        send_failed = true;
        break;
      }
      for (std::string& line : batch) {
        const std::size_t k = 2 * received[c] + static_cast<std::size_t>(c);
        ++received[c];
        if (k >= n) continue;  // cannot happen: replies match requests
        recv[k] = t;
        reply[k] = std::move(line);
        ++got;
      }
    }
  }
  sender.join();
  if (!end_marked) {
    sent_by_end = n;
    recv_by_end = got;
  }

  std::uint64_t last_recv = t0;
  std::vector<double> first_q;
  std::vector<double> last_q;
  for (std::size_t k = 0; k < n; ++k) {
    const Call& call = pool[pick[k]];
    const bool ok = recv[k] != 0 && reply_matches(reply[k], call.expected);
    res.check(ok, "serve-warm " + call.family + " " + call.fun + " reply: " +
                      reply[k].substr(0, 160));
    if (sent[k] != 0) {
      out.late_us.push_back(static_cast<double>(sent[k] - due[k]) / 1e3);
    }
    ++out.sent;
    if (!ok) {
      ++out.failed;
      continue;
    }
    ++out.completed;
    const double lat = static_cast<double>(recv[k] - due[k]) / 1e3;
    out.latency_us.push_back(lat);
    out.sliced.add(static_cast<double>(due[k] - t0) / 1e9, call.family, lat);
    if (k < n / 4) first_q.push_back(lat);
    if (k >= n - n / 4) last_q.push_back(lat);
    last_recv = std::max(last_recv, recv[k]);
  }
  out.achieved_rps = static_cast<double>(out.completed) /
                     (static_cast<double>(last_recv - t0) / 1e9);
  out.outstanding_at_end =
      sent_by_end > recv_by_end ? sent_by_end - recv_by_end : 0;
  // A growing backlog: more requests waiting at the end of the window than
  // the latency limit allows in steady state, or a latency trend.
  const double allowed = std::max(4.0, 2.0 * rate * kP99LimitUs / 1e6);
  out.backlog = static_cast<double>(out.outstanding_at_end) > allowed ||
                (!first_q.empty() && !last_q.empty() &&
                 median(last_q) > 2 * median(first_q) + kP99LimitUs / 4);
  return out;
}

/// One closed-loop sample: the request's family and reference, the reply,
/// when it was sent (seconds since the window opened) and its latency.
struct Sample {
  std::string family;
  std::string expected;
  std::string reply;
  double start_s = 0;
  double us = 0;
};

/// Two clients, each on its own connection, send back to back for
/// `seconds`: client c's request `serial` comes from next(c, serial).
/// on_done(n) runs on the client thread after the n-th completion.
template <typename Next, typename OnDone>
std::vector<Sample> closed_loop(int port, double seconds, Next&& next,
                                OnDone&& on_done, Result& res) {
  std::vector<Sample> samples[2];
  std::atomic<bool> failed{false};
  std::atomic<std::size_t> completed{0};
  const std::uint64_t t0 = now_ns();
  const std::uint64_t deadline = t0 + static_cast<std::uint64_t>(seconds * 1e9);
  const auto client = [&](int id) {
    try {
      Conn conn(port);
      const Call* call = nullptr;
      std::string line;
      for (std::uint64_t serial = 0; now_ns() < deadline; ++serial) {
        next(id, serial, &call, &line);
        const std::uint64_t start = now_ns();
        conn.send_all(line);
        std::string reply = conn.read_line();
        const double us = static_cast<double>(now_ns() - start) / 1e3;
        samples[id].push_back({call->family, call->expected, std::move(reply),
                               static_cast<double>(start - t0) / 1e9, us});
        on_done(++completed);
      }
    } catch (const std::exception&) {
      failed = true;
    }
  };
  std::thread second(client, 1);
  client(0);
  second.join();
  res.check(!failed, "closed-loop client connection");
  samples[0].insert(samples[0].end(),
                    std::make_move_iterator(samples[1].begin()),
                    std::make_move_iterator(samples[1].end()));
  return std::move(samples[0]);
}

/// Checks every reply and files the correct ones by send-time slice.
SlicedLatency check_samples(const std::vector<Sample>& samples, double seconds,
                            int slices, const char* workload, Result& res) {
  SlicedLatency sliced(seconds, slices);
  for (const Sample& s : samples) {
    const bool ok = reply_matches(s.reply, s.expected);
    res.check(ok, std::string(workload) + " " + s.family +
                      " reply: " + s.reply.substr(0, 160));
    if (ok) sliced.add(s.start_s, s.family, s.us);
  }
  return sliced;
}

}  // namespace

Result run_serve_warm(const Options& opt) {
  Result res;
  Rng rng(opt.seed);
  const std::vector<Call> pool = warm_pool(rng, opt.repo_dir, kPoolSize);
  std::vector<std::string> lines;
  std::set<std::string> sources;
  for (const Call& c : pool) {
    lines.push_back(eval_line(c) + "\n");
    sources.insert(*c.source);
  }

  // setup_s: daemon launch -> health "ok" -> cache primed (one compile per
  // distinct program); median of several launches, the last one is kept.
  std::vector<double> setups;
  std::unique_ptr<Daemon> daemon;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    daemon.reset();
    const std::uint64_t t0 = now_ns();
    daemon = std::make_unique<Daemon>(opt.proteusd);
    Conn admin(daemon->port());
    for (const std::string& src : sources) {
      const std::string r =
          admin.roundtrip("{\"op\":\"compile\",\"source\":" + json_string(src) + "}");
      if (r.find("\"ok\":true") == std::string::npos) {
        res.check(false, "serve-warm priming compile: " + r.substr(0, 160));
      }
    }
    setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }

  // Warm-up pass (every pool entry once): checked, not timed. Each of the
  // daemon's 2 workers serves one connection at a time, so every phase
  // closes its connections before the next opens its own.
  {
    Conn warm_up(daemon->port());
    for (std::size_t i = 0; i < pool.size(); ++i) {
      warm_up.send_all(lines[i]);
      res.check(reply_matches(warm_up.read_line(), pool[i].expected),
                "serve-warm warm-up " + pool[i].family);
    }
  }

  // Closed loop, 2 clients, for half the run: the gated metrics.
  const double closed_s = 0.5 * opt.seconds;
  Rng rngs[2] = {Rng(opt.seed * 1000003ULL), Rng(opt.seed * 1000003ULL + 1)};
  std::uniform_int_distribution<std::size_t> pick(0, pool.size() - 1);
  const std::vector<Sample> samples = closed_loop(
      daemon->port(), closed_s,
      [&](int client, std::uint64_t, const Call** call, std::string* line) {
        const std::size_t i = pick(rngs[client]);
        *call = &pool[i];
        *line = lines[i];
      },
      [](std::size_t) {}, res);
  const SlicedLatency closed =
      check_samples(samples, closed_s, kClosedSlices, "serve-warm", res);

  // Open loop for the other half: the nominal rate, then the ladder and
  // its refinement (reported rows).
  Conn c0(daemon->port());
  Conn c1(daemon->port());
  Conn* conns[2] = {&c0, &c1};
  const double nominal_s = 0.2 * opt.seconds;
  const RungResult nominal =
      open_loop(conns, pool, lines, rng, kNominalRps, nominal_s, res);
  std::vector<RungResult> ladder;
  const double rung_s =
      0.3 * opt.seconds /
      static_cast<double>(std::size(kLadderRps) + kRefineSteps);
  double pass_rate = 0;
  double fail_rate = 0;
  for (const double rate : kLadderRps) {
    ladder.push_back(open_loop(conns, pool, lines, rng, rate, rung_s, res));
    if (!ladder.back().meets_limit()) {
      fail_rate = rate;
      break;
    }
    pass_rate = rate;
  }
  for (int step = 0; step < kRefineSteps && pass_rate > 0 && fail_rate > 0;
       ++step) {
    const double rate = std::sqrt(pass_rate * fail_rate);
    ladder.push_back(open_loop(conns, pool, lines, rng, rate, rung_s, res));
    (ladder.back().meets_limit() ? pass_rate : fail_rate) = rate;
  }
  // The open loop's maximum: the achieved rate of the highest rung that
  // met the limit (the first rung's, flagged in the notes, when none did).
  double ladder_max = 0;
  double best_rate = 0;
  for (const RungResult& r : ladder) {
    if (r.meets_limit() && r.rate > best_rate) {
      best_rate = r.rate;
      ladder_max = r.achieved_rps;
    }
  }
  if (ladder_max == 0) {
    ladder_max = ladder.front().achieved_rps;
    res.note("no ladder rung met the p99 limit");
  }

  const CacheStats cache = cache_stats(c0);
  res.add("setup_s", median(setups), "s");
  res.add("p50_us", closed.quantile_us(0.5), "us");
  res.note("p99_us " + number_text(closed.quantile_us(0.99)) +
           " us (tail latency: reported, not gated)");
  res.note("max_rps " + number_text(closed.rate()) +
           " 1/s (closed-loop completions per second: reported, not gated)");
  res.add("qsort_ms", closed.family_ms("qsort"), "ms");
  res.add("spmv_ms", closed.family_ms("spmv"), "ms");
  res.add("qhull_ms", closed.family_ms("qhull"), "ms");
  res.add("peak_rss_mb", daemon->peak_rss_mb(), "MB");

  res.note("closed loop, 2 clients: " + std::to_string(samples.size()) +
           " samples in " + number_text(closed_s) + " s; slice p99_us=[" +
           closed.detail(0.99) + "]");
  res.note("open loop, nominal " + number_text(kNominalRps) + " req/s: " +
           std::to_string(nominal.completed) + " samples, p50_us=" +
           number_text(nominal.sliced.quantile_us(0.5)) + " p99_us=" +
           number_text(nominal.sliced.quantile_us(0.99)) +
           " (sliced), gen.late_p99_us=" +
           number_text(quantile(nominal.late_us, 0.99)));
  res.note("open-loop ladder, p99 limit " + number_text(kP99LimitUs) +
           " us: highest rate meeting it " + number_text(ladder_max) + " req/s");
  for (const RungResult& r : ladder) {
    res.note("ladder " + number_text(r.rate) + " req/s: achieved " +
             number_text(r.achieved_rps) + ", p50_us=" +
             number_text(median(r.latency_us)) + " p99_us=" +
             number_text(quantile(r.latency_us, 0.99)) + " gen.late_p99_us=" +
             number_text(quantile(r.late_us, 0.99)) + " outstanding_at_end=" +
             std::to_string(r.outstanding_at_end) +
             (r.backlog ? " BACKLOG GROWING" : "") +
             (r.meets_limit() ? " meets limit" : " misses limit"));
  }
  res.note("daemon cache: hits=" + number_text(cache.hits) +
           " misses=" + number_text(cache.misses) +
           " entries=" + number_text(cache.entries));
  daemon->stop();
  return res;
}

// --- serve-cold: closed loop, 2 clients, never-seen sources -----------------

Result run_serve_cold(const Options& opt) {
  Result res;
  Rng rng(opt.seed);
  const ColdGenerator gen(rng);

  // setup_s: daemon launch -> health "ok" (nothing to prime: every
  // request is a cache miss); median of several launches.
  std::vector<double> setups;
  std::unique_ptr<Daemon> daemon;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    daemon.reset();
    const std::uint64_t t0 = now_ns();
    daemon = std::make_unique<Daemon>(opt.proteusd);
    setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }

  // The cache grows by one entry a request, so the daemon's peak RSS is
  // read when the kRssAtRequests-th request completes: memory per cached
  // program, not confounded with how many requests the run managed. The
  // run goes on; the final peak is in the notes.
  double rss_at_n = 0;
  Call calls[2];
  Rng rngs[2] = {Rng(opt.seed * 1000003ULL), Rng(opt.seed * 1000003ULL + 1)};
  const std::vector<Sample> samples = closed_loop(
      daemon->port(), opt.seconds,
      [&](int client, std::uint64_t serial, const Call** call,
          std::string* line) {
        const std::string tag =
            "s" + std::to_string(opt.seed) + "c" + std::to_string(client);
        Call& c = calls[client];
        gen.make(rngs[client], tag, serial, &c);
        *call = &c;
        *line = eval_line(c) + "\n";
      },
      [&](std::size_t n) {
        if (n == kRssAtRequests) rss_at_n = daemon->peak_rss_mb();
      },
      res);
  const SlicedLatency sliced =
      check_samples(samples, opt.seconds, kClosedSlices, "serve-cold", res);
  if (samples.size() < kRssAtRequests) {
    res.check(false, "serve-cold completed only " +
                         std::to_string(samples.size()) +
                         " requests, fewer than the " +
                         std::to_string(kRssAtRequests) +
                         " peak_rss_mb is read at");
  }

  Conn admin(daemon->port());
  const CacheStats cache = cache_stats(admin);
  res.add("setup_s", median(setups), "s");
  res.add("p50_us", sliced.quantile_us(0.5), "us");
  res.note("p99_us " + number_text(sliced.quantile_us(0.99)) +
           " us (tail latency: reported, not gated)");
  res.note("max_rps " + number_text(sliced.rate()) +
           " 1/s (completions per second: reported, not gated)");
  res.add("qsort_ms", sliced.family_ms("qsort"), "ms");
  res.add("spmv_ms", sliced.family_ms("spmv"), "ms");
  res.add("qhull_ms", sliced.family_ms("qhull"), "ms");
  res.add("peak_rss_mb", rss_at_n, "MB");
  res.note("closed loop, 2 clients: " + std::to_string(samples.size()) +
           " samples in " + number_text(opt.seconds) + " s; slice p99_us=[" +
           sliced.detail(0.99) + "]");
  res.note("daemon cache: hits=" + number_text(cache.hits) +
           " misses=" + number_text(cache.misses) +
           " entries=" + number_text(cache.entries) +
           "; no eviction: peak RSS " + number_text(rss_at_n) + " MB at " +
           std::to_string(kRssAtRequests) + " requests, " +
           number_text(daemon->peak_rss_mb()) + " MB at the end");
  daemon->stop();
  return res;
}

}  // namespace perfbench
