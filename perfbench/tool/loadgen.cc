// Load generator for `infoflow serve --socket`: drives 4 connections from
// one process (one thread per connection) through a closed-loop or an
// open-loop phase and logs every request with its timings and response.
//
//   perfbench_load --socket S --pool reads.ndjson
//                  [--ingest-pool ev.ndjson --ingest-rate I]
//                  --mode closed|open --seconds T
//                  [--rate R] --seed N --out log.tsv [--daemon-pid P]
//                  [--reference ref.ndjson]
//
// Pool files hold one request object per line without an "id"; each send
// takes the next line of a per-connection seeded shuffle of the pool and
// prefixes a fresh
// id "<pool index>.<connection>.<sequence>". With --ingest-pool, connection
// 0 streams the ingest lines in order (cycling) at Poisson times, I per
// second, in either phase, and the others send reads.
//
// Closed loop: each read connection sends its next line only after the
// reply to the previous one. Open loop: Poisson arrivals at R per second
// over the whole phase (from a fixed schedule seed), dealt round-robin to
// the read connections; each request is
// timed from its due time, and the generator's own lateness (send - due)
// is logged beside it.
//
// Output: one tab-separated line per request — connection, sequence, pool
// ("r<k>" or "i<k>"), due/send/receive in ns from phase start (receive -1
// when no reply came), then the raw response line, or "=" when it matched
// the --reference answer of its pool line exactly. The last stdout line is
// a JSON summary (wall time, generator CPU seconds, daemon thread count
// read from /proc while the connections were still open).

#include <poll.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace {

using Clock = std::chrono::steady_clock;

/// Connections (and threads): the machine's 4 cores.
constexpr int kConnections = 4;

/// No reply within this long counts the request as missing and ends the
/// connection's phase.
constexpr int kReplyTimeoutMs = 60000;

struct Options {
  std::string socket_path;
  std::string pool_path;
  std::string ingest_pool_path;
  std::string out_path;
  std::string reference_path;
  std::string mode = "closed";
  double seconds = 5.0;
  double rate = 0.0;
  double ingest_rate = 0.0;
  std::uint64_t seed = 1;
  long daemon_pid = 0;
};

/// splitmix64: small, seedable, identical on every platform.
struct Rng {
  std::uint64_t state;
  std::uint64_t Next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  std::size_t Below(std::size_t n) { return static_cast<std::size_t>(Next() % n); }
};

struct Record {
  std::string pool;
  std::int64_t due_ns = 0;
  std::int64_t send_ns = 0;
  std::int64_t recv_ns = -1;
  std::string response;
};

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench_load: %s\n", message.c_str());
  std::exit(1);
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  if (!in) Die("cannot read " + path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) lines.push_back(line);
  }
  if (lines.empty()) Die(path + " holds no request lines");
  for (const std::string& line : lines) {
    if (line.size() < 2 || line.front() != '{' || line[1] == '}') {
      Die("pool line is not a non-empty JSON object: " + line);
    }
  }
  return lines;
}

int Connect(const std::string& path) {
  const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) Die(std::string("socket(): ") + std::strerror(errno));
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) Die("socket path too long");
  std::memcpy(addr.sun_path, path.c_str(), path.size());
  if (connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    Die("connect(" + path + "): " + std::strerror(errno));
  }
  return fd;
}

/// One connection's line-buffered, poll-driven endpoint.
class Conn {
 public:
  explicit Conn(int fd) : fd_(fd) {}
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;
  ~Conn() { close(fd_); }

  void Queue(const std::string& line) {
    out_ += line;
    out_ += '\n';
  }

  bool Pending() const { return sent_ < out_.size(); }

  /// Waits up to `timeout_ns` for readability (and writability while output
  /// is queued), then moves what it can. False on EOF or socket error.
  bool Pump(std::int64_t timeout_ns) {
    pollfd p{fd_, static_cast<short>(POLLIN | (Pending() ? POLLOUT : 0)), 0};
    const timespec timeout{static_cast<time_t>(timeout_ns / 1000000000),
                           static_cast<long>(timeout_ns % 1000000000)};
    const int n = ppoll(&p, 1, &timeout, nullptr);
    if (n < 0) return errno == EINTR;
    if (n == 0) return true;
    if ((p.revents & POLLOUT) != 0 && Pending()) {
      const ssize_t w = send(fd_, out_.data() + sent_, out_.size() - sent_,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
      if (w < 0 && errno != EAGAIN && errno != EINTR) return false;
      if (w > 0) sent_ += static_cast<std::size_t>(w);
      if (sent_ == out_.size()) {
        out_.clear();
        sent_ = 0;
      }
    }
    if ((p.revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
      char buf[1 << 16];
      const ssize_t r = recv(fd_, buf, sizeof(buf), MSG_DONTWAIT);
      if (r == 0) return false;
      if (r < 0) return errno == EAGAIN || errno == EINTR;
      in_.append(buf, static_cast<std::size_t>(r));
    }
    return true;
  }

  /// Pops one complete response line if buffered.
  bool PopLine(std::string& line) {
    const std::size_t nl = in_.find('\n', scan_);
    if (nl == std::string::npos) {
      scan_ = in_.size();
      return false;
    }
    line.assign(in_, 0, nl);
    in_.erase(0, nl + 1);
    scan_ = 0;
    return true;
  }

 private:
  int fd_;
  std::string out_;
  std::size_t sent_ = 0;
  std::string in_;
  std::size_t scan_ = 0;
};

struct Source {
  const std::vector<std::string>* lines;
  bool ingest;
  Rng rng;
  std::size_t cursor = 0;
  std::vector<std::size_t> order = {};

  /// Next pool index: ingest lines in order; reads walk the pool in a
  /// fresh seeded shuffle per pass, so any stretch of a connection's
  /// stream holds the pool's mix without sampling error.
  std::size_t Pick() {
    const std::size_t n = lines->size();
    if (ingest) return cursor++ % n;
    if (cursor % n == 0) {
      order.resize(n);
      for (std::size_t i = 0; i < n; ++i) order[i] = i;
      for (std::size_t i = n - 1; i > 0; --i) {
        std::swap(order[i], order[rng.Below(i + 1)]);
      }
    }
    return order[cursor++ % n];
  }
};

std::string Tag(const Source& source, std::size_t index) {
  return (source.ingest ? "i" : "r") + std::to_string(index);
}

std::string WithId(const std::string& line, std::size_t index, int conn,
                   std::size_t seq) {
  return "{\"id\":\"" + std::to_string(index) + "." + std::to_string(conn) +
         "." + std::to_string(seq) + "\"," + line.substr(1);
}

std::int64_t Since(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              start)
      .count();
}

/// Exact answers for read lines, as the in-process reference serialized
/// them: responses that equal their pool line's reference once the echoed
/// id and the batch-dependent `frontier_shared` flag are dropped are logged
/// as "=" ("=s" when the flag was true) instead of in full; everything else
/// is kept for the caller.
class Verifier {
 public:
  explicit Verifier(std::vector<std::string> reference) {
    for (std::string& line : reference) {
      std::string ignored;
      bool shared = false;
      normalized_.push_back(Normalize(line, ignored, shared) ? line
                                                             : std::string());
    }
  }

  void Settle(Record& rec, const std::string& expected_id) const {
    if (normalized_.empty() || rec.recv_ns < 0 || rec.pool[0] != 'r') return;
    const std::size_t index = std::strtoull(rec.pool.c_str() + 1, nullptr, 10);
    if (index >= normalized_.size()) return;
    std::string text = rec.response;
    std::string id;
    bool shared = false;
    if (Normalize(text, id, shared) && id == expected_id &&
        text == normalized_[index]) {
      rec.response = shared ? "=s" : "=";
    }
  }

 private:
  /// Cuts `"id":"<x>",` (keeping x in `id`) and `"frontier_shared":<b>,`
  /// (keeping b in `shared`).
  static bool Normalize(std::string& text, std::string& id, bool& shared) {
    static const std::string kId = "\"id\":\"";
    const std::size_t at = text.find(kId);
    if (at == std::string::npos) return false;
    const std::size_t close = text.find('"', at + kId.size());
    if (close == std::string::npos || close + 1 >= text.size() ||
        text[close + 1] != ',') {
      return false;
    }
    id.assign(text, at + kId.size(), close - at - kId.size());
    text.erase(at, close + 2 - at);
    for (const char* flag : {"\"frontier_shared\":true,",
                             "\"frontier_shared\":false,"}) {
      const std::size_t f = text.find(flag);
      if (f != std::string::npos) {
        shared = std::strstr(flag, "true") != nullptr;
        text.erase(f, std::strlen(flag));
        break;
      }
    }
    return true;
  }

  std::vector<std::string> normalized_;
};

std::string IdOf(const Record& rec, int conn, std::size_t seq) {
  return rec.pool.substr(1) + "." + std::to_string(conn) + "." +
         std::to_string(seq);
}

void RunClosed(Conn& conn, Source& source, int c, Clock::time_point start,
               Clock::time_point deadline, const Verifier& verifier,
               std::vector<Record>& log) {
  std::string response;
  for (std::size_t seq = 0; Clock::now() < deadline; ++seq) {
    const std::size_t index = source.Pick();
    Record rec;
    rec.pool = Tag(source, index);
    rec.due_ns = rec.send_ns = Since(start);
    conn.Queue(WithId((*source.lines)[index], index, c, seq));
    bool alive = conn.Pump(0);
    // Check the previous answer while the daemon works on this one.
    if (seq > 0) verifier.Settle(log.back(), IdOf(log.back(), c, seq - 1));
    const auto give_up = Clock::now() + std::chrono::milliseconds(kReplyTimeoutMs);
    bool answered = false;
    while (alive && !(answered = conn.PopLine(response)) &&
           Clock::now() < give_up) {
      alive = conn.Pump(100000000);
    }
    if (answered) {
      rec.recv_ns = Since(start);
      rec.response = std::move(response);
      response.clear();
    }
    log.push_back(std::move(rec));
    if (!answered) return;
  }
  if (!log.empty()) verifier.Settle(log.back(), IdOf(log.back(), c, log.size() - 1));
}

/// The open loop sleeps until this long before the next due time, then
/// polls the socket without blocking until the time comes, so sends leave
/// on schedule instead of one scheduler wake-up late.
constexpr std::int64_t kSpinNs = 50000;

void RunOpen(Conn& conn, Source& source, int c, Clock::time_point start,
             const std::vector<std::int64_t>& due, const Verifier& verifier,
             std::vector<Record>& log) {
  std::deque<std::size_t> outstanding;  // indices into log, FIFO
  std::size_t next = 0;
  std::string response;
  auto last_progress = Clock::now();
  while (next < due.size() || !outstanding.empty()) {
    const std::int64_t now = Since(start);
    while (next < due.size() && due[next] <= now) {
      const std::size_t index = source.Pick();
      Record rec;
      rec.pool = Tag(source, index);
      rec.due_ns = due[next];
      rec.send_ns = Since(start);
      conn.Queue(WithId((*source.lines)[index], index, c, next));
      outstanding.push_back(log.size());
      log.push_back(std::move(rec));
      ++next;
    }
    std::int64_t wait_ns = 50000000;
    if (next < due.size()) {
      wait_ns = std::clamp<std::int64_t>(due[next] - Since(start) - kSpinNs, 0,
                                         wait_ns);
    }
    if (!conn.Pump(wait_ns)) break;
    while (!outstanding.empty() && conn.PopLine(response)) {
      const std::size_t k = outstanding.front();
      outstanding.pop_front();
      log[k].recv_ns = Since(start);
      log[k].response = std::move(response);
      response.clear();
      verifier.Settle(log[k], IdOf(log[k], c, k));
      last_progress = Clock::now();
    }
    if (outstanding.empty()) last_progress = Clock::now();
    if (Clock::now() - last_progress >
        std::chrono::milliseconds(kReplyTimeoutMs)) {
      break;
    }
  }
  // Arrivals never sent (connection lost) still count as attempted.
  for (; next < due.size(); ++next) {
    Record rec;
    rec.pool = "r-1";
    rec.due_ns = rec.send_ns = due[next];
    log.push_back(std::move(rec));
  }
}

/// Poisson arrival times (ns) at `rate` per second over `seconds`.
std::vector<std::int64_t> PoissonSchedule(std::uint64_t seed, double rate,
                                          double seconds) {
  std::vector<std::int64_t> times;
  Rng rng{seed};
  for (double t = 0.0;;) {
    t += -std::log1p(-rng.Uniform()) / rate;
    if (t >= seconds) return times;
    times.push_back(static_cast<std::int64_t>(t * 1e9));
  }
}

long DaemonThreads(long pid) {
  if (pid <= 0) return -1;
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("Threads:", 0) == 0) return std::atol(line.c_str() + 8);
  }
  return -1;
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

Options ParseOptions(int argc, char** argv) {
  Options opt;
  std::map<std::string, std::string> flags;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) Die("unexpected argument " + key);
    flags[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 == 0) Die("flags come in --name value pairs");
  const auto get = [&](const std::string& key, const std::string& fallback) {
    const auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
  };
  opt.socket_path = get("socket", "");
  opt.pool_path = get("pool", "");
  opt.ingest_pool_path = get("ingest-pool", "");
  opt.out_path = get("out", "");
  opt.reference_path = get("reference", "");
  opt.mode = get("mode", "closed");
  opt.seconds = std::atof(get("seconds", "5").c_str());
  opt.rate = std::atof(get("rate", "0").c_str());
  opt.ingest_rate = std::atof(get("ingest-rate", "0").c_str());
  opt.seed = std::strtoull(get("seed", "1").c_str(), nullptr, 10);
  opt.daemon_pid = std::atol(get("daemon-pid", "0").c_str());
  if (opt.socket_path.empty() || opt.pool_path.empty() || opt.out_path.empty()) {
    Die("--socket, --pool and --out are required");
  }
  if (!(opt.seconds > 0)) Die("bad --seconds");
  if (opt.mode != "closed" && opt.mode != "open") Die("bad --mode");
  if (opt.mode == "open" && !(opt.rate > 0)) Die("open loop needs --rate");
  if (!opt.ingest_pool_path.empty() && !(opt.ingest_rate > 0)) {
    Die("--ingest-pool needs --ingest-rate");
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = ParseOptions(argc, argv);
  // Wake-ups land on the due time instead of up to 50 us after it.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  const std::vector<std::string> reads = ReadLines(opt.pool_path);
  std::vector<std::string> ingests;
  if (!opt.ingest_pool_path.empty()) ingests = ReadLines(opt.ingest_pool_path);
  const Verifier verifier(opt.reference_path.empty()
                              ? std::vector<std::string>()
                              : ReadLines(opt.reference_path));

  const int n = kConnections;
  std::vector<std::unique_ptr<Conn>> conns;
  std::vector<Source> sources;
  for (int c = 0; c < n; ++c) {
    conns.push_back(std::make_unique<Conn>(Connect(opt.socket_path)));
    const bool ingest = c == 0 && !ingests.empty();
    const std::uint64_t stream_seed =
        opt.seed * std::uint64_t{0x100000001b3} + static_cast<std::uint64_t>(c);
    sources.push_back(Source{ingest ? &ingests : &reads, ingest, Rng{stream_seed}});
  }

  // Open-loop arrival schedules: reads dealt round-robin over the read
  // connections; the ingest connection streams evidence at its own rate in
  // both phases. The arrival times come from fixed seeds, the same in every
  // run: which lines arrive varies with --seed, but a p99 taken over a few
  // thousand arrivals does not swing with how bursty one draw of the
  // schedule happened to be.
  const bool has_ingest = !ingests.empty();
  const int first_read = has_ingest ? 1 : 0;
  if (first_read >= n) Die("no connection left for reads");
  std::vector<std::vector<std::int64_t>> due(static_cast<std::size_t>(n));
  if (opt.mode == "open") {
    const std::vector<std::int64_t> arrivals =
        PoissonSchedule(0x5eedULL, opt.rate, opt.seconds);
    for (std::size_t k = 0; k < arrivals.size(); ++k) {
      due[static_cast<std::size_t>(first_read) +
          k % static_cast<std::size_t>(n - first_read)]
          .push_back(arrivals[k]);
    }
  }
  if (has_ingest) {
    due[0] = PoissonSchedule(0x1a9e57ULL, opt.ingest_rate, opt.seconds);
  }

  std::vector<std::vector<Record>> logs(static_cast<std::size_t>(n));
  const double cpu0 = CpuSeconds();
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::nanoseconds(static_cast<std::int64_t>(opt.seconds * 1e9));
  const auto work = [&](int c) {
    const auto k = static_cast<std::size_t>(c);
    if (opt.mode == "closed" && c >= first_read) {
      RunClosed(*conns[k], sources[k], c, start, deadline, verifier, logs[k]);
    } else {
      RunOpen(*conns[k], sources[k], c, start, due[k], verifier, logs[k]);
    }
  };
  // Connection 0 runs on this thread: C connections, C threads.
  std::vector<std::thread> threads;
  for (int c = 1; c < n; ++c) threads.emplace_back(work, c);
  work(0);
  for (std::thread& t : threads) t.join();
  const double wall = static_cast<double>(Since(start)) * 1e-9;
  const double cpu = CpuSeconds() - cpu0;
  const long daemon_threads = DaemonThreads(opt.daemon_pid);
  conns.clear();

  std::ofstream out(opt.out_path, std::ios::trunc);
  if (!out) Die("cannot write " + opt.out_path);
  std::size_t records = 0;
  for (int c = 0; c < n; ++c) {
    std::size_t seq = 0;
    for (const Record& rec : logs[static_cast<std::size_t>(c)]) {
      out << c << '\t' << seq++ << '\t' << rec.pool << '\t' << rec.due_ns
          << '\t' << rec.send_ns << '\t' << rec.recv_ns << '\t' << rec.response
          << '\n';
      ++records;
    }
  }
  out.close();
  if (!out) Die("short write to " + opt.out_path);
  std::printf(
      "{\"records\":%zu,\"wall_s\":%.6f,\"cpu_s\":%.6f,\"daemon_threads\":%ld}\n",
      records, wall, cpu, daemon_threads);
  return 0;
}
