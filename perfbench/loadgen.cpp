#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <string_view>

namespace perfbench {

int64_t NowNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

uint64_t PhaseResult::attempted() const {
  uint64_t n = 0;
  for (const RequestTiming& r : requests) n += r.sent != 0 ? 1 : 0;
  return n;
}

uint64_t PhaseResult::succeeded() const {
  uint64_t n = 0;
  for (const RequestTiming& r : requests) n += r.ok ? 1 : 0;
  return n;
}

Samples PhaseResult::Latency() const {
  Samples s;
  for (const RequestTiming& r : requests) {
    if (r.done != 0) s.Add(r.done - r.due);
  }
  return s;
}

Samples PhaseResult::Lateness() const {
  Samples s;
  for (const RequestTiming& r : requests) {
    if (r.sent != 0) s.Add(r.sent - r.due);
  }
  return s;
}

double PhaseResult::Throughput() const {
  int64_t first = INT64_MAX, last = 0;
  uint64_t ok = 0;
  for (const RequestTiming& r : requests) {
    if (!r.ok) continue;
    first = std::min(first, r.sent);
    last = std::max(last, r.done);
    ++ok;
  }
  return ok == 0 || last <= first ? 0.0 : ok * 1e9 / static_cast<double>(last - first);
}

struct OpenLoopClient::Conn {
  int fd = -1;
  bool busy = false;
  size_t request = 0;  // index into the phase's request vector
  std::string in;
};

namespace {

// Parses one complete response at the front of `in`. Returns false while
// more bytes are needed; on a malformed head sets *malformed.
bool ParseResponse(const std::string& in, int* status, size_t* head_len,
                   size_t* body_len, bool* malformed) {
  *malformed = false;
  const size_t end = in.find("\r\n\r\n");
  if (end == std::string::npos) return false;
  *head_len = end + 4;
  std::string_view head(in.data(), end);
  if (head.size() < 12 || head.substr(0, 5) != "HTTP/") {
    *malformed = true;
    return true;
  }
  *status = std::atoi(std::string(head.substr(9, 3)).c_str());
  // Every response must carry Content-Length (the server never chunks).
  bool have_length = false;
  size_t pos = head.find("\r\n");
  while (pos != std::string_view::npos && pos < head.size()) {
    const size_t line_start = pos + 2;
    size_t line_end = head.find("\r\n", line_start);
    if (line_end == std::string_view::npos) line_end = head.size();
    std::string_view line = head.substr(line_start, line_end - line_start);
    constexpr std::string_view kName = "content-length:";
    if (line.size() > kName.size()) {
      bool match = true;
      for (size_t i = 0; i < kName.size(); ++i) {
        if (std::tolower(static_cast<unsigned char>(line[i])) != kName[i]) {
          match = false;
          break;
        }
      }
      if (match) {
        char* parse_end = nullptr;
        const std::string value(line.substr(kName.size()));
        const unsigned long long n = std::strtoull(value.c_str(), &parse_end, 10);
        if (parse_end == value.c_str()) {
          *malformed = true;
          return true;
        }
        *body_len = static_cast<size_t>(n);
        have_length = true;
      }
    }
    pos = line_end;
    if (line_end >= head.size()) break;
  }
  if (!have_length) {
    *malformed = true;
    return true;
  }
  return in.size() >= *head_len + *body_len;
}

}  // namespace

OpenLoopClient::OpenLoopClient(const ReadStream* stream, uint16_t port,
                               size_t connections)
    : stream_(stream), port_(port) {
  for (size_t i = 0; i < connections; ++i) {
    conns_.push_back(std::make_unique<Conn>());
  }
}

OpenLoopClient::~OpenLoopClient() {
  for (auto& conn : conns_) {
    if (conn->fd >= 0) close(conn->fd);
  }
}

nagano::Status OpenLoopClient::Open(Conn& conn) {
  if (conn.fd >= 0) close(conn.fd);
  conn.fd = -1;
  conn.in.clear();
  conn.busy = false;
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return nagano::UnavailableError("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    close(fd);
    return nagano::UnavailableError("connect to port " +
                                    std::to_string(port_) + " failed");
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_NONBLOCK);
  conn.fd = fd;
  return nagano::Status::Ok();
}

nagano::Status OpenLoopClient::Connect() {
  for (auto& conn : conns_) {
    if (nagano::Status s = Open(*conn); !s.ok()) return s;
  }
  return nagano::Status::Ok();
}

PhaseResult OpenLoopClient::Run(const PhaseOptions& options) {
  PhaseResult result;
  const size_t slots = stream_->targets.size();
  // Sub-millisecond schedules need the timer to fire on time.
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);

  const int ep = epoll_create1(EPOLL_CLOEXEC);
  const int tfd = timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
  epoll_event tev{};
  tev.events = EPOLLIN;
  tev.data.u64 = UINT64_MAX;
  epoll_ctl(ep, EPOLL_CTL_ADD, tfd, &tev);
  auto watch = [&](size_t i) {
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLRDHUP;
    ev.data.u64 = i;
    epoll_ctl(ep, EPOLL_CTL_ADD, conns_[i]->fd, &ev);
  };
  for (size_t i = 0; i < conns_.size(); ++i) {
    if (conns_[i]->fd < 0) (void)Open(*conns_[i]);
    if (conns_[i]->fd >= 0) watch(i);
  }

  auto note_error = [&](std::string what) {
    if (result.errors.size() < 8) result.errors.push_back(std::move(what));
  };
  // A broken connection fails its in-flight request and is reopened.
  auto fail_conn = [&](size_t i, const std::string& why, int64_t now) {
    Conn& conn = *conns_[i];
    if (conn.busy) {
      RequestTiming& r = result.requests[conn.request];
      r.done = now;
      r.ok = false;
      note_error(stream_->targets[r.slot] + ": " + why);
    }
    epoll_ctl(ep, EPOLL_CTL_DEL, conn.fd, nullptr);
    if (Open(conn).ok()) watch(i);
  };

  const int64_t start = NowNs() + 1'000'000;
  const int64_t end = start + options.duration_ns;
  // After `give_up` nothing more is sent; requests already in flight get
  // `answer_ns` more to come back before they count as failed.
  constexpr int64_t drain_ns = 2'000'000'000;
  const int64_t give_up = end + drain_ns;
  constexpr int64_t answer_ns = 2'000'000'000;
  const double ns_per_request = 1e9 / options.rate;
  double next_due = static_cast<double>(start);
  std::deque<size_t> pending;  // request indices due but not sent
  if (!options.saturate) {
    result.requests.reserve(
        static_cast<size_t>(options.rate * options.duration_ns / 1e9 * 1.1) + 16);
  }
  bool schedule_done = false;
  size_t in_flight = 0;
  char buf[65536];

  while (true) {
    int64_t now = NowNs();
    if (options.saturate && !schedule_done) {
      if (now >= end) schedule_done = true;
      while (!schedule_done && in_flight + pending.size() < conns_.size()) {
        RequestTiming r;
        r.slot = cursor_++ % slots;
        r.due = now;
        pending.push_back(result.requests.size());
        result.requests.push_back(r);
      }
    }
    while (!options.saturate && !schedule_done && static_cast<int64_t>(next_due) <= now) {
      if (static_cast<int64_t>(next_due) >= end) {
        schedule_done = true;
        break;
      }
      RequestTiming r;
      r.slot = cursor_ % slots;
      r.due = static_cast<int64_t>(next_due);
      pending.push_back(result.requests.size());
      result.requests.push_back(r);
      next_due += stream_->gaps[cursor_ % slots] * ns_per_request;
      ++cursor_;
    }
    const bool sending = NowNs() < give_up;
    for (size_t i = 0; sending && i < conns_.size() && !pending.empty(); ++i) {
      Conn& conn = *conns_[i];
      if (conn.busy || conn.fd < 0) continue;
      const size_t idx = pending.front();
      pending.pop_front();
      RequestTiming& r = result.requests[idx];
      const std::string req = "GET " + stream_->targets[r.slot] +
                              " HTTP/1.1\r\nHost: bench\r\n\r\n";
      r.sent = NowNs();
      conn.busy = true;
      conn.request = idx;
      ++in_flight;
      const ssize_t n = send(conn.fd, req.data(), req.size(), MSG_NOSIGNAL);
      if (n != static_cast<ssize_t>(req.size())) {
        --in_flight;
        fail_conn(i, "short send", NowNs());
      }
    }
    if (schedule_done && pending.empty() && in_flight == 0) break;
    now = NowNs();
    if (now >= give_up && in_flight == 0) break;
    if (now >= give_up + answer_ns) break;

    int timeout_ms = 10;
    if (options.saturate && !schedule_done) {
      timeout_ms = static_cast<int>((end - now) / 1'000'000) + 1;
    } else if (!schedule_done) {
      itimerspec its{};
      const int64_t due = static_cast<int64_t>(next_due);
      its.it_value.tv_sec = due / 1'000'000'000;
      its.it_value.tv_nsec = due % 1'000'000'000;
      timerfd_settime(tfd, TFD_TIMER_ABSTIME, &its, nullptr);
      timeout_ms = -1;
    }
    epoll_event events[16];
    const int ready = epoll_wait(ep, events, 16, timeout_ms);
    now = NowNs();
    for (int e = 0; e < ready; ++e) {
      if (events[e].data.u64 == UINT64_MAX) {
        uint64_t expirations = 0;
        (void)!read(tfd, &expirations, sizeof expirations);
        continue;
      }
      const size_t i = events[e].data.u64;
      Conn& conn = *conns_[i];
      bool closed = false;
      while (true) {
        const ssize_t n = recv(conn.fd, buf, sizeof buf, 0);
        if (n > 0) {
          conn.in.append(buf, static_cast<size_t>(n));
          continue;
        }
        if (n == 0) closed = true;
        if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) closed = true;
        break;
      }
      if (conn.busy) {
        int status = 0;
        size_t head_len = 0, body_len = 0;
        bool malformed = false;
        if (ParseResponse(conn.in, &status, &head_len, &body_len, &malformed)) {
          RequestTiming& r = result.requests[conn.request];
          r.done = now;
          r.status = status;
          if (malformed) {
            --in_flight;
            conn.busy = false;
            r.ok = false;
            note_error(stream_->targets[r.slot] + ": malformed response");
            conn.busy = false;
            closed = true;
          } else {
            const bool exact = conn.in.size() == head_len + body_len;
            r.ok = status == 200 && exact && body_len > 0;
            if (!r.ok) {
              note_error(stream_->targets[r.slot] + ": status " +
                         std::to_string(status) +
                         (exact ? "" : " with trailing bytes"));
            }
            if (options.keep_body_every != 0 &&
                r.slot % options.keep_body_every == 0) {
              result.bodies.push_back({r.slot, now, conn.in.substr(head_len, body_len)});
            }
            conn.in.clear();
            conn.busy = false;
            --in_flight;
            if (!exact) closed = true;
          }
        }
      }
      if (closed) {
        if (conn.busy) --in_flight;
        fail_conn(i, "connection closed", now);
      }
    }
  }

  // Requests still queued at give-up stay unsent; one still in flight failed.
  for (size_t i = 0; i < conns_.size(); ++i) {
    if (conns_[i]->busy) {
      RequestTiming& r = result.requests[conns_[i]->request];
      note_error(stream_->targets[r.slot] + ": no answer within 2 s");
      // The socket may still deliver the late answer; start clean.
      epoll_ctl(ep, EPOLL_CTL_DEL, conns_[i]->fd, nullptr);
      (void)Open(*conns_[i]);
    }
  }
  close(tfd);
  close(ep);
  return result;
}

}  // namespace perfbench
