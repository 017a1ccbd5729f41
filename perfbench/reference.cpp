#include "reference.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <pthread.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <unordered_map>
#include <vector>

namespace perfbench {

namespace {

constexpr uint64_t kStopTag = UINT64_MAX;
constexpr uint64_t kListenTag = UINT64_MAX - 1;

int Listen(uint16_t* port) {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  const int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof addr;
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      listen(fd, 64) != 0 ||
      getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    close(fd);
    return -1;
  }
  *port = ntohs(addr.sin_port);
  return fd;
}

void Tune(int fd) {
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

// Writes all of `data` to a socket whose peer reads promptly.
bool WriteAll(int fd, const char* data, size_t n) {
  while (n > 0) {
    const ssize_t w = send(fd, data, n, MSG_NOSIGNAL);
    if (w < 0 && errno == EINTR) continue;
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd p{fd, POLLOUT, 0};
      if (poll(&p, 1, 1000) <= 0) return false;
      continue;
    }
    if (w <= 0) return false;
    data += w;
    n -= static_cast<size_t>(w);
  }
  return true;
}

void Watch(int ep, int fd, uint64_t tag) {
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = tag;
  epoll_ctl(ep, EPOLL_CTL_ADD, fd, &ev);
}

}  // namespace

nagano::Result<std::unique_ptr<ReferenceChain>> ReferenceChain::Start(size_t body_bytes) {
  std::unique_ptr<ReferenceChain> chain(new ReferenceChain());
  chain->response_ = "HTTP/1.1 200 OK\r\nContent-Length: " + std::to_string(body_bytes) +
                     "\r\n\r\n" + std::string(body_bytes, 'x');
  chain->stop_fd_ = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  bool ok = chain->stop_fd_ >= 0;
  for (size_t i = 0; i < kEchoes; ++i) {
    chain->echo_listen_[i] = Listen(&chain->echo_port_[i]);
    ok = ok && chain->echo_listen_[i] >= 0;
  }
  chain->relay_listen_ = Listen(&chain->relay_port_);
  if (!ok || chain->relay_listen_ < 0) {
    return nagano::UnavailableError("reference chain: socket setup failed");
  }
  ReferenceChain* self = chain.get();
  for (size_t i = 0; i < kEchoes; ++i) {
    const int fd = chain->echo_listen_[i];
    chain->echo_[i] = std::thread([self, fd] { self->Echo(fd); });
  }
  chain->relay_ = std::thread([self] { self->Relay(); });
  return chain;
}

double ReferenceChain::CpuSeconds() {
  double total = 0;
  auto add = [&](std::thread& t) {
    clockid_t clock;
    timespec ts{};
    if (pthread_getcpuclockid(t.native_handle(), &clock) == 0 &&
        clock_gettime(clock, &ts) == 0) {
      total += ts.tv_sec + ts.tv_nsec / 1e9;
    }
  };
  for (std::thread& t : echo_) add(t);
  add(relay_);
  return total;
}

ReferenceChain::~ReferenceChain() {
  if (stop_fd_ >= 0) {
    const uint64_t one = 1;
    (void)!write(stop_fd_, &one, sizeof one);
  }
  for (std::thread& t : echo_) {
    if (t.joinable()) t.join();
  }
  if (relay_.joinable()) relay_.join();
  for (int fd : {echo_listen_[0], echo_listen_[1], relay_listen_, stop_fd_}) {
    if (fd >= 0) close(fd);
  }
}

// Answers each complete request head ("\r\n\r\n") with the fixed response.
void ReferenceChain::Echo(int listen_fd) {
  const int ep = epoll_create1(EPOLL_CLOEXEC);
  Watch(ep, stop_fd_, kStopTag);
  Watch(ep, listen_fd, kListenTag);
  std::unordered_map<int, std::string> inbox;
  char buf[16384];
  epoll_event events[32];
  bool running = true;
  while (running) {
    const int ready = epoll_wait(ep, events, 32, -1);
    for (int e = 0; e < ready; ++e) {
      const uint64_t tag = events[e].data.u64;
      if (tag == kStopTag) {
        running = false;
      } else if (tag == kListenTag) {
        const int fd = accept4(listen_fd, nullptr, nullptr, SOCK_CLOEXEC | SOCK_NONBLOCK);
        if (fd < 0) continue;
        Tune(fd);
        inbox[fd];
        Watch(ep, fd, static_cast<uint64_t>(fd));
      } else {
        const int fd = static_cast<int>(tag);
        std::string& in = inbox[fd];
        bool closed = false;
        while (true) {
          const ssize_t n = recv(fd, buf, sizeof buf, 0);
          if (n > 0) {
            in.append(buf, static_cast<size_t>(n));
            continue;
          }
          closed = n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK);
          break;
        }
        size_t head;
        while (!closed && (head = in.find("\r\n\r\n")) != std::string::npos) {
          in.erase(0, head + 4);
          closed = !WriteAll(fd, response_.data(), response_.size());
        }
        if (closed) {
          epoll_ctl(ep, EPOLL_CTL_DEL, fd, nullptr);
          close(fd);
          inbox.erase(fd);
        }
      }
    }
  }
  for (const auto& [fd, unused] : inbox) close(fd);
  close(ep);
}

// Pairs every client connection with its own connection to an echo thread,
// taking the echo threads in turn, and copies bytes both ways.
void ReferenceChain::Relay() {
  const int ep = epoll_create1(EPOLL_CLOEXEC);
  Watch(ep, stop_fd_, kStopTag);
  Watch(ep, relay_listen_, kListenTag);
  std::unordered_map<int, int> peer;
  size_t accepted = 0;
  auto drop = [&](int fd) {
    const int other = peer[fd];
    for (int f : {fd, other}) {
      epoll_ctl(ep, EPOLL_CTL_DEL, f, nullptr);
      close(f);
      peer.erase(f);
    }
  };
  char buf[65536];
  epoll_event events[32];
  bool running = true;
  while (running) {
    const int ready = epoll_wait(ep, events, 32, -1);
    for (int e = 0; e < ready; ++e) {
      const uint64_t tag = events[e].data.u64;
      if (tag == kStopTag) {
        running = false;
      } else if (tag == kListenTag) {
        const int client = accept4(relay_listen_, nullptr, nullptr, SOCK_CLOEXEC | SOCK_NONBLOCK);
        if (client < 0) continue;
        const int up = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(echo_port_[accepted++ % kEchoes]);
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        if (up < 0 || connect(up, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
          if (up >= 0) close(up);
          close(client);
          continue;
        }
        fcntl(up, F_SETFL, fcntl(up, F_GETFL) | O_NONBLOCK);
        Tune(client);
        Tune(up);
        peer[client] = up;
        peer[up] = client;
        Watch(ep, client, static_cast<uint64_t>(client));
        Watch(ep, up, static_cast<uint64_t>(up));
      } else {
        const int fd = static_cast<int>(tag);
        if (peer.count(fd) == 0) continue;  // dropped earlier in this batch
        bool closed = false;
        while (true) {
          const ssize_t n = recv(fd, buf, sizeof buf, 0);
          if (n > 0) {
            if (!WriteAll(peer[fd], buf, static_cast<size_t>(n))) closed = true;
            if (closed) break;
            continue;
          }
          closed = n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK);
          break;
        }
        if (closed) drop(fd);
      }
    }
  }
  for (const auto& [fd, unused] : peer) close(fd);
  close(ep);
}

}  // namespace perfbench
