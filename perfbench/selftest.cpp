// perfbench_selftest — tests of the benchmark's own measuring tools:
//   1. exact-sample quantiles against a sorted-vector reference, 1 us..10 s;
//   2. the open-loop generator against a stub server that stalls once
//      (no coordinated omission: requests due during the stall are charged
//      from their due time, and the generator's lateness shows the stall);
//   3. input generation: the same seed gives identical read and commit
//      streams, another seed does not;
//   4. the reference chain answers every read, open loop and closed loop
//      (the capacity steps' mode), through each of its echo threads.
// Run: python3 perfbench/run.py --selftest   (exit code 0 = all passed)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "inputs.h"
#include "loadgen.h"
#include "reference.h"
#include "samples.h"

namespace perfbench {
namespace {

int failures = 0;

void Check(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) ++failures;
}

// --- 1. quantiles ------------------------------------------------------------

int64_t ReferenceQuantile(std::vector<int64_t> v, double q) {
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

void QuantileTest() {
  std::mt19937_64 rng(7);
  // Log-uniform over 1 us .. 10 s, in integer nanoseconds.
  std::uniform_real_distribution<double> exponent(3.0, 10.0);
  const double qs[] = {0.0, 0.001, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0};
  bool all_exact = true;
  size_t cases = 0;
  for (size_t n : {1, 2, 3, 10, 99, 100, 101, 1000, 12345, 100000}) {
    Samples s;
    std::vector<int64_t> ref;
    for (size_t i = 0; i < n; ++i) {
      const auto v = static_cast<int64_t>(std::pow(10.0, exponent(rng)));
      s.Add(v);
      ref.push_back(v);
    }
    if (s.count() != n) all_exact = false;
    for (double q : qs) {
      ++cases;
      if (s.QuantileNs(q) != ReferenceQuantile(ref, q)) {
        all_exact = false;
        std::printf("  mismatch n=%zu q=%g: %lld vs %lld\n", n, q,
                    static_cast<long long>(s.QuantileNs(q)),
                    static_cast<long long>(ReferenceQuantile(ref, q)));
      }
    }
  }
  Check(all_exact, "quantiles equal the sorted-vector reference over 1us..10s (" +
                       std::to_string(cases) + " cases)");
  Samples sub_ms;
  for (int i = 1; i <= 100; ++i) sub_ms.Add(i * 1000);  // 1..100 us
  Check(sub_ms.QuantileUs(0.5) == 50.0 && sub_ms.QuantileUs(0.99) == 99.0,
        "sub-millisecond samples keep their own values (p50 50us, p99 99us)");
  Check(Samples().QuantileNs(0.5) == 0 && Samples().count() == 0,
        "an empty sample set reports 0 with count 0");
}

// --- 2. coordinated omission ---------------------------------------------------

// A single-threaded HTTP stub: answers every request with a 2-byte body, and
// before answering request number `stall_at` sleeps `stall`.
class StallingStub {
 public:
  StallingStub(size_t stall_at, std::chrono::milliseconds stall)
      : stall_at_(stall_at), stall_(stall) {
    listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
    listen(listen_fd_, 16);
    socklen_t len = sizeof addr;
    getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] { Loop(); });
  }
  ~StallingStub() {
    stop_.store(true);
    thread_.join();
    for (int fd : conns_) close(fd);
    close(listen_fd_);
  }
  StallingStub(const StallingStub&) = delete;
  StallingStub& operator=(const StallingStub&) = delete;

  uint16_t port() const { return port_; }

 private:
  void Loop() {
    std::vector<std::string> in;
    size_t served = 0;
    while (!stop_.load()) {
      std::vector<pollfd> fds{{listen_fd_, POLLIN, 0}};
      for (int fd : conns_) fds.push_back({fd, POLLIN, 0});
      if (poll(fds.data(), fds.size(), 10) <= 0) continue;
      if (fds[0].revents & POLLIN) {
        conns_.push_back(accept(listen_fd_, nullptr, nullptr));
        in.emplace_back();
      }
      for (size_t i = 1; i < fds.size(); ++i) {
        if (!(fds[i].revents & POLLIN)) continue;
        char buf[4096];
        const ssize_t n = read(fds[i].fd, buf, sizeof buf);
        if (n <= 0) continue;
        std::string& pending = in[i - 1];
        pending.append(buf, static_cast<size_t>(n));
        size_t end;
        while ((end = pending.find("\r\n\r\n")) != std::string::npos) {
          pending.erase(0, end + 4);
          if (++served == stall_at_) std::this_thread::sleep_for(stall_);
          static const char kResponse[] =
              "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok";
          (void)!write(fds[i].fd, kResponse, sizeof kResponse - 1);
        }
      }
    }
  }

  size_t stall_at_;
  std::chrono::milliseconds stall_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::vector<int> conns_;
  std::atomic<bool> stop_{false};
  std::thread thread_;  // last: joined before the state above goes
};

void CoordinatedOmissionTest() {
  constexpr double kRate = 2000.0;
  constexpr int64_t kStallMs = 200;
  StallingStub stub(/*stall_at=*/500, std::chrono::milliseconds(kStallMs));
  ReadStream stream;
  for (int i = 0; i < 64; ++i) {
    stream.targets.push_back("/p" + std::to_string(i));
    stream.gaps.push_back(1.0);  // evenly spaced: exactly kRate per second
  }
  OpenLoopClient client(&stream, stub.port(), 4);
  Check(client.Connect().ok(), "generator connects to the stub");
  PhaseOptions options;
  options.rate = kRate;
  options.duration_ns = 1'000'000'000;
  const PhaseResult r = client.Run(options);

  const Samples latency = r.Latency();
  const Samples late = r.Lateness();
  const int64_t ms = 1'000'000;
  // Requests due in the first half of the stall still wait at least half of
  // it: about (kStallMs / 2) ms * kRate of them.
  const size_t expected_slow = static_cast<size_t>(kStallMs / 2 * kRate / 1000);
  size_t slow_from_send = 0;
  for (const RequestTiming& t : r.requests) {
    if (t.done - t.sent >= kStallMs / 2 * ms) ++slow_from_send;
  }
  std::printf("  %zu requests, %zu >= %lld ms from due time, %zu from send time; "
              "max %.1f ms, late p99 %.1f ms\n",
              static_cast<size_t>(r.attempted()), latency.CountAbove(kStallMs / 2 * ms),
              static_cast<long long>(kStallMs / 2), slow_from_send,
              latency.MaxNs() / 1e6, late.QuantileMs(0.99));
  Check(r.failed() == 0 && r.unsent() == 0 && r.attempted() >= 1990 &&
            r.attempted() <= 2010,
        "every scheduled request is sent and answered");
  Check(latency.MaxNs() >= (kStallMs - 10) * ms,
        "the stall shows in full in the worst latency");
  Check(latency.CountAbove(kStallMs / 2 * ms) >= expected_slow * 8 / 10,
        "requests due during the stall are charged from their due time");
  Check(slow_from_send <= 8,
        "timing from send time would have hidden the stall (the contrast)");
  Check(late.QuantileNs(0.99) >= kStallMs / 2 * ms,
        "loadgen lateness p99 shows the stall");
  Check(late.QuantileNs(0.5) < 5 * ms, "outside the stall the generator is on time");
}

// --- 3. seeded inputs ---------------------------------------------------------

void DeterminismTest() {
  InputSpec spec;
  spec.read_slots = 20000;
  const Inputs a = GenerateInputs(spec, 42);
  const Inputs b = GenerateInputs(spec, 42);
  const Inputs c = GenerateInputs(spec, 43);
  Check(!a.reads.targets.empty() && !a.commits.empty(), "inputs are generated");
  Check(a.reads.targets == b.reads.targets && a.reads.gaps == b.reads.gaps,
        "same seed -> identical read stream");
  Check(Digest(a.commits) == Digest(b.commits) && a.commits.size() == b.commits.size(),
        "same seed -> identical commit stream");
  Check(a.reads.targets != c.reads.targets && a.reads.gaps != c.reads.gaps,
        "another seed -> a different read stream");
  Check(Digest(a.commits) != Digest(c.commits), "another seed -> a different commit stream");
}

// --- 4. the reference chain ------------------------------------------------

void ReferenceChainTest() {
  constexpr size_t kBody = 1024;
  auto chain = ReferenceChain::Start(kBody);
  Check(chain.ok(), "the reference chain starts");
  if (!chain.ok()) return;
  ReadStream stream;
  for (int i = 0; i < 64; ++i) {
    stream.targets.push_back("/p" + std::to_string(i));
    stream.gaps.push_back(1.0);
  }
  // Four connections: the relay hands them to its two echo threads in turn.
  OpenLoopClient client(&stream, chain.value()->port(), 4);
  Check(client.Connect().ok(), "generator connects to the relay");
  PhaseOptions open;
  open.rate = 1000.0;
  open.duration_ns = 300'000'000;
  const PhaseResult r = client.Run(open);
  Check(r.failed() == 0 && r.unsent() == 0 && r.attempted() >= 290 && r.attempted() <= 310,
        "open loop: every scheduled read is answered 200 with its Content-Length");

  PhaseOptions closed;
  closed.saturate = true;
  closed.duration_ns = 200'000'000;
  const PhaseResult s = client.Run(closed);
  const double cpu = chain.value()->CpuSeconds();
  std::printf("  closed loop: %zu reads, %.0f/s; chain CPU %.3f s\n",
              static_cast<size_t>(s.attempted()), s.Throughput(), cpu);
  bool due_at_send = true;
  for (const RequestTiming& t : s.requests) due_at_send = due_at_send && t.due <= t.sent;
  Check(s.failed() == 0 && s.unsent() == 0 && s.attempted() > 100,
        "closed loop: every read is sent at once and answered");
  Check(due_at_send, "closed loop: a read is due when a connection frees");
  Check(s.Throughput() > 500.0, "closed loop: throughput is measured");
  Check(cpu > 0.0, "the chain's threads report their CPU time");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::QuantileTest();
  perfbench::CoordinatedOmissionTest();
  perfbench::DeterminismTest();
  perfbench::ReferenceChainTest();
  std::printf("%s\n", perfbench::failures == 0 ? "all self-tests passed"
                                               : "SELF-TEST FAILURES");
  return perfbench::failures == 0 ? 0 : 1;
}
