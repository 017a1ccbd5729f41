// The reference chain: a relay thread in front of two echo threads over
// loopback TCP, written here with raw sockets and none of the library's
// code. It has the shape of the read path (client -> dispatcher reactor ->
// one of two backend reactors and back, one epoll thread a hop) and does
// almost no work per request, so its latency, throughput and CPU per
// request measure the host: vCPU wake-ups, loopback TCP and the CPU speed
// the host grants at that moment. Read windows through the real topology
// alternate with the same windows through this chain, and the gated read
// metrics are the ratios of the two, which the host's drift cancels out of.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>

#include "common/result.h"

namespace perfbench {

class ReferenceChain {
 public:
  // Every answer is a 200 with a `body_bytes` body.
  static nagano::Result<std::unique_ptr<ReferenceChain>> Start(size_t body_bytes);
  ~ReferenceChain();

  ReferenceChain(const ReferenceChain&) = delete;
  ReferenceChain& operator=(const ReferenceChain&) = delete;

  // The relay's port: where the load generator connects.
  uint16_t port() const { return relay_port_; }
  // CPU time the chain's own threads have used.
  double CpuSeconds();

 private:
  static constexpr size_t kEchoes = 2;

  ReferenceChain() = default;
  void Echo(int listen_fd);
  void Relay();

  std::string response_;
  int echo_listen_[kEchoes] = {-1, -1};
  uint16_t echo_port_[kEchoes] = {0, 0};
  int relay_listen_ = -1;
  uint16_t relay_port_ = 0;
  int stop_fd_ = -1;  // eventfd: readable once the chain is stopping
  std::thread echo_[kEchoes];
  std::thread relay_;
};

}  // namespace perfbench
