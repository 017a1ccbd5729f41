// Open-loop HTTP load generator: one epoll thread, a few keep-alive
// connections, requests due on a seeded arrival schedule.
//
// Requests are due at fixed times whatever the server does; a due request
// waits in the generator until a connection is free (at most one request in
// flight per connection, no pipelining). Latency is measured from the due
// time, so a server stall is charged to every request that came due during
// it (no coordinated omission), and how late each request left the
// generator is reported separately.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "samples.h"

namespace perfbench {

// CLOCK_MONOTONIC in nanoseconds (the clock the schedule is armed on).
int64_t NowNs();

// The generated read inputs: a page per slot and a unit-mean exponential
// inter-arrival gap per slot. Phases consume slots in order and wrap.
struct ReadStream {
  std::vector<std::string> targets;
  std::vector<double> gaps;
};

struct RequestTiming {
  size_t slot = 0;     // index into the ReadStream
  int64_t due = 0;     // scheduled send time
  int64_t sent = 0;    // when the generator wrote it (0 = never sent)
  int64_t done = 0;    // response complete or failure seen (0 = unfinished)
  int status = 0;      // HTTP status, 0 on transport failure
  bool ok = false;     // 200 with a well-formed Content-Length body
};

// A response body kept for later comparison.
struct KeptBody {
  size_t slot = 0;   // index into the ReadStream
  int64_t done = 0;  // when the response was complete
  std::string body;
};

struct PhaseResult {
  std::vector<RequestTiming> requests;
  std::vector<KeptBody> bodies;
  std::vector<std::string> errors;  // first few failure descriptions

  // Requests sent; those still queued when the generator gave up (2 s
  // after the schedule ended) were never attempted.
  uint64_t attempted() const;
  uint64_t unsent() const { return requests.size() - attempted(); }
  uint64_t succeeded() const;
  uint64_t failed() const { return attempted() - succeeded(); }
  // Completion minus due time, for every request that got an answer.
  Samples Latency() const;
  // Send minus due time, for every request that was sent.
  Samples Lateness() const;
  // Requests answered OK per second, from the first send to the last answer.
  double Throughput() const;
};

struct PhaseOptions {
  double rate = 1000.0;          // requests per second (open loop)
  int64_t duration_ns = 0;       // schedule length
  size_t keep_body_every = 0;    // keep the body of every Nth stream slot (0 = none)
  // Closed loop instead of the schedule: each free connection sends the
  // next slot at once (due = send time) until `duration_ns` has passed.
  // The completion rate is then the path's throughput with this many
  // connections; `rate` is ignored.
  bool saturate = false;
};

class OpenLoopClient {
 public:
  OpenLoopClient(const ReadStream* stream, uint16_t port, size_t connections);
  ~OpenLoopClient();

  OpenLoopClient(const OpenLoopClient&) = delete;
  OpenLoopClient& operator=(const OpenLoopClient&) = delete;

  nagano::Status Connect();
  // Runs one phase on the calling thread. Slots continue where the last
  // phase stopped.
  PhaseResult Run(const PhaseOptions& options);

 private:
  struct Conn;
  nagano::Status Open(Conn& conn);

  const ReadStream* stream_;
  uint16_t port_;
  std::vector<std::unique_ptr<Conn>> conns_;
  size_t cursor_ = 0;
};

}  // namespace perfbench
