// Single-flight: concurrent requests for the same key share one piece of
// work. The first request to join a key becomes the flight's *leader* and
// does the work; every request that joins while the flight is open becomes
// a *waiter* and adopts the leader's published value.
//
//   auto ticket = flights.Join(key, deadline);
//   if (ticket.leader) {
//     V value = Work();
//     flights.Publish(key, ticket, value);
//   } else if (auto value = flights.Await(ticket, deadline, clock)) {
//     ...adopt *value...
//   }
//
// Deadlines are absolute times on the caller's Clock; 0 means unbounded.
// Each flight tracks its *horizon* — the latest deadline across every
// participant — so a leader can abandon work once nobody is left who could
// use the result.
#pragma once

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/clock.h"

namespace nagano {

template <typename V>
class SingleFlight {
  struct Flight {
    std::mutex mutex;
    std::condition_variable cv;
    std::optional<V> value;  // set once, at publish
    TimeNs horizon = 0;      // latest participant deadline
    bool unbounded = false;  // some participant has no deadline
  };

 public:
  // One participant's handle on a flight. Empty when Join's may_lead
  // refused to start a flight.
  struct Ticket {
    std::shared_ptr<Flight> flight;
    bool leader = false;

    explicit operator bool() const { return flight != nullptr; }
  };

  // Joins the open flight for `key`, extending its horizon by `deadline`,
  // or leads a new one. `may_lead` runs under the table lock and only when
  // no flight exists; returning false creates no flight and yields an
  // empty ticket (admission control: a flight counts once, and a refused
  // request holds nothing).
  template <typename MayLead>
  Ticket Join(const std::string& key, TimeNs deadline, MayLead&& may_lead) {
    Ticket ticket;
    std::lock_guard<std::mutex> lock(mutex_);
    if (auto it = flights_.find(key); it != flights_.end()) {
      ticket.flight = it->second;
      std::lock_guard<std::mutex> flight_lock(ticket.flight->mutex);
      Extend(*ticket.flight, deadline);
      return ticket;
    }
    if (!may_lead()) return ticket;
    ticket.flight = std::make_shared<Flight>();
    ticket.leader = true;
    Extend(*ticket.flight, deadline);
    flights_.emplace(key, ticket.flight);
    return ticket;
  }

  Ticket Join(const std::string& key, TimeNs deadline) {
    return Join(key, deadline, [] { return true; });
  }

  // The latest deadline across the flight's participants so far, or 0 when
  // any of them is unbounded. Waiters joining later may still extend it.
  TimeNs Horizon(const Ticket& ticket) const {
    std::lock_guard<std::mutex> lock(ticket.flight->mutex);
    return ticket.flight->unbounded ? 0 : ticket.flight->horizon;
  }

  // Leader only. Retires `key` — if it still maps to this flight — before
  // waking the waiters, so a request arriving after publication leads a
  // fresh flight instead of adopting a finished one.
  void Publish(const std::string& key, const Ticket& ticket, V value) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      auto it = flights_.find(key);
      if (it != flights_.end() && it->second == ticket.flight) {
        flights_.erase(it);
      }
    }
    {
      std::lock_guard<std::mutex> lock(ticket.flight->mutex);
      ticket.flight->value = std::move(value);
    }
    ticket.flight->cv.notify_all();
  }

  // Waiter only. Blocks until the leader publishes, returning a copy of the
  // value, or returns nothing once `clock` passes `deadline` (0 = wait for
  // publication). The wait is sliced so a deadline on a clock nobody
  // notifies about (SimClock) is still noticed promptly.
  std::optional<V> Await(const Ticket& ticket, TimeNs deadline,
                         const Clock& clock) const {
    Flight& flight = *ticket.flight;
    std::unique_lock<std::mutex> lock(flight.mutex);
    while (!flight.value.has_value()) {
      if (deadline == 0) {
        flight.cv.wait(lock);
        continue;
      }
      if (clock.Now() >= deadline) return std::nullopt;
      flight.cv.wait_for(lock, kWaitSlice);
    }
    return flight.value;
  }

 private:
  static constexpr std::chrono::milliseconds kWaitSlice{5};

  static void Extend(Flight& flight, TimeNs deadline) {
    if (deadline == 0) {
      flight.unbounded = true;
    } else {
      flight.horizon = std::max(flight.horizon, deadline);
    }
  }

  std::mutex mutex_;
  std::unordered_map<std::string, std::shared_ptr<Flight>> flights_;
};

}  // namespace nagano
