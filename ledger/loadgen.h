// Load-generation pieces of the perf ledger that can be wrong silently:
// the seeded Poisson arrival schedule, the open-loop sender, and due-time
// latency accounting. Header-only so loadgen_test.cc can drive them with a
// fake clock.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace ledger {

/// Arrival offsets (seconds from the start of the timed window) of a
/// Poisson process at `rate` arrivals/s over [0, horizon), conditioned on
/// its expected count: round(rate * horizon) arrival times, each uniform on
/// the window, in increasing order. Conditioning fixes the count so every
/// run offers the same load; the gaps stay exponential-like. A pure
/// function of (seed, rate, horizon).
inline std::vector<double> PoissonSchedule(uint64_t seed, double rate, double horizon) {
  const size_t count = static_cast<size_t>(std::llround(rate * horizon));
  std::vector<double> due(count);
  asti::Rng rng(seed);
  for (double& t : due) t = rng.NextDouble() * horizon;
  std::sort(due.begin(), due.end());
  return due;
}

/// One request's life on the ledger clock (seconds from window start).
struct RequestTiming {
  double due = 0.0;   // when the schedule said to send it
  double sent = 0.0;  // when the generator actually sent it
  double done = 0.0;  // when its result was observed
  /// Latency counts from the due time, so a stalled generator (or a stalled
  /// server that blocks the generator) charges the wait to every request it
  /// delayed instead of hiding it.
  double Latency() const { return done - due; }
  /// How late the generator sent.
  double Lag() const { return sent - due; }
};

/// Open-loop sender: for each due time, waits until it on `clock`, stamps
/// the send time, then calls submit(i). Never waits for earlier requests to
/// finish. `Clock` provides double Now() and void SleepUntil(double).
template <class Clock, class Submit>
std::vector<double> SendOnSchedule(const std::vector<double>& due, Clock& clock,
                                   Submit&& submit) {
  std::vector<double> sent(due.size(), 0.0);
  for (size_t i = 0; i < due.size(); ++i) {
    clock.SleepUntil(due[i]);
    sent[i] = clock.Now();
    submit(i);
  }
  return sent;
}

}  // namespace ledger
