// Self-test of the ledger's load generator: schedule determinism and
// due-time latency accounting under a stall. Exits non-zero on failure.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "loadgen.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

// Deterministic clock: SleepUntil jumps forward, never backward.
struct FakeClock {
  double now = 0.0;
  double Now() const { return now; }
  void SleepUntil(double t) {
    if (t > now) now = t;
  }
};

void TestScheduleDeterminism() {
  const auto a = ledger::PoissonSchedule(42, 12.0, 30.0);
  const auto b = ledger::PoissonSchedule(42, 12.0, 30.0);
  const auto c = ledger::PoissonSchedule(43, 12.0, 30.0);
  Expect(a == b, "same seed gives the same schedule");
  Expect(a != c, "another seed gives another schedule");
  bool increasing = true;
  for (size_t i = 1; i < a.size(); ++i) increasing = increasing && a[i] >= a[i - 1];
  Expect(increasing && a.front() >= 0.0 && a.back() < 30.0,
         "schedule is ordered within the horizon");
  Expect(a.size() == 360, "schedule offers rate x horizon requests");
  // Gaps of a Poisson process: mean 1/rate, and about 1/e of them longer
  // than the mean (exponential tail), not evenly spaced.
  double longer = 0.0;
  for (size_t i = 1; i < a.size(); ++i) longer += (a[i] - a[i - 1]) > 1.0 / 12.0 ? 1.0 : 0.0;
  const double share_longer = longer / static_cast<double>(a.size() - 1);
  Expect(share_longer > 0.28 && share_longer < 0.46, "gaps are exponential-like");
}

void TestStallChargesLaterRequests() {
  const std::vector<double> due = {0.0, 0.1, 0.2, 0.3, 0.4, 5.0};
  FakeClock clock;
  std::vector<ledger::RequestTiming> timings(due.size());
  const double service = 0.01;
  const auto sent = ledger::SendOnSchedule(due, clock, [&](size_t i) {
    // Request 1 blocks the sender for two seconds (a stalled submit).
    if (i == 1) clock.now += 2.0;
    timings[i].done = clock.now + service;
  });
  for (size_t i = 0; i < due.size(); ++i) {
    timings[i].due = due[i];
    timings[i].sent = sent[i];
  }
  Expect(std::fabs(timings[0].Latency() - service) < 1e-12, "unstalled latency is service");
  Expect(std::fabs(timings[0].Lag()) < 1e-12, "unstalled lag is zero");
  // Requests 2..4 were due before the stall ended: each is charged the wait.
  for (size_t i = 2; i <= 4; ++i) {
    const double expected_wait = 2.1 - due[i];
    Expect(std::fabs(timings[i].Lag() - expected_wait) < 1e-9, "lag counts the stall");
    Expect(std::fabs(timings[i].Latency() - (expected_wait + service)) < 1e-9,
           "latency counts from the due time");
  }
  // Request 5 was due after the stall: the generator caught up.
  Expect(std::fabs(timings[5].Lag()) < 1e-12, "generator catches up after the stall");
}

}  // namespace

int main() {
  TestScheduleDeterminism();
  TestStallChargesLaterRequests();
  if (failures == 0) std::printf("loadgen_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
