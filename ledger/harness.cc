// Perf-ledger harness: runs one named workload through the public
// SeedMinEngine API, checks its outputs, and writes raw measurements as
// one JSON object (run.py turns them into the ledger's metrics).
//
//   ledger_harness --workload NAME --seed N --seconds S --trace 0|1
//                  --out FILE [--spans FILE] [--scratch DIR]
//
// Workloads (the "why" of each is in BENCHMARK.json and ledger/README.md):
//   solve-lj-ic      closed loop, one client, ASTI on the livejournal
//                    surrogate at scale 1, IC, eta = 1% of n.
//   serve-mix-warm   open loop, seeded Poisson arrivals, two tenants
//                    (epinions, youtube) registered from ASMS files, a mix
//                    of {ASTI, ASTI-4, ATEUC, Bisection} x {IC, LT} x
//                    eta in {1%, 2%, 5%} less one class, warm sampler cache.
//
// With --trace 1 the harness records spans around its calls into each
// layer (kept in memory, written to --spans at the end) and runs the
// layer probes (sampling, parallel, coverage, cache, shard, delta, store)
// after the timed window. With --trace 0 it records no spans and runs no
// probes, so the end-to-end numbers carry no tracing cost.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/graph_catalog.h"
#include "api/seedmin_engine.h"
#include "api/snapshot_serving.h"
#include "coverage/lazy_greedy.h"
#include "coverage/max_coverage.h"
#include "delta/apply.h"
#include "delta/catalog_delta.h"
#include "delta/churn.h"
#include "graph/datasets.h"
#include "loadgen.h"
#include "parallel/parallel_sampler.h"
#include "parallel/thread_pool.h"
#include "sampling/root_size.h"
#include "sampling/sampler_cache.h"
#include "shard/partition.h"
#include "shard/runtime.h"
#include "shard/topology.h"
#include "store/snapshot_writer.h"

namespace {

using asti::AlgorithmId;
using asti::DiffusionModel;
using asti::GraphCatalog;
using asti::NodeId;
using asti::SeedMinEngine;
using asti::SolveRequest;
using asti::SolveResult;
using asti::StatusOr;
using SteadyClock = std::chrono::steady_clock;

// The pool size is fixed per workload, never derived from the machine, so
// every run solves with the same stream protocol (pool size 1 would switch
// the engine to the sequential protocol and pick different seeds).
constexpr size_t kPoolThreads = 4;
constexpr size_t kDrivers = 2;
// Surrogate graphs are fixed datasets; the workload seed drives requests.
constexpr uint64_t kGraphSeed = 7;
// Set-up is repeated and its median reported, so one slow set-up cannot
// move setup_s.
constexpr int kSetupRepeats = 3;
// solve-lj-ic's set-up is short (~0.4 s), so it repeats more.
constexpr int kLjSetupRepeats = 7;
// Open-loop offered rate of serve-mix-warm (requests/s): the two
// drivers are ~27% busy on the warm mix (mean service ~30 ms). At 36/s
// (~55% busy) queueing amplified the machine's speed swings and moved
// latency_p50_s by 26% between runs.
constexpr double kServeRate = 18.0;

double Since(SteadyClock::time_point start) {
  return std::chrono::duration<double>(SteadyClock::now() - start).count();
}

uint64_t Mix(uint64_t seed, uint64_t i) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (i + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

// Returns freed heap pages to the kernel, so each set-up starts from the
// same resident state whatever ran before it.
void TrimHeap() { malloc_trim(0); }

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// --- Tracing ----------------------------------------------------------------

// Spans around the harness's calls into each layer. Kept in memory and
// written out at the end; disabled tracers record nothing and read no clock.
class Tracer {
 public:
  struct Span {
    std::string layer;
    std::string name;
    uint64_t id = 0;
    uint64_t parent = 0;
    uint64_t request = 0;  // request index + 1; 0 = not request-scoped
    double start = 0.0;
    double end = 0.0;
  };

  class Scope {
   public:
    Scope() = default;
    Scope(Tracer* tracer, size_t index, uint64_t outer)
        : tracer_(tracer), index_(index), outer_(outer) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (tracer_ != nullptr) tracer_->Close(index_, outer_);
    }

   private:
    Tracer* tracer_ = nullptr;
    size_t index_ = 0;
    uint64_t outer_ = 0;  // the enclosing span on this thread
  };

  Tracer(bool enabled, SteadyClock::time_point origin)
      : enabled_(enabled), origin_(origin) {}

  bool enabled() const { return enabled_; }

  Scope Open(const char* layer, const char* name, uint64_t request = 0) {
    if (!enabled_) return Scope();
    const double start = Now();
    std::lock_guard<std::mutex> lock(mutex_);
    Span span;
    span.layer = layer;
    span.name = name;
    span.id = spans_.size() + 1;
    span.parent = open_span_;
    span.request = request;
    span.start = start;
    spans_.push_back(std::move(span));
    const uint64_t outer = open_span_;
    open_span_ = spans_.size();
    return Scope(this, spans_.size() - 1, outer);
  }

  /// Summed duration of the closed spans named (layer, name).
  double Total(const std::string& layer, const std::string& name) const {
    double total = 0.0;
    for (const double d : Durations(layer, name)) total += d;
    return total;
  }
  std::vector<double> Durations(const std::string& layer, const std::string& name) const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<double> out;
    for (const Span& span : spans_) {
      if (span.layer == layer && span.name == name) out.push_back(span.end - span.start);
    }
    return out;
  }
  size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
  }
  void Write(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream out(path);
    for (const Span& span : spans_) {
      out << "{\"layer\":\"" << span.layer << "\",\"name\":\"" << span.name
          << "\",\"id\":" << span.id << ",\"parent\":" << span.parent
          << ",\"request\":" << span.request << ",\"start\":" << span.start
          << ",\"end\":" << span.end << "}\n";
    }
  }

 private:
  double Now() const {
    return std::chrono::duration<double>(SteadyClock::now() - origin_).count();
  }
  void Close(size_t index, uint64_t outer) {
    const double end = Now();
    open_span_ = outer;
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[index].end = end;
  }

  const bool enabled_;
  const SteadyClock::time_point origin_;
  mutable std::mutex mutex_;  // guards spans_
  std::vector<Span> spans_;
  // Innermost open span of the calling thread (0 = none): the parent of
  // the next span that thread opens.
  static thread_local uint64_t open_span_;
};

thread_local uint64_t Tracer::open_span_ = 0;

// --- Output -----------------------------------------------------------------

// Minimal JSON object writer; values are emitted with full precision.
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double value) {
    std::ostringstream v;
    v.precision(17);
    v << value;
    return Raw(key, v.str());
  }
  JsonObject& Int(const std::string& key, uint64_t value) {
    return Raw(key, std::to_string(value));
  }
  JsonObject& Str(const std::string& key, const std::string& value) {
    return Raw(key, Quote(value));
  }
  JsonObject& Bool(const std::string& key, bool value) {
    return Raw(key, value ? "true" : "false");
  }
  JsonObject& List(const std::string& key, const std::vector<double>& values) {
    std::ostringstream v;
    v.precision(17);
    v << "[";
    for (size_t i = 0; i < values.size(); ++i) v << (i ? "," : "") << values[i];
    v << "]";
    return Raw(key, v.str());
  }
  JsonObject& Raw(const std::string& key, const std::string& json) {
    fields_ += (fields_.empty() ? "" : ",") + Quote(key) + ":" + json;
    return *this;
  }
  std::string str() const { return "{" + fields_ + "}"; }

  static std::string Quote(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        out += ' ';
      } else {
        out += c;
      }
    }
    return out + "\"";
  }

 private:
  std::string fields_;
};

// --- Results ----------------------------------------------------------------

// FNV-1a over every field of a result that is a pure function of
// (graph snapshot, request): timings are excluded.
class Fingerprint {
 public:
  void Add(uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (value >> (8 * i)) & 0xff;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void Add(const std::string& s) {
    Add(s.size());
    for (const char c : s) Add(static_cast<uint64_t>(static_cast<unsigned char>(c)));
  }
  void AddDouble(double d) {
    uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    Add(bits);
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

uint64_t ResultFingerprint(const SolveResult& result) {
  Fingerprint f;
  f.Add(result.algorithm_name);
  f.Add(result.graph_name);
  f.Add(result.graph_epoch);
  f.Add(result.always_reached ? 1 : 0);
  for (const size_t s : result.seed_counts) f.Add(s);
  for (const double s : result.spreads) f.AddDouble(s);
  for (const asti::AdaptiveRunTrace& trace : result.traces) {
    f.Add(trace.total_activated);
    f.Add(trace.target_reached ? 1 : 0);
    f.Add(trace.total_samples);
    for (const NodeId v : trace.seeds) f.Add(v);
    for (const asti::RoundRecord& round : trace.rounds) {
      f.Add(round.num_samples);
      f.Add(round.newly_activated);
      for (const NodeId v : round.seeds) f.Add(v);
    }
  }
  return f.value();
}

bool IsAdaptive(AlgorithmId id) {
  return id == AlgorithmId::kAsti || id == AlgorithmId::kAsti2 ||
         id == AlgorithmId::kAsti4 || id == AlgorithmId::kAsti8 ||
         id == AlgorithmId::kAdaptIm;
}

std::string HexDigest(uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx", static_cast<unsigned long long>(value));
  return buffer;
}

// --- Workload definitions ---------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out;
  std::string spans;
  std::string scratch = ".";
};

SeedMinEngine::ServingOptions EngineOptions() {
  SeedMinEngine::ServingOptions options;
  options.num_threads = kPoolThreads;
  options.num_drivers = kDrivers;
  // Deep enough that the open loop at kServeRate is never refused by a
  // transient burst; refusals still count as failures.
  options.max_queue_depth = 256;
  return options;
}

// One serving stack; the engine is declared last so it is destroyed first.
struct Serving {
  std::unique_ptr<GraphCatalog> catalog;
  std::unique_ptr<SeedMinEngine> engine;
};

// solve-lj-ic serves a fixed list of requests, in an order the workload
// seed permutes. Per-request service time on this graph spans more than
// an order of magnitude across request seeds, so a list drawn from the
// workload seed would move every end-to-end metric between runs by more
// than any bound; the fixed list keeps runs comparable.
constexpr size_t kLjListSize = 10;
constexpr uint64_t kLjListSeed = 0x11e5eed;

SolveRequest LjRequest(size_t list_index, NodeId n) {
  SolveRequest request;
  request.graph = "livejournal";
  request.algorithm = AlgorithmId::kAsti;
  request.model = DiffusionModel::kIndependentCascade;
  request.eta = std::max<NodeId>(1, n / 100);
  request.seed = Mix(kLjListSeed, list_index);
  request.keep_traces = true;
  return request;
}

// The serve mix: 2 tenants x 4 algorithms x 2 models x 3 eta shares =
// 48 request classes less one, cycled in order so every run carries each
// class in the same proportion. The class left out, youtube ATEUC at IC
// and eta 5%, takes ~2.5 s warm and was ~70% of the full mix's service
// time; how its runs overlapped the rest moved latency_p50_s by ~23%
// between runs, more than any bound could absorb.
constexpr size_t kMixClasses = 47;
constexpr size_t kSkippedClass = 37;
const char* const kTenants[2] = {"epinions", "youtube"};

SolveRequest MixRequest(size_t mix_class, uint64_t request_seed, const NodeId tenant_nodes[2]) {
  const size_t cls = mix_class < kSkippedClass ? mix_class : mix_class + 1;
  static constexpr AlgorithmId kAlgorithms[4] = {AlgorithmId::kAsti, AlgorithmId::kAsti4,
                                                 AlgorithmId::kAteuc,
                                                 AlgorithmId::kBisection};
  static constexpr double kEtaShare[3] = {0.01, 0.02, 0.05};
  const size_t tenant = cls % 2;
  SolveRequest request;
  request.graph = kTenants[tenant];
  request.algorithm = kAlgorithms[(cls / 2) % 4];
  request.model = (cls / 8) % 2 == 0 ? DiffusionModel::kIndependentCascade
                                     : DiffusionModel::kLinearThreshold;
  request.eta = std::max<NodeId>(
      1, static_cast<NodeId>(kEtaShare[(cls / 16) % 3] * tenant_nodes[tenant]));
  request.seed = request_seed;
  request.keep_traces = true;
  return request;
}

// Everything measured in one run, before run.py derives metrics.
struct Record {
  std::vector<double> setup_s;
  double timed_wall_s = 0.0;
  uint64_t sent = 0;
  uint64_t succeeded = 0;
  uint64_t failed = 0;
  uint64_t rejected = 0;
  std::vector<double> latency_s;  // succeeded requests, from due time
  std::vector<double> queue_wait_s;
  std::vector<double> service_s;
  std::vector<double> lag_s;
  double seeds_sum = 0.0;
  uint64_t realizations = 0;
  double peak_rss_mb = 0.0;
  double cpu_utilisation = 0.0;
  uint64_t results_digest = 0xcbf29ce484222325ULL;
  // Profile sums over succeeded requests.
  double sampling_s = 0.0;
  double coverage_s = 0.0;
  double certify_s = 0.0;
  double busy_s = 0.0;
  uint64_t sets_reused = 0;
  uint64_t sets_extended = 0;
  uint64_t rounds = 0;
  uint64_t sets = 0;
  uint64_t adaptive_requests = 0;
  uint64_t adaptive_unreached = 0;  // adaptive answers short of eta
  std::vector<std::pair<std::string, std::string>> checks;  // name -> "" ok / reason
  std::map<std::string, double> layers;
  std::vector<uint64_t> fingerprints;  // per sent request (0 = failed)
  std::vector<SolveRequest> requests;  // per sent request
};

void Check(Record& record, const std::string& name, bool ok, const std::string& why) {
  record.checks.emplace_back(name, ok ? "" : why);
}

// Folds one resolved request into the record.
void Account(Record& record, size_t index, const StatusOr<SolveResult>& solved,
             const ledger::RequestTiming& timing) {
  record.lag_s.push_back(timing.Lag());
  if (!solved.ok()) {
    ++record.failed;
    if (solved.status().code() == asti::StatusCode::kResourceExhausted) ++record.rejected;
    std::cerr << "request " << index << " failed: " << solved.status().ToString() << "\n";
    return;
  }
  const SolveResult& result = *solved;
  ++record.succeeded;
  record.latency_s.push_back(timing.Latency());
  record.queue_wait_s.push_back(result.profile.queue_wait_seconds);
  const double service = result.profile.total_seconds - result.profile.queue_wait_seconds;
  record.service_s.push_back(service);
  record.busy_s += service;
  record.sampling_s += result.profile.sampling_seconds;
  record.coverage_s += result.profile.coverage_seconds;
  record.certify_s += result.profile.certify_seconds;
  record.sets_reused += result.profile.sets_reused;
  record.sets_extended += result.profile.sets_extended;
  for (const size_t s : result.seed_counts) record.seeds_sum += static_cast<double>(s);
  record.realizations += result.seed_counts.size();
  for (const asti::AdaptiveRunTrace& trace : result.traces) {
    record.rounds += trace.rounds.size();
    record.sets += trace.total_samples;
  }
  record.fingerprints[index] = ResultFingerprint(result);
  if (IsAdaptive(record.requests[index].algorithm)) {
    ++record.adaptive_requests;
    if (!result.always_reached) ++record.adaptive_unreached;
  }
}

void FinishAccounting(Record& record) {
  Fingerprint digest;
  for (const uint64_t fingerprint : record.fingerprints) digest.Add(fingerprint);
  record.results_digest = digest.value();
  Check(record, "accounting", record.succeeded + record.failed == record.sent,
        "succeeded + failed != sent");
  Check(record, "adaptive.eta_reached", record.adaptive_unreached == 0,
        std::to_string(record.adaptive_unreached) + " adaptive answers fell short of eta");
}

// --- Set-up -----------------------------------------------------------------

std::string SnapshotPath(const Args& args, const char* tenant) {
  return args.scratch + "/" + tenant + ".asms";
}

// Writes the two tenant snapshot files (input preparation, before any
// clock the metrics read).
bool PrepareTenantFiles(const Args& args, Tracer& tracer, Record& record) {
  const asti::DatasetId ids[2] = {asti::DatasetId::kEpinions, asti::DatasetId::kYoutube};
  for (int t = 0; t < 2; ++t) {
    StatusOr<asti::DirectedGraph> graph = [&] {
      auto span = tracer.Open("graph", "MakeSurrogateDataset");
      return asti::MakeSurrogateDataset(ids[t], 1.0, kGraphSeed);
    }();
    if (!graph.ok()) {
      Check(record, "prepare", false, graph.status().ToString());
      return false;
    }
    auto span = tracer.Open("store", "WriteSnapshot");
    const asti::Status written =
        asti::store::WriteSnapshot(*graph, kTenants[t], asti::WeightScheme::kWeightedCascade,
                                   {}, SnapshotPath(args, kTenants[t]));
    if (!written.ok()) {
      Check(record, "prepare", false, written.ToString());
      return false;
    }
  }
  return true;
}

std::vector<SolveRequest> WarmupRequests(const NodeId tenant_nodes[2]) {
  // One fixed request per class: every cache key the mix touches is filled
  // to the prefix its requests read, independent of the workload seed.
  std::vector<SolveRequest> warm;
  for (size_t cls = 0; cls < kMixClasses; ++cls) {
    warm.push_back(MixRequest(cls, Mix(0x5eed, cls), tenant_nodes));
  }
  return warm;
}

bool SetupServe(const Args& args, Tracer& tracer, Serving& serving, NodeId tenant_nodes[2],
                Record& record) {
  serving.catalog = std::make_unique<GraphCatalog>();
  for (int t = 0; t < 2; ++t) {
    auto span = tracer.Open("store", "RegisterSnapshotFile");
    auto ref = asti::RegisterSnapshotFile(*serving.catalog, SnapshotPath(args, kTenants[t]));
    if (!ref.ok()) {
      Check(record, "setup", false, ref.status().ToString());
      return false;
    }
    tenant_nodes[t] = ref->num_nodes();
  }
  {
    auto span = tracer.Open("api", "EngineConstruct");
    serving.engine = std::make_unique<SeedMinEngine>(*serving.catalog, EngineOptions());
  }
  auto span = tracer.Open("api", "SolveBatch.warmup");
  const std::vector<SolveRequest> warm = WarmupRequests(tenant_nodes);
  for (const auto& solved : serving.engine->SolveBatch(warm)) {
    if (!solved.ok()) {
      Check(record, "warmup", false, solved.status().ToString());
      return false;
    }
  }
  return true;
}

bool SetupLj(Tracer& tracer, Serving& serving, NodeId& n, Record& record) {
  StatusOr<asti::DirectedGraph> graph = [&] {
    auto span = tracer.Open("graph", "MakeSurrogateDataset");
    return asti::MakeSurrogateDataset(asti::DatasetId::kLiveJournal, 1.0, kGraphSeed);
  }();
  if (!graph.ok()) {
    Check(record, "setup", false, graph.status().ToString());
    return false;
  }
  serving.catalog = std::make_unique<GraphCatalog>();
  {
    auto span = tracer.Open("graph", "Register");
    auto ref = serving.catalog->Register("livejournal", std::move(graph).value());
    if (!ref.ok()) {
      Check(record, "setup", false, ref.status().ToString());
      return false;
    }
    n = ref->num_nodes();
  }
  auto span = tracer.Open("api", "EngineConstruct");
  serving.engine = std::make_unique<SeedMinEngine>(*serving.catalog, EngineOptions());
  return true;
}

// --- Timed windows ----------------------------------------------------------

struct WallClock {
  SteadyClock::time_point origin;
  double Now() const {
    return std::chrono::duration<double>(SteadyClock::now() - origin).count();
  }
  void SleepUntil(double t) const {
    std::this_thread::sleep_until(
        origin + std::chrono::duration_cast<SteadyClock::duration>(
                     std::chrono::duration<double>(t)));
  }
};

// Closed loop, one client: the next request is sent when the previous one
// resolves. Whole passes over the list run until the window has elapsed,
// so every run measures the same requests.
void RunClosedLoop(const Args& args, Tracer& tracer, SeedMinEngine& engine, NodeId n,
                   Record& record) {
  std::vector<size_t> order(kLjListSize);
  std::iota(order.begin(), order.end(), size_t{0});
  asti::Rng shuffle(Mix(args.seed, 0x0de5));
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[shuffle.NextBounded(i)]);
  }
  WallClock clock{SteadyClock::now()};
  const double cpu_start = CpuSeconds();
  double previous_done = 0.0;
  std::vector<ledger::RequestTiming> timings;
  std::vector<StatusOr<SolveResult>> results;
  while (record.requests.size() % kLjListSize != 0 || clock.Now() < args.seconds) {
    const size_t index = record.requests.size();
    record.requests.push_back(LjRequest(order[index % kLjListSize], n));
    ledger::RequestTiming timing;
    timing.due = previous_done;
    timing.sent = clock.Now();
    StatusOr<SolveResult> solved = [&] {
      auto span = tracer.Open("api", "SubmitAsync+get", index + 1);
      return engine.SubmitAsync(record.requests.back()).get();
    }();
    timing.done = clock.Now();
    previous_done = timing.done;
    timings.push_back(timing);
    results.push_back(std::move(solved));
  }
  record.timed_wall_s = clock.Now();
  record.cpu_utilisation =
      (CpuSeconds() - cpu_start) / (record.timed_wall_s * static_cast<double>(kPoolThreads));
  record.sent = record.requests.size();
  record.fingerprints.assign(record.sent, 0);
  for (size_t i = 0; i < record.sent; ++i) Account(record, i, results[i], timings[i]);
}

// Open loop: requests are sent on a seeded Poisson schedule whatever the
// state of earlier ones. A request's completion is its send time plus the
// engine's admission-to-result time (RequestProfile::total_seconds), so no
// polling thread competes with the pool for the run's CPUs.
void RunOpenLoop(const Args& args, Tracer& tracer, SeedMinEngine& engine,
                 const NodeId tenant_nodes[2], Record& record) {
  const std::vector<double> due =
      ledger::PoissonSchedule(Mix(args.seed, 0xa77), kServeRate, args.seconds);
  const size_t count = due.size();
  for (size_t i = 0; i < count; ++i) {
    record.requests.push_back(
        MixRequest(i % kMixClasses, Mix(args.seed, 1000 + i), tenant_nodes));
  }
  record.sent = count;
  record.fingerprints.assign(count, 0);
  std::vector<std::future<StatusOr<SolveResult>>> futures(count);

  WallClock clock{SteadyClock::now()};
  const double cpu_start = CpuSeconds();
  const std::vector<double> sent = ledger::SendOnSchedule(due, clock, [&](size_t i) {
    auto span = tracer.Open("api", "SubmitAsync", i + 1);
    futures[i] = engine.SubmitAsync(record.requests[i]);
  });
  std::vector<StatusOr<SolveResult>> results;
  results.reserve(count);
  for (auto& future : futures) results.push_back(future.get());
  record.timed_wall_s = clock.Now();
  record.cpu_utilisation =
      (CpuSeconds() - cpu_start) / (record.timed_wall_s * static_cast<double>(kPoolThreads));
  for (size_t i = 0; i < count; ++i) {
    ledger::RequestTiming timing;
    timing.due = due[i];
    timing.sent = sent[i];
    timing.done = results[i].ok() ? sent[i] + results[i]->profile.total_seconds
                                  : record.timed_wall_s;
    Account(record, i, results[i], timing);
  }
}

// --- Delta epochs -----------------------------------------------------------

// The epochs minted on one catalog name, in order.
struct DeltaLog {
  std::vector<asti::EdgeDelta> deltas;
  std::vector<double> apply_s;  // SwapWithDelta: minting the new snapshot
  std::vector<double> swap_s;   // SwapWithDelta: the catalog swap blackout
};

// Mints one epoch of `name`: a random delta against its current snapshot,
// applied and swapped in through SwapWithDelta.
asti::Status MintEpoch(GraphCatalog& catalog, const std::string& name, asti::Rng& rng,
                       Tracer& tracer, DeltaLog& log) {
  ASM_ASSIGN_OR_RETURN(asti::GraphRef current, catalog.Get(name));
  StatusOr<asti::EdgeDelta> delta = [&] {
    auto span = tracer.Open("delta", "MakeRandomDelta");
    return asti::MakeRandomDelta(current.graph(), asti::ChurnSpec{}, rng);
  }();
  ASM_RETURN_NOT_OK(delta.status());
  auto span = tracer.Open("delta", "SwapWithDelta");
  ASM_ASSIGN_OR_RETURN(asti::DeltaSwapResult swapped,
                       asti::SwapWithDelta(catalog, name, *delta));
  log.apply_s.push_back(swapped.apply_seconds);
  log.swap_s.push_back(swapped.swap_seconds);
  log.deltas.push_back(std::move(delta).value());
  return asti::Status::OK();
}

// The served graph, minted delta by delta, must equal a from-scratch
// rebuild of the same chain (ApplyDeltaByRebuild) over the initial graph.
bool ReplayMatches(const asti::DirectedGraph& initial, const DeltaLog& log,
                   const asti::GraphRef& served) {
  asti::DirectedGraph replay = initial;
  for (const asti::EdgeDelta& delta : log.deltas) {
    auto rebuilt = asti::ApplyDeltaByRebuild(replay, delta);
    if (!rebuilt.ok()) return false;
    replay = std::move(rebuilt).value();
  }
  return served.epoch() == 1 + log.deltas.size() &&
         asti::ForwardCsrDigest(served.graph()) == asti::ForwardCsrDigest(replay);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

// --- Layer probes (traced runs only) ----------------------------------------

// Fixed-size calls into each layer on the workload's probe graph. Sizes
// are fixed per graph so a probe's work is identical on every run.
struct ProbeSpec {
  NodeId eta = 1;
  size_t rr_sets = 0;
  size_t mrr_sets = 0;
  size_t cache_sets = 0;
  size_t coverage_rounds = 0;
};

// Runs f() inside a span and returns its wall seconds.
template <class F>
double TimeSpan(Tracer& tracer, const char* layer, const char* name, F&& f) {
  const auto start = SteadyClock::now();
  {
    auto span = tracer.Open(layer, name);
    f();
  }
  return Since(start);
}

void ProbeLayers(const Args& args, Tracer& tracer, const asti::GraphRef& ref,
                 const ProbeSpec& spec, bool probe_store, Record& record) {
  const asti::DirectedGraph& graph = ref.graph();
  const NodeId n = graph.NumNodes();
  const DiffusionModel model = DiffusionModel::kIndependentCascade;
  std::vector<NodeId> candidates(n);
  std::iota(candidates.begin(), candidates.end(), NodeId{0});
  const asti::Rng base(Mix(args.seed, 0xb0b));
  const asti::RootSizeSampler root_size(n, spec.eta);
  auto& layers = record.layers;

  // Sampling and parallel: the same index range at pools of 1, 2 and 4.
  double mrr_seconds[3] = {0, 0, 0};
  const size_t threads[3] = {1, 2, 4};
  std::unique_ptr<asti::RrCollection> mrr_collection;
  for (int t = 0; t < 3; ++t) {
    asti::ThreadPool pool(threads[t]);
    asti::ParallelRrSampler sampler(graph, model, pool);
    auto out = std::make_unique<asti::RrCollection>(n);
    mrr_seconds[t] = TimeSpan(tracer, "sampling", "GenerateMrrIndexed", [&] {
      sampler.GenerateMrrIndexed(candidates, nullptr, root_size, 0, spec.mrr_sets, *out, base);
    });
    if (threads[t] == kPoolThreads) {
      layers["sampling.mrr_sets_per_s"] = static_cast<double>(spec.mrr_sets) / mrr_seconds[t];
      mrr_collection = std::move(out);
      asti::RrCollection rr(n);
      sampler.ResetCost();
      const double rr_seconds = TimeSpan(tracer, "sampling", "GenerateIndexed", [&] {
        sampler.GenerateIndexed(candidates, nullptr, 0, spec.rr_sets, rr, base);
      });
      layers["sampling.rr_sets_per_s"] = static_cast<double>(spec.rr_sets) / rr_seconds;
      layers["sampling.edges_per_set"] =
          static_cast<double>(sampler.cost().edges_examined) / static_cast<double>(spec.rr_sets);
      layers["sampling.nodes_per_set"] =
          static_cast<double>(sampler.cost().nodes_visited) / static_cast<double>(spec.rr_sets);
    }
  }
  layers["parallel.speedup_t2"] = mrr_seconds[0] / mrr_seconds[1];
  layers["parallel.speedup_t4"] = mrr_seconds[0] / mrr_seconds[2];

  // Shard: the same mRR range through a 2-shard runtime, same thread budget.
  {
    auto topology = asti::MakeShardTopology(graph, 2);
    if (!topology.ok()) {
      Check(record, "probe.shard", false, topology.status().ToString());
    } else {
      asti::ShardRuntime runtime(ref.snapshot, *topology, kPoolThreads);
      asti::RrCollection staging(n);
      const auto key = asti::SamplerCacheKey::Mrr(model, spec.eta, asti::RootRounding::kRandomized);
      const double seconds = TimeSpan(tracer, "shard", "ShardRuntime::Generate", [&] {
        runtime.Generate(key, base, &root_size, candidates, 0, spec.mrr_sets, staging, nullptr);
      });
      layers["shard.mrr_sets_per_s_k2"] = static_cast<double>(spec.mrr_sets) / seconds;
      // Same streams, same index range: the sharded sets equal the pool's.
      Check(record, "probe.shard",
            staging.NumSets() == spec.mrr_sets &&
                staging.TotalEntries() == mrr_collection->TotalEntries(),
            "sharded generation differs from unsharded");
    }
  }

  // Coverage over the probe's mRR collection: CELF at b = 4 plus an argmax.
  {
    asti::ThreadPool pool(kPoolThreads);
    const asti::CollectionView view(*mrr_collection);
    uint64_t picks = 0;
    const double seconds =
        TimeSpan(tracer, "coverage", "LazyGreedyMaxCoverage+ArgMaxCoverage", [&] {
          for (size_t r = 0; r < spec.coverage_rounds; ++r) {
            picks += asti::LazyGreedyMaxCoverage(view, 4, nullptr, &pool).selected.size();
            if (asti::ArgMaxCoverage(view, &pool) != asti::kInvalidNode) ++picks;
          }
        });
    layers["coverage.picks_per_s"] = static_cast<double>(picks) / seconds;
  }

  // Sampler cache: Acquire on a fresh entry (fills) and on the filled one.
  {
    asti::ThreadPool pool(kPoolThreads);
    asti::SamplerCache cache(graph);
    const auto key = asti::SamplerCacheKey::Mrr(model, spec.eta, asti::RootRounding::kRandomized);
    layers["cache.acquire_cold_s"] = TimeSpan(tracer, "cache", "Acquire.cold", [&] {
      cache.Acquire(key, spec.cache_sets, &pool, nullptr, nullptr);
    });
    size_t warm_sets = 0;
    layers["cache.acquire_warm_s"] = TimeSpan(tracer, "cache", "Acquire.warm", [&] {
      warm_sets = cache.Acquire(key, spec.cache_sets, &pool, nullptr, nullptr).NumSets();
    });
    Check(record, "probe.cache", warm_sets == spec.cache_sets, "cache served a short view");
  }

  // Delta: mint a short chain of epochs of the probe graph in a scratch
  // catalog and check it against the rebuild replay.
  {
    constexpr int kProbeEpochs = 3;
    asti::Rng rng(Mix(args.seed, 0xde17a));
    GraphCatalog scratch;
    DeltaLog log;
    asti::Status minted = scratch.Register("probe", ref.snapshot).status();
    for (int e = 0; minted.ok() && e < kProbeEpochs; ++e) {
      minted = MintEpoch(scratch, "probe", rng, tracer, log);
    }
    Check(record, "probe.delta",
          minted.ok() && ReplayMatches(graph, log, *scratch.Get("probe")),
          minted.ok() ? "minted epochs differ from the rebuild replay" : minted.ToString());
    layers["delta.apply_s"] = Median(log.apply_s);
    layers["delta.swap_s"] = Median(log.swap_s);
  }

  // Store: save the probe graph and register it from the file.
  if (probe_store) {
    const std::string path = args.scratch + "/probe.asms";
    asti::Status written;
    layers["store.save_s"] = TimeSpan(tracer, "store", "WriteSnapshot", [&] {
      written = asti::store::WriteSnapshot(graph, "probe", ref.weight_scheme(), {}, path);
    });
    GraphCatalog scratch;
    asti::Status registered;
    layers["store.register_s"] = TimeSpan(tracer, "store", "RegisterSnapshotFile", [&] {
      registered = asti::RegisterSnapshotFile(scratch, path).status();
    });
    Check(record, "probe.store", written.ok() && registered.ok(),
          written.ok() ? registered.ToString() : written.ToString());
    std::filesystem::remove(path);
  }
}

// Cost of one span open/close, times spans recorded in the timed window,
// as a share of that window.
double TraceOverheadShare(size_t spans_in_window, double window_seconds) {
  Tracer calibration(true, SteadyClock::now());
  constexpr size_t kCalls = 20000;
  const auto start = SteadyClock::now();
  for (size_t i = 0; i < kCalls; ++i) {
    auto span = calibration.Open("obs", "calibrate", i);
  }
  const double per_span = Since(start) / static_cast<double>(kCalls);
  return per_span * static_cast<double>(spans_in_window) / window_seconds;
}

// Cache counters the engine exports, summed over its graphs.
void ReadCacheGauges(SeedMinEngine& engine, Record& record) {
  const asti::MetricsSnapshot snapshot = engine.metrics_snapshot();
  double bytes = 0.0;
  double evictions = 0.0;
  for (const auto& gauge : snapshot.gauges) {
    if (gauge.name == "asti_sampler_cache_bytes") bytes += static_cast<double>(gauge.value);
  }
  for (const auto& counter : snapshot.counters) {
    if (counter.name == "asti_sampler_cache_evictions_total") {
      evictions += static_cast<double>(counter.value);
    }
  }
  record.layers["cache.resident_mb"] = bytes / (1024.0 * 1024.0);
  record.layers["cache.evictions"] = evictions;
}

// --- Workloads --------------------------------------------------------------

void RunSolveLj(const Args& args, Tracer& tracer, Record& record) {
  Serving serving;
  NodeId n = 0;
  for (int r = 0; r < kLjSetupRepeats; ++r) {
    serving = Serving{};
    TrimHeap();
    const auto start = SteadyClock::now();
    if (!SetupLj(tracer, serving, n, record)) return;
    record.setup_s.push_back(Since(start));
  }
  if (tracer.enabled()) {
    // The last set-up's build + Register.
    record.layers["graph.build_s"] = tracer.Durations("graph", "MakeSurrogateDataset").back() +
                                     tracer.Durations("graph", "Register").back();
  }
  const size_t spans_before = tracer.size();
  RunClosedLoop(args, tracer, *serving.engine, n, record);
  const size_t spans_in_window = tracer.size() - spans_before;
  record.peak_rss_mb = PeakRssMb();
  FinishAccounting(record);
  // Later passes repeat the first request for request: answers must repeat.
  size_t repeat_mismatches = 0;
  for (size_t i = kLjListSize; i < record.sent; ++i) {
    if (record.fingerprints[i] != record.fingerprints[i % kLjListSize]) ++repeat_mismatches;
  }
  Check(record, "solve.repeat_identity", repeat_mismatches == 0,
        std::to_string(repeat_mismatches) + " repeated requests answered differently");
  if (tracer.enabled()) {
    ReadCacheGauges(*serving.engine, record);
    auto ref = serving.catalog->Get("livejournal");
    ProbeSpec spec;
    spec.eta = std::max<NodeId>(1, n / 100);
    spec.rr_sets = 200000;
    spec.mrr_sets = 8000;
    spec.cache_sets = 8000;
    spec.coverage_rounds = 4;
    ProbeLayers(args, tracer, *ref, spec, /*probe_store=*/true, record);
    record.layers["obs.trace_overhead_share"] =
        TraceOverheadShare(spans_in_window, record.timed_wall_s);
  }
}

void RunServe(const Args& args, Tracer& tracer, Record& record) {
  if (!PrepareTenantFiles(args, tracer, record)) return;
  if (tracer.enabled()) {
    record.layers["graph.build_s"] = tracer.Total("graph", "MakeSurrogateDataset");
    record.layers["store.save_s"] = tracer.Total("store", "WriteSnapshot");
  }
  Serving serving;
  NodeId tenant_nodes[2] = {0, 0};
  for (int r = 0; r < kSetupRepeats; ++r) {
    serving = Serving{};
    TrimHeap();
    const auto start = SteadyClock::now();
    if (!SetupServe(args, tracer, serving, tenant_nodes, record)) return;
    record.setup_s.push_back(Since(start));
    if (tracer.enabled() && r + 1 == kSetupRepeats) {
      const auto registers = tracer.Durations("store", "RegisterSnapshotFile");
      double total = 0.0;
      for (size_t i = registers.size() - 2; i < registers.size(); ++i) total += registers[i];
      record.layers["store.register_s"] = total;
    }
  }

  const size_t spans_before = tracer.size();
  RunOpenLoop(args, tracer, *serving.engine, tenant_nodes, record);
  const size_t spans_in_window = tracer.size() - spans_before;
  record.peak_rss_mb = PeakRssMb();
  if (tracer.enabled()) ReadCacheGauges(*serving.engine, record);
  FinishAccounting(record);

  {
    // Results are pure functions of the request: re-solve the first
    // request of every class solo on a cold engine and require
    // bit-identical answers. Solving them in reverse order gives the cold
    // engine's cache a different extension history from the warm one's.
    // The cold engine is gone before the probes run.
    Serving cold;
    cold.catalog = std::make_unique<GraphCatalog>();
    bool registered = true;
    for (int t = 0; t < 2; ++t) {
      registered = registered &&
                   asti::RegisterSnapshotFile(*cold.catalog, SnapshotPath(args, kTenants[t])).ok();
    }
    cold.engine = std::make_unique<SeedMinEngine>(*cold.catalog, EngineOptions());
    size_t mismatches = 0;
    const size_t solo = std::min(kMixClasses, record.sent);
    for (size_t i = solo; registered && i-- > 0;) {
      if (record.fingerprints[i] == 0) continue;
      auto solved = cold.engine->Solve(record.requests[i]);
      if (!solved.ok() || ResultFingerprint(*solved) != record.fingerprints[i]) ++mismatches;
    }
    Check(record, "warm.solo_identity", registered && mismatches == 0,
          std::to_string(mismatches) + " of the first " + std::to_string(solo) +
              " results differ from a cold solo Solve");
  }

  if (tracer.enabled()) {
    // The probe graph is youtube, whose cache-served sampling dominates
    // the mix's service time.
    auto ref = serving.catalog->Get("youtube");
    ProbeSpec spec;
    spec.eta = std::max<NodeId>(1, ref->num_nodes() / 100);
    spec.rr_sets = 100000;
    spec.mrr_sets = 8000;
    spec.cache_sets = spec.mrr_sets;
    spec.coverage_rounds = 4;
    ProbeLayers(args, tracer, *ref, spec, /*probe_store=*/false, record);
    record.layers["obs.trace_overhead_share"] =
        TraceOverheadShare(spans_in_window, record.timed_wall_s);
  }
}

// --- Main -------------------------------------------------------------------

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--out") {
      args.out = value;
    } else if (flag == "--spans") {
      args.spans = value;
    } else if (flag == "--scratch") {
      args.scratch = value;
    } else {
      std::cerr << "unknown flag " << flag << "\n";
      return false;
    }
  }
  return !args.workload.empty() && !args.out.empty() && args.seconds > 0.0;
}

std::string ChecksJson(const Record& record) {
  std::string out = "[";
  for (size_t i = 0; i < record.checks.size(); ++i) {
    JsonObject check;
    check.Str("name", record.checks[i].first)
        .Bool("ok", record.checks[i].second.empty())
        .Str("detail", record.checks[i].second);
    out += (i ? "," : "") + check.str();
  }
  return out + "]";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::cerr << "usage: ledger_harness --workload NAME --seed N --seconds S --trace 0|1 "
                 "--out FILE [--spans FILE] [--scratch DIR]\n";
    return 2;
  }
  Tracer tracer(args.trace, SteadyClock::now());
  Record record;
  if (args.workload == "solve-lj-ic") {
    RunSolveLj(args, tracer, record);
  } else if (args.workload == "serve-mix-warm") {
    RunServe(args, tracer, record);
  } else {
    std::cerr << "unknown workload " << args.workload << "\n";
    return 2;
  }
  if (!args.spans.empty() && tracer.enabled()) tracer.Write(args.spans);

  JsonObject meta;
  meta.Str("compiler", std::string("g++ ") + __VERSION__)
      .Str("build_type", LEDGER_BUILD_TYPE)
      .Int("nproc", std::thread::hardware_concurrency())
      .Int("pool_threads", kPoolThreads)
      .Int("drivers", kDrivers)
      .Int("workload_seed", args.seed)
      .Num("offered_rate", args.workload == "solve-lj-ic" ? 0.0 : kServeRate);
  JsonObject layers;
  for (const auto& [name, value] : record.layers) layers.Num(name, value);
  JsonObject out;
  out.Str("workload", args.workload)
      .Raw("meta", meta.str())
      .List("setup_s", record.setup_s)
      .Num("timed_wall_s", record.timed_wall_s)
      .Int("sent", record.sent)
      .Int("succeeded", record.succeeded)
      .Int("failed", record.failed)
      .Int("rejected", record.rejected)
      .List("latency_s", record.latency_s)
      .List("queue_wait_s", record.queue_wait_s)
      .List("service_s", record.service_s)
      .List("lag_s", record.lag_s)
      .Num("seeds_sum", record.seeds_sum)
      .Int("realizations", record.realizations)
      .Num("peak_rss_mb", record.peak_rss_mb)
      .Num("cpu_utilisation", record.cpu_utilisation)
      .Num("sampling_s", record.sampling_s)
      .Num("coverage_s", record.coverage_s)
      .Num("certify_s", record.certify_s)
      .Num("busy_s", record.busy_s)
      .Int("sets_reused", record.sets_reused)
      .Int("sets_extended", record.sets_extended)
      .Int("rounds", record.rounds)
      .Int("sets", record.sets)
      .Int("adaptive_requests", record.adaptive_requests)
      .Str("results_digest", HexDigest(record.results_digest))
      .Raw("checks", ChecksJson(record))
      .Raw("layers", layers.str());
  std::ofstream file(args.out);
  file << out.str() << "\n";
  return file.good() ? 0 : 1;
}
