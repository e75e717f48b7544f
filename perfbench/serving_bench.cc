// Streamed serving benchmark: replays generated crowd observations through
// the real serving path one slot at a time and reports end-to-end metrics
// (untraced) or a per-layer breakdown (traced). See perfbench/README.md for
// the workloads, the metric definitions and the layer -> metric predictions.
//
//   serving_bench --workload <citya_stream|metro_100k|cityb_read_heavy>
//                 --seed <n> --seconds <s> --trace <0|1>
//                 [--chrome-trace <file>]
//
// Path under test, per slot:
//   generator thread   IngestFrontEnd::Offer (every report of the slot)
//   serving thread     IngestFrontEnd::Flush at the slot's due close
//                      -> ServingSession::Ingest (admission, Estimate =
//                         aggregate + Step 1 BP + Step 2, monitor)
//                      -> snapshot publish
//   reader threads     CityProducts::Eta / RoadSpeed / Poll on the snapshot
//
// Load model: open loop. Slot i is due to close at t0 + (i+1) * period and
// its reports are due at the middle of the slot. The generator offers slot
// i+1 only after slot i has been sealed, because IngestFrontEnd::Flush seals
// whatever is queued: a report of the next slot in the queue would split
// that slot into two batches. A late seal therefore shows in freshness
// (timed from the due close, or from the slot's last report when the
// generator ran late), never as lost observations. Readers issue
// queries at fixed rates and each query is timed from its due time.
//
// Only the knobs the path needs in order to exist are set:
// ingest_queue.capacity, publish_snapshots, and products.enabled where
// readers run concurrently. Every tuning knob keeps its library default,
// and the resolved values are printed in the run's stamp.
//
// The last line of stdout is the result object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// A failed output check prints correct=false and exits 1.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <thread>
#include <utility>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif
#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#include <sys/prctl.h>
#endif
#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "baseline/historical_mean.h"
#include "bench_hardware.h"
#include "core/estimator.h"
#include "core/ingest.h"
#include "core/routing.h"
#include "core/serving.h"
#include "io/dataset.h"
#include "obs/catalog.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/trace_export.h"
#include "probe/trips.h"
#include "product/products.h"
#include "roadnet/generators.h"
#include "speed/propagation.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace trendspeed {
namespace {

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

/// The city fixture (network, history, truth) is fixed per workload; the
/// workload seed generates the crowd reports and the reader queries.
constexpr uint64_t kCitySeed = 2024;
/// Worker imprecision, as in the paper-figure evaluations (EvalOptions).
constexpr double kReportNoiseKmh = 1.5;
/// Relative error above this counts toward the error rate (paper: 20%).
constexpr double kErrorRateTau = 0.2;

struct WorkloadSpec {
  std::string name;
  double slot_period_ms = 1.0;
  /// Noisy worker reports per seed road per slot.
  uint32_t reports_per_seed = 1;
  /// Seed roads: a fixed K, or a share of all roads when k == 0.
  size_t k = 40;
  double seed_share = 0.0;
  /// Reader threads running concurrently with the stream (0: readers run
  /// only after the stream, against the idle writer).
  int concurrent_readers = 0;
  /// Reader operations per second, per reader.
  double reader_ops_per_s = 0.0;
  /// Share of --seconds given to the after-stream read phase (no
  /// concurrent readers only); the stream gets the rest.
  double quiet_read_share = 0.0;
  /// Timed set-ups per run; setup_s is their median.
  int setup_reps = 5;
};

WorkloadSpec SpecFor(const std::string& name) {
  WorkloadSpec w;
  w.name = name;
  if (name == "citya_stream") {
    // At 5 ms the serving CPU idled nine tenths of each slot and the
    // service time followed whatever ran on the core meanwhile; 1 ms keeps
    // it about 40% busy and the run-to-run spread about a third as wide.
    w.slot_period_ms = 1.0;
    w.reports_per_seed = 3;
    w.k = 40;
    w.reader_ops_per_s = 10000.0;
    w.quiet_read_share = 0.25;
  } else if (name == "metro_100k") {
    w.slot_period_ms = 200.0;
    w.k = 0;
    w.seed_share = 0.01;
    // A route costs a few ms here; queries are spaced wider than that so
    // the read phase measures the products, not a queue of routes.
    w.reader_ops_per_s = 50.0;
    w.quiet_read_share = 0.25;
    w.setup_reps = 2;
  } else if (name == "cityb_read_heavy") {
    w.slot_period_ms = 5.0;
    w.k = 40;
    w.concurrent_readers = 2;
    w.reader_ops_per_s = 10000.0;
  } else {
    w.name.clear();
  }
  return w;
}

DatasetOptions CityOptions(const WorkloadSpec& w) {
  DatasetOptions opts;
  opts.seed = kCitySeed;
  if (w.name == "metro_100k") {
    // Idealized history keeps generation and training inside the run
    // budget.
    opts.history_days = 2;
    opts.test_days = 1;
    opts.use_probe_fleet = false;
  } else {
    // The paper-figure setting: full probe-fleet pipeline, 14 + 2 days.
    opts.history_days = 14;
    opts.test_days = 2;
    opts.use_probe_fleet = true;
    opts.fleet.trips_per_slot = 15;
  }
  return opts;
}

Result<Dataset> BuildCity(const WorkloadSpec& w) {
  const DatasetOptions opts = CityOptions(w);
  if (w.name == "metro_100k") {
    // 158 x 158 two-way grid = 99,224 directed segments.
    GridNetworkOptions grid;
    grid.rows = 158;
    grid.cols = 158;
    grid.arterial_every = 5;
    grid.seed = kCitySeed;
    TS_ASSIGN_OR_RETURN(RoadNetwork net, MakeGridNetwork(grid));
    return BuildDataset("Metro100k", std::move(net), opts);
  }
  return w.name == "citya_stream" ? BuildCityA(opts) : BuildCityB(opts);
}

// ---------------------------------------------------------------------------
// Clock, waiting, statistics.
// ---------------------------------------------------------------------------

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void CpuRelax() {
#if defined(__x86_64__)
  _mm_pause();
#else
  std::this_thread::yield();
#endif
}

/// Tightens this thread's sleep overshoot (Linux timer slack defaults to
/// 50 us, which is most of a reader's query interval).
void PreciseSleeps() {
#if defined(__linux__)
  prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
#endif
}

/// Usable CPUs of the process, read once before any bench thread is pinned.
const std::vector<int>& UsableCpuList() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
#if defined(__linux__)
    cpu_set_t mask;
    CPU_ZERO(&mask);
    if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &mask)) out.push_back(c);
      }
    }
#endif
    return out;
  }();
  return cpus;
}

/// Pins the calling thread to the `k`-th usable CPU; a no-op when there are
/// not more than `k` usable CPUs.
///
/// The bench pins its own threads one per CPU while it measures: the
/// serving thread on the first, the generator on the second, concurrent
/// readers on the next ones. Fixed placement keeps the scheduler's choice
/// of CPUs from moving the numbers between runs. The library's pool
/// workers are started before any pinning and stay free.
void PinToCpu(size_t k) {
#if defined(__linux__)
  const std::vector<int>& cpus = UsableCpuList();
  if (k >= cpus.size()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[k], &one);
  pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
#endif
}

/// Pins the calling thread to the serving thread's CPU while in scope.
class ServingCpuPin {
 public:
  ServingCpuPin() { PinToCpu(0); }
  ~ServingCpuPin() {
#if defined(__linux__)
    cpu_set_t all;
    CPU_ZERO(&all);
    for (int c : UsableCpuList()) CPU_SET(c, &all);
    pthread_setaffinity_np(pthread_self(), sizeof(all), &all);
#endif
  }
  ServingCpuPin(const ServingCpuPin&) = delete;
  ServingCpuPin& operator=(const ServingCpuPin&) = delete;
};

/// Spin margins of WaitUntil. The generator and the serving thread wake
/// once per slot and spin the last 250 us, so waking a halted virtual CPU
/// does not delay the seal (a harness cost freshness would otherwise
/// count). Readers wake every query interval and spin only the last 30 us.
constexpr int64_t kSlotSpinNs = 250'000;
constexpr int64_t kQuerySpinNs = 30'000;

/// Sleeps until `spin_ns` before `deadline_ns`, then spins to it.
void WaitUntil(int64_t deadline_ns, int64_t spin_ns) {
  for (;;) {
    int64_t left = deadline_ns - NowNs();
    if (left <= 0) return;
    if (left > spin_ns) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(left - spin_ns));
    } else {
      CpuRelax();
    }
  }
}

/// Waits for another bench thread to make `done` true. Spins briefly, then
/// yields: a pure spin could hold the very CPU the other thread needs.
template <typename Pred>
void AwaitThread(Pred done) {
  for (int k = 0; !done(); ++k) {
    if (k < 64) {
      CpuRelax();
    } else {
      std::this_thread::yield();
    }
  }
}

double Ms(int64_t ns) { return static_cast<double>(ns) * 1e-6; }
double Us(int64_t ns) { return static_cast<double>(ns) * 1e-3; }

/// Nearest-rank quantile of an unsorted sample (NaN when empty).
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  size_t rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

/// Host speed stamp: median time of a fixed CPU loop (a PRNG fill and sort
/// of 32k doubles) on the serving CPU, which no change to the program can
/// move. Runs of one set that differ here ran on a host of different speed.
double HostCalibrationMs() {
  ServingCpuPin pin;
  std::vector<double> times, buf(32768);
  for (int rep = 0; rep < 9; ++rep) {
    uint64_t x = 0x9e3779b97f4a7c15ull;
    int64_t t0 = NowNs();
    for (double& e : buf) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      e = static_cast<double>(x >> 11);
    }
    std::sort(buf.begin(), buf.end());
    times.push_back(static_cast<double>(NowNs() - t0) * 1e-6);
  }
  return Quantile(times, 0.5);
}

double PeakRssMb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MB
    }
  }
  return std::nan("");
}

// ---------------------------------------------------------------------------
// Generated inputs.
// ---------------------------------------------------------------------------

struct SlotInput {
  uint64_t slot = 0;        ///< slot id handed to the serving path
  uint64_t truth_slot = 0;  ///< dataset slot whose truth it replays
  std::vector<SeedSpeed> reports;
};

/// The stream's slots. Slot i is generated when it is needed, from the
/// workload seed and i alone, so a seed always gives the same reports and a
/// run holds no pre-generated stream (whose size would grow peak_rss_mb
/// with the run's length).
class SlotStream {
 public:
  SlotStream() = default;
  SlotStream(const Dataset* ds, const std::vector<RoadId>* seeds,
             uint32_t reports_per_seed, uint64_t seed, size_t n)
      : ds_(ds),
        seeds_(seeds),
        reports_per_seed_(reports_per_seed),
        seed_(seed),
        n_(n) {}

  size_t size() const { return n_; }
  size_t reports_per_slot() const {
    return seeds_->size() * reports_per_seed_;
  }

  /// Slot i: each seed road gets reports_per_seed noisy readings of its
  /// true speed, shuffled so duplicates are not adjacent.
  SlotInput At(size_t i) const {
    const Dataset& ds = *ds_;
    const uint64_t first = ds.first_test_slot();
    const uint64_t test_slots = ds.num_slots() - first;
    // Stream epochs advance by whole weeks, so the served slot's time of
    // day and weekday bucket match the truth slot it replays.
    const uint64_t week = 7ull * ds.truth.slots_per_day;
    const uint64_t epoch_stride = (test_slots + week - 1) / week * week;
    Rng rng(seed_, kStreamBase + i);
    SlotInput in;
    in.truth_slot = first + i % test_slots;
    in.slot = first + (i / test_slots) * epoch_stride + i % test_slots;
    in.reports.reserve(reports_per_slot());
    for (RoadId r : *seeds_) {
      double truth = ds.truth.at(in.truth_slot, r);
      for (uint32_t k = 0; k < reports_per_seed_; ++k) {
        in.reports.push_back(
            {r, std::max(1.0, truth + rng.Gaussian(0.0, kReportNoiseKmh))});
      }
    }
    rng.Shuffle(&in.reports);
    return in;
  }

 private:
  /// Random streams of the slots (slot i uses kStreamBase + i), apart from
  /// the readers' stream.
  static constexpr uint64_t kStreamBase = uint64_t{1} << 32;

  const Dataset* ds_ = nullptr;
  const std::vector<RoadId>* seeds_ = nullptr;
  uint32_t reports_per_seed_ = 1;
  uint64_t seed_ = 0;
  size_t n_ = 0;
};

/// Per-road mean of a slot's reports (what kMean dedup hands the estimator).
std::vector<SeedSpeed> MeanPerRoad(const std::vector<SeedSpeed>& reports) {
  std::map<RoadId, std::pair<double, int>> acc;
  for (const SeedSpeed& s : reports) {
    auto& a = acc[s.road];
    a.first += s.speed_kmh;
    a.second += 1;
  }
  std::vector<SeedSpeed> out;
  out.reserve(acc.size());
  for (const auto& [road, a] : acc) out.push_back({road, a.first / a.second});
  return out;
}

enum class OpType : uint8_t { kEta, kRoadSpeed, kPoll };

struct ReaderOp {
  OpType type = OpType::kEta;
  NodeId from = 0;
  NodeId to = 0;
  RoadId road = 0;
};

using OdPair = std::pair<NodeId, NodeId>;

/// Origin-destination pairs of the trips the city's probe fleet drives
/// (TripGenerator with the dataset's fleet options: the hotspot-biased
/// popularity that produced the probe history), in trip order. With
/// `distinct`, repeated pairs are skipped. Stops at `n` pairs or after
/// 8 * n trips; trips the generator cannot plan are skipped.
std::vector<OdPair> FleetPairs(const RoadNetwork& net,
                               const TripGeneratorOptions& fleet, size_t n,
                               bool distinct) {
  TripGenerator trips(&net, fleet);
  std::set<OdPair> seen;
  std::vector<OdPair> out;
  for (size_t t = 0; out.size() < n && t < 8 * n; ++t) {
    auto plan = trips.Next();
    if (!plan.ok()) continue;
    OdPair p{plan->origin, plan->destination};
    if (!distinct || seen.insert(p).second) out.push_back(p);
  }
  return out;
}

/// A reader's operation stream: 85% Eta on the pairs `next_pair` yields,
/// 10% RoadSpeed over uniform roads, 5% Poll. The mix is an assumption of
/// this benchmark, not a measured navigation workload.
std::vector<ReaderOp> MakeReaderOps(const RoadNetwork& net, size_t n, Rng* rng,
                                    const std::function<OdPair()>& next_pair) {
  std::vector<ReaderOp> ops(n);
  for (ReaderOp& op : ops) {
    double u = rng->NextDouble();
    if (u < 0.05) {
      op.type = OpType::kPoll;
    } else if (u < 0.15) {
      op.type = OpType::kRoadSpeed;
      op.road = static_cast<RoadId>(rng->NextIndex(net.num_roads()));
    } else {
      std::tie(op.from, op.to) = next_pair();
    }
  }
  return ops;
}

// ---------------------------------------------------------------------------
// Serving stack.
// ---------------------------------------------------------------------------

struct Stack {
  std::unique_ptr<TrafficSpeedEstimator> est;
  std::vector<RoadId> seeds;
  std::unique_ptr<ServingSession> session;
  std::unique_ptr<IngestFrontEnd> frontend;
  /// One per concurrent reader (CityProducts is single-reader).
  std::vector<std::unique_ptr<CityProducts>> products;
};

struct ObsHooks {
  obs::MetricsRegistry* metrics = nullptr;
  obs::FlightRecorder* flight = nullptr;
};

ServingOptions BenchServingOptions(const WorkloadSpec& w, size_t capacity,
                                   const ObsHooks& hooks) {
  ServingOptions o;
  o.publish_snapshots = true;
  o.ingest_queue.capacity = capacity;
  o.products.enabled = w.concurrent_readers > 0;
  o.observability.metrics = hooks.metrics;
  o.observability.flight = hooks.flight;
  return o;
}

size_t QueueCapacity(size_t reports_per_slot) {
  size_t c = 1024;
  while (c < 4 * reports_per_slot) c *= 2;
  return c;
}

/// Session + front-end + per-reader products over an existing estimator.
Status AttachServing(const Dataset& ds, const WorkloadSpec& w, int readers,
                     const ObsHooks& hooks, Stack* s) {
  size_t per_slot = s->seeds.size() * w.reports_per_seed;
  ServingOptions opts =
      BenchServingOptions(w, QueueCapacity(per_slot), hooks);
  TS_ASSIGN_OR_RETURN(ServingSession session,
                      ServingSession::Create(s->est.get(), opts));
  s->session = std::make_unique<ServingSession>(std::move(session));
  TS_ASSIGN_OR_RETURN(s->frontend, IngestFrontEnd::Create(s->session.get()));
  for (int r = 0; r < readers; ++r) {
    TS_ASSIGN_OR_RETURN(CityProducts p,
                        CityProducts::ForSession(ds.net, *s->session,
                                                 ds.truth.slots_per_day));
    p.AttachMetrics(hooks.metrics);
    s->products.push_back(std::make_unique<CityProducts>(std::move(p)));
  }
  return Status::OK();
}

struct SetupTiming {
  double total_s = 0.0;
  double train_s = 0.0;
  double select_s = 0.0;
};

/// One timed set-up: Train + SelectSeeds + session/front-end/products.
Result<SetupTiming> SetUp(const Dataset& ds, const WorkloadSpec& w,
                          int readers, Stack* s) {
  *s = Stack{};  // release the previous stack before building the next
  SetupTiming t;
  int64_t t0 = NowNs();
  TS_ASSIGN_OR_RETURN(TrafficSpeedEstimator est,
                      TrafficSpeedEstimator::Train(&ds.net, &ds.history, {}));
  s->est = std::make_unique<TrafficSpeedEstimator>(std::move(est));
  int64_t t1 = NowNs();
  const double roads = static_cast<double>(ds.net.num_roads());
  size_t k = w.k > 0 ? w.k : static_cast<size_t>(w.seed_share * roads);
  TS_ASSIGN_OR_RETURN(SeedSelectionResult sel,
                      s->est->SelectSeeds(k, SeedStrategy::kLazyGreedy));
  s->seeds = sel.seeds;
  int64_t t2 = NowNs();
  TS_RETURN_NOT_OK(AttachServing(ds, w, readers, {}, s));
  int64_t t3 = NowNs();
  t.train_s = (t1 - t0) * 1e-9;
  t.select_s = (t2 - t1) * 1e-9;
  t.total_s = (t3 - t0) * 1e-9;
  return t;
}

// ---------------------------------------------------------------------------
// Readers.
// ---------------------------------------------------------------------------

struct ReaderResult {
  uint64_t attempted = 0;
  uint64_t errors = 0;
  std::vector<double> eta_due_us;  ///< Eta latency from its due time
  std::vector<double> eta_hit_us;  ///< service time, cache hits
  std::vector<double> eta_miss_us;
  std::vector<double> poll_us;
  std::vector<double> road_speed_us;
  uint64_t repriced = 0;  ///< sampled Eta answers re-priced uncached
  std::vector<std::string> failures;

  /// Reserves room for `ops` operations up front, so the bench's own
  /// allocations do not vary the process's peak RSS from run to run.
  void Reserve(size_t ops) {
    for (std::vector<double>* v : {&eta_due_us, &eta_hit_us, &eta_miss_us,
                                   &poll_us, &road_speed_us}) {
      v->reserve(ops);
    }
  }

  void Merge(ReaderResult&& o) {
    attempted += o.attempted;
    errors += o.errors;
    repriced += o.repriced;
    auto cat = [](std::vector<double>* a, std::vector<double>& b) {
      a->insert(a->end(), b.begin(), b.end());
    };
    cat(&eta_due_us, o.eta_due_us);
    cat(&eta_hit_us, o.eta_hit_us);
    cat(&eta_miss_us, o.eta_miss_us);
    cat(&poll_us, o.poll_us);
    cat(&road_speed_us, o.road_speed_us);
    for (auto& f : o.failures) failures.push_back(std::move(f));
  }
};

/// Every this-many Eta answers one is re-priced.
constexpr size_t kEtaSampleEvery = 64;

/// Re-prices an Eta answer with uncached FastestRoute on the snapshot it
/// claims; the product contract is bitwise equality.
bool RepricesBitwise(const RoadNetwork& net, const SpeedSnapshot& snap,
                     NodeId from, NodeId to,
                     const RouteEtaCache::EtaResult& eta) {
  auto ref = FastestRoute(net, snap.speed_kmh, from, to);
  return ref.ok() && ref->roads == eta.route.roads &&
         std::memcmp(&ref->travel_seconds, &eta.route.travel_seconds,
                     sizeof(double)) == 0;
}

/// Open-loop reader: op j is due at start + j / rate; runs until `end_ns`.
/// One Eta answer in kEtaSampleEvery is re-priced between queries, outside
/// the timed call.
void RunReader(const RoadNetwork& net, CityProducts* products,
               const std::vector<ReaderOp>& ops, double rate,
               int64_t start_ns, int64_t end_ns, ReaderResult* out, int cpu) {
  PreciseSleeps();
  if (cpu >= 0) PinToCpu(static_cast<size_t>(cpu));
  const double interval_ns = 1e9 / rate;
  size_t etas = 0;
  out->Reserve(ops.size());
  for (size_t j = 0; j < ops.size(); ++j) {
    int64_t due = start_ns + static_cast<int64_t>(j * interval_ns);
    if (due >= end_ns) break;
    WaitUntil(due, kQuerySpinNs);
    const ReaderOp& op = ops[j];
    ++out->attempted;
    int64_t a = NowNs();
    switch (op.type) {
      case OpType::kPoll: {
        bool ok = products->Poll();
        int64_t b = NowNs();
        if (!ok) ++out->errors;
        out->poll_us.push_back(Us(b - a));
        break;
      }
      case OpType::kRoadSpeed: {
        auto r = products->RoadSpeed(op.road);
        int64_t b = NowNs();
        if (!r.ok() || !std::isfinite(r->speed_kmh) || r->speed_kmh <= 0.0) {
          ++out->errors;
        }
        out->road_speed_us.push_back(Us(b - a));
        break;
      }
      case OpType::kEta: {
        auto r = products->Eta(op.from, op.to);
        int64_t b = NowNs();
        if (!r.ok()) {
          ++out->errors;
          break;
        }
        out->eta_due_us.push_back(Us(b - due));
        (r->cache_hit ? out->eta_hit_us : out->eta_miss_us)
            .push_back(Us(b - a));
        if (r->provenance != SpeedProvenance::kFresh) {
          out->failures.push_back("ETA priced on a non-fresh snapshot");
        }
        if (etas++ % kEtaSampleEvery == 0) {
          const SpeedSnapshot& snap = products->last_snapshot();
          if (snap.version != r->snapshot_version) {
            out->failures.push_back("ETA version differs from its snapshot");
          } else if (!RepricesBitwise(net, snap, op.from, op.to, *r)) {
            out->failures.push_back(
                "ETA answer differs from uncached FastestRoute");
          }
          ++out->repriced;
        }
        break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// One streamed pass.
// ---------------------------------------------------------------------------

struct SlotTiming {
  uint64_t slot = 0;
  double flush_ms = 0.0;
  double aggregate_ms = 0.0;  ///< traced only: standalone re-run
  double step2_ms = 0.0;      ///< traced only: standalone re-run
  /// From the slot's first Offer to its due close: the queue wait the
  /// schedule imposes, whatever the front-end does.
  double sched_wait_ms = 0.0;
};

struct PassResult {
  size_t measured_slots = 0;
  std::vector<double> freshness_ms;  ///< measured slots served fresh
  std::vector<SlotTiming> timings;   ///< measured slots served fresh
  size_t on_time = 0;
  uint64_t slots_failed = 0;  ///< measured slots not served fresh
  // Observation conservation over the whole pass.
  uint64_t obs_offered = 0;
  uint64_t obs_admitted = 0;
  // Accuracy over every served slot (non-seed roads).
  double ape_sum = 0.0;
  uint64_t err_count = 0;
  uint64_t hist_err_count = 0;
  uint64_t scored = 0;
  // Generator.
  std::vector<double> gen_lateness_ms;
  std::vector<double> offer_us;  ///< traced only
  ReaderResult readers;
  std::vector<std::string> failures;
  // Registry counter values when the measured window opened (traced).
  std::map<std::string, double> counters_at_start;
};

/// Serving-thread busy time (time inside Flush) of each measured slot.
std::vector<double> BusyMs(const PassResult& p) {
  std::vector<double> busy;
  for (const SlotTiming& t : p.timings) busy.push_back(t.flush_ms);
  return busy;
}

/// Slots per second of serving-thread busy time, at the median busy time
/// per slot: a stalled slot moves a mean, not the median.
double Capacity(const PassResult& p) { return 1e3 / Median(BusyMs(p)); }

/// Adds the historical-mean baseline's error count for one slot (same
/// reports, same non-seed roads); false when the baseline fails.
bool CountHistErrors(const HistoricalMeanEstimator& hist, const SlotInput& in,
                     const Dataset& ds, const std::vector<bool>& is_seed,
                     uint64_t* errs) {
  auto est = hist.Estimate(in.slot, MeanPerRoad(in.reports));
  if (!est.ok()) return false;
  for (RoadId r = 0; r < ds.net.num_roads(); ++r) {
    if (is_seed[r]) continue;
    double t = ds.truth.at(in.truth_slot, r);
    if (std::fabs((*est)[r] - t) / t > kErrorRateTau) ++*errs;
  }
  return true;
}

using CounterProbe = std::function<std::map<std::string, double>()>;

PassResult RunPass(const Dataset& ds, const WorkloadSpec& w, Stack* s,
                   const SlotStream& inputs, size_t warmup,
                   const std::vector<std::vector<ReaderOp>>& reader_ops,
                   bool traced, const CounterProbe& probe) {
  PassResult res;
  res.measured_slots = inputs.size() - warmup;
  res.freshness_ms.reserve(inputs.size());
  res.timings.reserve(inputs.size());
  res.gen_lateness_ms.reserve(inputs.size());
  if (traced) res.offer_us.reserve(inputs.size() * inputs.reports_per_slot());
  const int64_t period = static_cast<int64_t>(w.slot_period_ms * 1e6);
  const size_t n = inputs.size();
  const int64_t t0 = NowNs() + 20'000'000;
  const int64_t measure_start = t0 + static_cast<int64_t>(warmup) * period;
  const int64_t stream_end = t0 + static_cast<int64_t>(n) * period;
  std::vector<bool> is_seed(ds.net.num_roads(), false);
  for (RoadId r : s->seeds) is_seed[r] = true;
  HistoricalMeanEstimator hist(&ds.net, &ds.history);

  std::atomic<size_t> offered_through{0};  // slots fully offered
  std::atomic<size_t> sealed_through{0};   // slots sealed
  std::atomic<uint64_t> offer_rejects{0};
  // First and last Offer of each slot, written before offered_through.
  std::vector<int64_t> offer_start(n, 0), offer_end(n, 0);

  PreciseSleeps();
  std::thread generator([&] {
    PreciseSleeps();
    PinToCpu(1);
    for (size_t i = 0; i < n; ++i) {
      const SlotInput in = inputs.At(i);
      int64_t due = t0 + static_cast<int64_t>(i) * period + period / 2;
      WaitUntil(due, kSlotSpinNs);
      AwaitThread([&] {
        return sealed_through.load(std::memory_order_acquire) >= i;
      });
      int64_t start = std::max(due, NowNs());
      offer_start[i] = start;
      res.gen_lateness_ms.push_back(Ms(start - due));
      for (const SeedSpeed& obs : in.reports) {
        if (traced) {
          int64_t a = NowNs();
          bool ok = s->frontend->Offer(in.slot, obs);
          res.offer_us.push_back(Us(NowNs() - a));
          if (!ok) offer_rejects.fetch_add(1, std::memory_order_relaxed);
        } else if (!s->frontend->Offer(in.slot, obs)) {
          offer_rejects.fetch_add(1, std::memory_order_relaxed);
        }
      }
      offer_end[i] = NowNs();
      offered_through.store(i + 1, std::memory_order_release);
    }
  });

  std::vector<ReaderResult> reader_results(reader_ops.size());
  std::vector<std::thread> readers;
  for (size_t r = 0; r < reader_ops.size(); ++r) {
    readers.emplace_back(RunReader, std::cref(ds.net), s->products[r].get(),
                         std::cref(reader_ops[r]), w.reader_ops_per_s,
                         measure_start, stream_end, &reader_results[r],
                         static_cast<int>(2 + r));
  }

  const SpeedSnapshotPublisher* pub = s->session->snapshot_publisher();
  SpeedSnapshot snap;
  uint64_t served = 0;
  for (size_t i = 0; i < n; ++i) {
    const int64_t close = t0 + static_cast<int64_t>(i + 1) * period;
    const bool measured = i >= warmup;
    if (measured && i == warmup && probe) res.counters_at_start = probe();
    WaitUntil(close, kSlotSpinNs);
    AwaitThread(
        [&] { return offered_through.load(std::memory_order_acquire) > i; });
    int64_t a = NowNs();
    auto rep = s->frontend->Flush();
    int64_t b = NowNs();
    sealed_through.store(i + 1, std::memory_order_release);
    // The slot's reports again, for the checks: outside the timed region.
    const SlotInput in = inputs.At(i);
    res.obs_offered += in.reports.size();

    bool fresh = rep.ok() && rep->slot == in.slot && !rep->stale &&
                 !rep->duplicate;
    if (!fresh) {
      res.failures.push_back("slot " + std::to_string(in.slot) +
                             " not served fresh: " +
                             (rep.ok() ? "stale/duplicate/wrong slot"
                                       : rep.status().ToString()));
      if (measured) ++res.slots_failed;
      continue;
    }
    ++served;
    res.obs_admitted += rep->observations_used;
    if (measured) {
      // A slot's data is complete at its due close, or at its last report
      // when the generator ran late: the crowd's lateness is not the
      // server's (it is reported as gen.lateness_ms).
      double fresh_ms = Ms(b - std::max(close, offer_end[i]));
      res.freshness_ms.push_back(fresh_ms);
      if (fresh_ms <= w.slot_period_ms) ++res.on_time;
      res.timings.push_back(
          {in.slot, Ms(b - a), 0.0, 0.0, Ms(close - offer_start[i])});
    }

    // Output checks and accuracy, outside the timed region.
    if (!pub->Read(&snap) || snap.slot != in.slot || snap.version != served ||
        snap.stale) {
      res.failures.push_back("snapshot does not match slot " +
                             std::to_string(in.slot));
      continue;
    }
    for (RoadId r = 0; r < ds.net.num_roads(); ++r) {
      double v = snap.speed_kmh[r];
      if (!std::isfinite(v) || v <= 0.0) {
        res.failures.push_back("non-finite or non-positive served speed");
        break;
      }
      if (is_seed[r]) continue;
      double rel = std::fabs(v - ds.truth.at(in.truth_slot, r)) /
                   ds.truth.at(in.truth_slot, r);
      res.ape_sum += rel;
      if (rel > kErrorRateTau) ++res.err_count;
      ++res.scored;
    }
    if (!CountHistErrors(hist, in, ds, is_seed, &res.hist_err_count)) {
      res.failures.push_back("historical-mean baseline failed");
    }

    if (traced && measured) {
      // Step 2 inputs are the slot's deduplicated reports and the trends
      // the serving path just produced.
      std::vector<SeedSpeed> seeds = MeanPerRoad(in.reports);
      const TrafficSpeedEstimator& est = *s->est;
      int64_t c = NowNs();
      InfluenceAggregate agg = AggregateSeedDeviations(
          est.influence(), ds.net, ds.history, seeds, in.slot);
      int64_t d = NowNs();
      auto speeds = EstimateSpeedsInfluence(
          ds.net, est.influence(), ds.history, est.speed_model(),
          rep->monitor.estimate.trends, seeds, agg, in.slot,
          est.config().propagation);
      int64_t e = NowNs();
      if (!speeds.ok()) res.failures.push_back("standalone Step 2 failed");
      res.timings.back().aggregate_ms = Ms(d - c);
      res.timings.back().step2_ms = Ms(e - d);
    }
  }
  generator.join();
  for (std::thread& t : readers) t.join();
  for (ReaderResult& r : reader_results) res.readers.Merge(std::move(r));

  // Conservation: offered = admitted + deduplicated + stragglers + rejected.
  ServingStats ss = s->session->stats();
  IngestStats is = s->frontend->stats();
  uint64_t rejects = offer_rejects.load();
  if (res.obs_offered != res.obs_admitted + ss.observations_deduplicated +
                             is.stragglers + rejects) {
    res.failures.push_back("observation conservation violated");
  }
  if (rejects != is.rejected_backpressure || ss.observations_filtered != 0) {
    res.failures.push_back("unexpected backpressure or filtered observations");
  }
  if (ss.slots_estimated != served || ss.slots_carried_forward != 0 ||
      ss.rejected_batches != 0 || ss.duplicate_slots != 0 ||
      ss.out_of_order_slots != 0 || is.flushed_slots != n) {
    res.failures.push_back("serving stats disagree with the served slots");
  }
  return res;
}

/// After-stream read phase for workloads without concurrent readers: one
/// reader over the idle session's snapshot, each segment of operations on
/// a newly created products instance (an empty ETA cache).
Status QuietReads(const Dataset& ds, const WorkloadSpec& w, Stack* s,
                  const std::vector<std::vector<ReaderOp>>& segments,
                  obs::MetricsRegistry* reg, ReaderResult* out) {
  ProductOptions popts;
  popts.enabled = true;
  size_t total = 0;
  for (const std::vector<ReaderOp>& ops : segments) total += ops.size();
  out->Reserve(total);
  for (const std::vector<ReaderOp>& ops : segments) {
    TS_ASSIGN_OR_RETURN(
        CityProducts p,
        CityProducts::Create(ds.net, s->session->snapshot_publisher(),
                             ds.truth.slots_per_day, popts));
    p.AttachMetrics(reg);
    RunReader(ds.net, &p, ops, w.reader_ops_per_s, NowNs() + 1'000'000,
              std::numeric_limits<int64_t>::max(), out, -1);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Reporting.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), v, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

const char* DedupName(DedupPolicy p) {
  switch (p) {
    case DedupPolicy::kMean: return "kMean";
    case DedupPolicy::kKeepFirst: return "kKeepFirst";
    case DedupPolicy::kKeepLast: return "kKeepLast";
    case DedupPolicy::kReject: return "kReject";
  }
  return "unknown";
}

void PrintStamp(const WorkloadSpec& w, uint64_t seed, const Dataset& ds,
                double gen_s, const Stack& s, int readers, size_t warmup,
                size_t measured, double quiet_read_s, size_t eta_pairs) {
  const PipelineConfig& c = s.est->config();
  const ServingOptions& so = s.session->options();
  std::printf("{\n");
  PrintHardwareStamp();
  std::printf("  \"workload\": \"%s\",\n", w.name.c_str());
  std::printf("  \"seed\": %llu,\n", static_cast<unsigned long long>(seed));
  std::printf("  \"city\": {\"name\": \"%s\", \"roads\": %zu, \"nodes\": %zu, "
              "\"history_days\": %u, \"test_days\": %u, \"seeds\": %zu, "
              "\"reports_per_seed\": %u, \"dataset_gen_s\": %.3f},\n",
              ds.name.c_str(), ds.net.num_roads(), ds.net.num_nodes(),
              ds.history_days, ds.test_days, s.seeds.size(),
              w.reports_per_seed, gen_s);
  std::printf("  \"load\": {\"model\": \"open_loop\", \"slot_period_ms\": %g, "
              "\"warmup_slots\": %zu, \"measured_slots\": %zu, "
              "\"concurrent_readers\": %d, \"reader_ops_per_s\": %g, "
              "\"quiet_read_s\": %g, \"eta_pairs\": %zu, \"eta_pairs_from\": "
              "\"fleet_trips\", \"setup_reps\": %d},\n",
              w.slot_period_ms, warmup, measured, readers, w.reader_ops_per_s,
              quiet_read_s, eta_pairs, w.setup_reps);
  std::printf("  \"config\": {\"bp_kernel\": \"%s\", \"bp_num_threads\": %u, "
              "\"bp_max_iters\": %u, \"bp_tol\": %g, "
              "\"trend_warm_start\": %s, \"serving_warm_start\": %s, "
              "\"sharding_num_shards\": %u, \"pool_workers\": %zu, "
              "\"ingest_queue_capacity\": %zu, \"publish_snapshots\": %s, "
              "\"products_enabled\": %s, \"dedup\": \"%s\"}\n",
              BpKernelName(c.trend.bp.kernel), c.trend.bp.num_threads,
              c.trend.bp.max_iters, c.trend.bp.tol,
              c.trend.warm_start ? "true" : "false",
              so.warm_start ? "true" : "false", c.sharding.num_shards,
              ThreadPool::Global().num_workers(), so.ingest_queue.capacity,
              so.publish_snapshots ? "true" : "false",
              so.products.enabled ? "true" : "false", DedupName(so.dedup));
  std::printf("}\n");
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string chrome_trace;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
      have_workload = true;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--chrome-trace") {
      a->chrome_trace = v;
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1 && a->seconds > 0.0;
}

// ---------------------------------------------------------------------------
// Per-layer breakdown (traced pass).
// ---------------------------------------------------------------------------

/// Registry values the traced pass differences over its measured window.
std::map<std::string, double> ReadCounters(obs::MetricsRegistry* reg) {
  std::map<std::string, double> c;
  auto ctr = [&](const char* key, const obs::MetricDef& def) {
    c[key] = static_cast<double>(reg->GetCounter(def)->Value());
  };
  ctr("bp_runs", obs::kBpRunsTotal);
  ctr("bp_converged", obs::kBpConvergedTotal);
  ctr("bp_sweeps", obs::kBpSweepsTotal);
  ctr("bp_updates", obs::kBpMessageUpdatesTotal);
  ctr("bp_simd_fallbacks", obs::kBpKernelSimdFallbacksTotal);
  ctr("pool_tasks", obs::kPoolTasksTotal);
  ctr("pool_steals", obs::kPoolStealsTotal);
  ctr("snapshot_read_retries", obs::kSnapshotReadRetriesTotal);
  c["snapshot_reads"] = static_cast<double>(
      reg->GetHistogram(obs::kSnapshotReadLatencyUs)->count());
  const obs::Histogram* wait = reg->GetHistogram(obs::kPoolTaskWaitUs);
  for (size_t b = 0; b <= wait->num_buckets(); ++b) {
    c["pool_wait_b" + std::to_string(b)] =
        static_cast<double>(wait->bucket_count(b));
  }
  return c;
}

/// Median of the pool task-wait histogram over the measured window, linearly
/// interpolated inside its bucket.
double PoolWaitP50Us(obs::MetricsRegistry* reg,
                     const std::map<std::string, double>& start,
                     const std::map<std::string, double>& end) {
  const obs::Histogram* h = reg->GetHistogram(obs::kPoolTaskWaitUs);
  std::vector<double> counts;
  double total = 0.0;
  for (size_t b = 0; b <= h->num_buckets(); ++b) {
    std::string key = "pool_wait_b" + std::to_string(b);
    counts.push_back(end.at(key) - start.at(key));
    total += counts.back();
  }
  if (total <= 0.0) return 0.0;
  double target = total / 2.0, seen = 0.0;
  for (size_t b = 0; b < counts.size(); ++b) {
    if (seen + counts[b] >= target && counts[b] > 0.0) {
      double lo = b == 0 ? 0.0 : h->bound(b - 1);
      double hi = b < h->num_buckets() ? h->bound(b) : lo;
      return lo + (hi - lo) * (target - seen) / counts[b];
    }
    seen += counts[b];
  }
  return h->bound(h->num_buckets() - 1);
}

struct SlotStages {
  double queue_wait = 0, ingest = 0, admission = 0, estimate = 0, bp = 0,
         exchange = 0, publish = 0, shard_max = 0;
  int sharded_rounds = 0;
};

std::map<uint64_t, SlotStages> StagesBySlot(
    const std::vector<obs::FlightEvent>& events) {
  std::map<uint64_t, std::vector<const obs::FlightEvent*>> by_slot;
  for (const obs::FlightEvent& e : events) by_slot[e.slot].push_back(&e);
  std::map<uint64_t, SlotStages> out;
  for (const auto& [slot, evs] : by_slot) {
    SlotStages& s = out[slot];
    for (const obs::FlightEvent* e : evs) {
      double ms = static_cast<double>(e->duration_ns) * 1e-6;
      switch (e->stage) {
        case obs::FlightStage::kQueueWait: s.queue_wait += ms; break;
        case obs::FlightStage::kIngest: s.ingest += ms; break;
        case obs::FlightStage::kAdmission: s.admission += ms; break;
        case obs::FlightStage::kEstimate: s.estimate += ms; break;
        case obs::FlightStage::kExchange: s.exchange += ms; break;
        case obs::FlightStage::kPublish: s.publish += ms; break;
        case obs::FlightStage::kShardSolve: break;
        case obs::FlightStage::kBpSolve: {
          s.bp += ms;
          // The slowest shard solve inside this barriered round.
          double slowest = -1.0;
          for (const obs::FlightEvent* c : evs) {
            if (c->stage == obs::FlightStage::kShardSolve &&
                c->start_ns >= e->start_ns &&
                c->start_ns <= e->start_ns + e->duration_ns) {
              slowest = std::max(slowest,
                                 static_cast<double>(c->duration_ns) * 1e-6);
            }
          }
          if (slowest >= 0.0) {
            s.shard_max += slowest;
            ++s.sharded_rounds;
          }
          break;
        }
      }
    }
  }
  return out;
}

std::vector<Metric> LayerMetrics(const PassResult& untraced,
                                 const PassResult& traced,
                                 const ReaderResult& reads, const Stack& ts,
                                 obs::MetricsRegistry* reg,
                                 const obs::FlightRecorder& rec,
                                 std::map<std::string, double> end,
                                 double train_s, double select_s) {
  std::map<std::string, double> start = traced.counters_at_start;
  auto delta = [&](const char* k) { return end[k] - start[k]; };
  std::map<uint64_t, SlotStages> stages = StagesBySlot(rec.Collect());
  std::vector<double> queue_wait, frontend_self, ingest, admission,
      monitor_self, estimate, estimator_self, aggregate, step2, bp, shard_max,
      exchange, publish, rounds;
  double flush_total = 0.0, attributed = 0.0, bp_total_s = 0.0;
  for (const SlotTiming& t : traced.timings) {
    const SlotStages& s = stages[t.slot];
    queue_wait.push_back(s.queue_wait - t.sched_wait_ms);
    frontend_self.push_back(t.flush_ms - s.ingest);
    ingest.push_back(s.ingest);
    admission.push_back(s.admission);
    monitor_self.push_back(s.ingest - s.admission - s.estimate - s.publish);
    estimate.push_back(s.estimate);
    estimator_self.push_back(s.estimate - s.bp - s.exchange - t.aggregate_ms -
                             t.step2_ms);
    aggregate.push_back(t.aggregate_ms);
    step2.push_back(t.step2_ms);
    bp.push_back(s.bp);
    shard_max.push_back(s.shard_max);
    exchange.push_back(s.exchange);
    publish.push_back(s.publish * 1e3);
    rounds.push_back(s.sharded_rounds);
    flush_total += t.flush_ms;
    attributed += s.admission + s.bp + s.exchange + s.publish;
    bp_total_s += s.bp * 1e-3;
  }
  const double slots = static_cast<double>(traced.timings.size());
  auto mean = [](const std::vector<double>& v) {
    double acc = 0.0;
    for (double x : v) acc += x;
    return v.empty() ? 0.0 : acc / static_cast<double>(v.size());
  };
  double cap_untraced = Capacity(untraced);
  double cap_traced = Capacity(traced);
  double hits = static_cast<double>(reads.eta_hit_us.size());
  double misses = static_cast<double>(reads.eta_miss_us.size());
  IngestStats is = ts.frontend->stats();
  ServingStats ss = ts.session->stats();
  return {
      {"ingest.offer_us", Median(traced.offer_us), "us"},
      {"ingest.queue_wait_ms", Median(queue_wait), "ms"},
      {"ingest.frontend_self_ms", Median(frontend_self), "ms"},
      {"ingest.stragglers", static_cast<double>(is.stragglers), "count"},
      {"ingest.backpressure_rejects",
       static_cast<double>(is.rejected_backpressure), "count"},
      {"serving.ingest_ms", Median(ingest), "ms"},
      {"serving.admission_ms", Median(admission), "ms"},
      {"serving.monitor_self_ms", Median(monitor_self), "ms"},
      {"serving.obs_deduplicated",
       static_cast<double>(ss.observations_deduplicated), "count"},
      {"serving.carried_forward", static_cast<double>(ss.slots_carried_forward),
       "count"},
      {"serving.rejected_batches", static_cast<double>(ss.rejected_batches),
       "count"},
      {"estimator.estimate_ms", Median(estimate), "ms"},
      {"estimator.self_ms", Median(estimator_self), "ms"},
      {"speed.aggregate_ms", Median(aggregate), "ms"},
      {"speed.step2_ms", Median(step2), "ms"},
      {"trend.bp_solve_ms", Median(bp), "ms"},
      {"trend.bp_sweeps_per_slot", delta("bp_sweeps") / slots, "count"},
      {"trend.bp_updates_per_s",
       bp_total_s > 0.0 ? delta("bp_updates") / bp_total_s : 0.0, "1/s"},
      {"trend.bp_converged_ratio",
       delta("bp_runs") > 0.0 ? delta("bp_converged") / delta("bp_runs") : 0.0,
       "ratio"},
      {"trend.simd_fallbacks", delta("bp_simd_fallbacks"), "count"},
      {"shard.solve_max_ms", Median(shard_max), "ms"},
      {"shard.exchange_ms", Median(exchange), "ms"},
      {"shard.rounds_per_slot", mean(rounds), "count"},
      {"pool.tasks_per_slot", delta("pool_tasks") / slots, "count"},
      {"pool.task_wait_us", PoolWaitP50Us(reg, start, end), "us"},
      {"pool.steals_per_slot", delta("pool_steals") / slots, "count"},
      {"snapshot.publish_us", Median(publish), "us"},
      {"snapshot.read_retry_ratio",
       delta("snapshot_reads") > 0.0
           ? delta("snapshot_read_retries") / delta("snapshot_reads")
           : 0.0,
       "ratio"},
      {"product.poll_us", Median(reads.poll_us), "us"},
      {"product.eta_hit_us", Median(reads.eta_hit_us), "us"},
      {"product.eta_miss_us", Median(reads.eta_miss_us), "us"},
      {"product.eta_hit_ratio",
       hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio"},
      {"product.road_speed_us", Median(reads.road_speed_us), "us"},
      {"setup.train_s", train_s, "s"},
      {"setup.select_seeds_s", select_s, "s"},
      {"obs.trace_overhead_pct",
       100.0 * (cap_untraced - cap_traced) / cap_untraced, "%"},
      {"obs.unattributed_frac",
       flush_total > 0.0 ? 1.0 - attributed / flush_total : 0.0, "ratio"},
      {"obs.flight_dropped", static_cast<double>(rec.dropped()), "count"},
      {"gen.lateness_ms", Quantile(traced.gen_lateness_ms, 0.95), "ms"},
  };
}

// ---------------------------------------------------------------------------
// Running a workload.
// ---------------------------------------------------------------------------

/// Concurrent readers draw their Eta pairs from this many fleet trips.
constexpr size_t kTripPool = 16384;

struct RunInputs {
  size_t warmup = 0;
  double quiet_read_s = 0.0;  ///< length of the after-stream read phase
  SlotStream slots;
  std::vector<OdPair> eta_pairs;                  ///< what Eta draws from
  std::vector<std::vector<ReaderOp>> reader_ops;  ///< concurrent readers
  /// After-stream reader, in segments that each query a pair at most once.
  std::vector<std::vector<ReaderOp>> quiet_ops;
};

Result<RunInputs> MakeInputs(const Dataset& ds, const WorkloadSpec& w,
                             const std::vector<RoadId>& seeds, int readers,
                             double seconds, uint64_t seed) {
  RunInputs in;
  const double period_s = w.slot_period_ms * 1e-3;
  if (readers == 0) {
    in.quiet_read_s = seconds * w.quiet_read_share;
    seconds -= in.quiet_read_s;
  }
  in.warmup =
      std::max<size_t>(3, static_cast<size_t>(std::ceil(0.5 / period_s)));
  size_t measured =
      std::max<size_t>(1, static_cast<size_t>(std::floor(seconds / period_s)));
  Rng rng(seed, /*stream=*/0x5eed);
  in.slots = SlotStream(&ds, &seeds, w.reports_per_seed, seed,
                        in.warmup + measured);
  size_t ops = static_cast<size_t>(w.reader_ops_per_s *
                                   static_cast<double>(measured) * period_s) +
               1;
  const TripGeneratorOptions fleet = CityOptions(w).fleet.trips;
  if (readers > 0) {
    // Concurrent readers draw Eta pairs by the workload seed from a fixed
    // pool of fleet trips, so hot routes (cache hits) and cold ones
    // (misses) keep the city's popularity on every seed.
    in.eta_pairs = FleetPairs(ds.net, fleet, kTripPool, false);
    if (in.eta_pairs.empty()) return Status::NotFound("no routable trips");
    for (int r = 0; r < readers; ++r) {
      in.reader_ops.push_back(MakeReaderOps(ds.net, ops, &rng, [&] {
        return in.eta_pairs[rng.NextIndex(in.eta_pairs.size())];
      }));
    }
  } else {
    // The read phase on the idle writer cycles through distinct fleet
    // trips in seed order. With the snapshot version fixed a repeated pair
    // would be a cache hit, and hits are what cityb_read_heavy measures, so
    // each pass over the pairs is a segment read through a fresh products
    // instance.
    size_t quiet =
        static_cast<size_t>(w.reader_ops_per_s * in.quiet_read_s) + 1;
    in.eta_pairs = FleetPairs(ds.net, fleet, quiet, true);
    if (in.eta_pairs.empty()) return Status::NotFound("no routable trips");
    rng.Shuffle(&in.eta_pairs);
    size_t next = 0;
    std::vector<ReaderOp> stream = MakeReaderOps(ds.net, quiet, &rng, [&] {
      return in.eta_pairs[next++ % in.eta_pairs.size()];
    });
    size_t etas = 0;
    in.quiet_ops.emplace_back();
    for (const ReaderOp& op : stream) {
      if (op.type == OpType::kEta && etas++ == in.eta_pairs.size()) {
        in.quiet_ops.emplace_back();
        etas = 1;
      }
      in.quiet_ops.back().push_back(op);
    }
  }
  return in;
}

/// Runs one stream pass plus, without concurrent readers, the after-stream
/// read phase.
PassResult RunStream(const Dataset& ds, const WorkloadSpec& w, Stack* s,
                     const RunInputs& in, bool traced,
                     obs::MetricsRegistry* reg, const CounterProbe& probe) {
  ServingCpuPin pin;
  PassResult p = RunPass(ds, w, s, in.slots, in.warmup, in.reader_ops, traced,
                         probe);
  if (in.reader_ops.empty()) {
    Status st = QuietReads(ds, w, s, in.quiet_ops, reg, &p.readers);
    if (!st.ok()) p.failures.push_back("read phase: " + st.ToString());
  }
  for (const std::string& f : p.readers.failures) p.failures.push_back(f);
  return p;
}

int RunWorkload(const WorkloadSpec& w, const Args& args) {
  PreciseSleeps();
  // The pool's workers and the usable CPU list must exist before the bench
  // pins a thread (PinToCpu).
  ThreadPool::Global();
  UsableCpuList();
  const double calib_start_ms = HostCalibrationMs();
  int64_t g0 = NowNs();
  auto city = BuildCity(w);
  if (!city.ok()) {
    std::fprintf(stderr, "dataset: %s\n", city.status().ToString().c_str());
    return 1;
  }
  const Dataset ds = std::move(city).value();
  const double gen_s = (NowNs() - g0) * 1e-9;

  // Generator and serving threads plus concurrent readers stay within the
  // usable CPUs.
  const int readers =
      w.concurrent_readers == 0
          ? 0
          : std::clamp(static_cast<int>(BenchUsableCpus()) - 2, 1,
                       w.concurrent_readers);

  Stack stack;
  std::vector<double> setup_s, train_s, select_s;
  {
    ServingCpuPin pin;
    for (int r = 0; r < w.setup_reps; ++r) {
      auto t = SetUp(ds, w, readers, &stack);
      if (!t.ok()) {
        std::fprintf(stderr, "setup: %s\n", t.status().ToString().c_str());
        return 1;
      }
      setup_s.push_back(t->total_s);
      train_s.push_back(t->train_s);
      select_s.push_back(t->select_s);
    }
  }
#if defined(__GLIBC__)
  // Hands the set-ups' freed memory back to the system, so the stream's
  // allocations meet the same resident baseline on every run and
  // peak_rss_mb does not depend on how set-up's frees happened to fragment.
  malloc_trim(0);
#endif

  const double pass_seconds = args.trace ? args.seconds / 2.0 : args.seconds;
  auto inputs =
      MakeInputs(ds, w, stack.seeds, readers, pass_seconds, args.seed);
  if (!inputs.ok()) {
    std::fprintf(stderr, "inputs: %s\n", inputs.status().ToString().c_str());
    return 1;
  }
  const RunInputs in = std::move(inputs).value();
  PrintStamp(w, args.seed, ds, gen_s, stack, readers, in.warmup,
             in.slots.size() - in.warmup, in.quiet_read_s,
             in.eta_pairs.size());

  PassResult p = RunStream(ds, w, &stack, in, false, nullptr, nullptr);
  std::vector<std::string> failures = p.failures;
  uint64_t attempted = p.measured_slots + p.readers.attempted;
  uint64_t failed = p.slots_failed + p.readers.errors;
  std::vector<Metric> metrics;

  if (!args.trace) {
    double scored = static_cast<double>(p.scored);
    double mape = p.ape_sum / scored;
    double err = static_cast<double>(p.err_count) / scored;
    double hist_err = static_cast<double>(p.hist_err_count) / scored;
    double reads =
        static_cast<double>(std::max<uint64_t>(1, p.readers.attempted));
    const std::vector<double>& fr = p.freshness_ms;
    const std::vector<double>& eta = p.readers.eta_due_us;
    // Freshness tails, for inspection: on a host that steals CPU in
    // millisecond bursts they swing several-fold between identical runs,
    // so the gated writer tail is the service time's (slot_service_p90_ms).
    std::printf("{\"detail\": {\"freshness_samples\": %zu, "
                "\"freshness_p75_ms\": %.6g, "
                "\"freshness_p95_ms\": %.6g, \"freshness_p99_ms\": %.6g, "
                "\"eta_samples\": %zu, \"eta_p95_us\": %.6g, "
                "\"eta_p99_us\": %.6g, \"eta_repriced\": %llu, "
                "\"hist_error_rate\": %.6f, \"scored_estimates\": %llu, "
                "\"gen_lateness_p95_ms\": %.4f, "
                "\"host_calib_ms\": [%.4f, %.4f]}}\n",
                fr.size(), Quantile(fr, 0.75), Quantile(fr, 0.95),
                Quantile(fr, 0.99), eta.size(),
                Quantile(eta, 0.95), Quantile(eta, 0.99),
                static_cast<unsigned long long>(p.readers.repriced), hist_err,
                static_cast<unsigned long long>(p.scored),
                Quantile(p.gen_lateness_ms, 0.95), calib_start_ms,
                HostCalibrationMs());
    metrics = {
        {"freshness_p50_ms", Median(fr), "ms"},
        {"slot_service_p90_ms", Quantile(BusyMs(p), 0.9), "ms"},
        {"capacity_slots_per_s", Capacity(p), "slots/s"},
        {"slot_on_time_ratio",
         static_cast<double>(p.on_time) / static_cast<double>(p.measured_slots),
         "ratio"},
        {"mape", mape, "ratio"},
        {"error_rate", err, "ratio"},
        {"err_reduction_vs_hist", 1.0 - err / hist_err, "ratio"},
        {"eta_p50_us", Median(eta), "us"},
        {"eta_p75_us", Quantile(eta, 0.75), "us"},
        {"read_ok_ratio",
         1.0 - static_cast<double>(p.readers.errors) / reads, "ratio"},
        {"setup_s", Median(setup_s), "s"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
    };
  } else {
    // Traced pass: a second estimator over copies of the trained components,
    // with a registry and a flight recorder attached to everything.
    obs::MetricsRegistry reg;
    size_t ring = 64;
    while (ring < 8 * in.slots.size() + 64) ring *= 2;
    obs::FlightRecorder rec(ring);
    {
      Stack ts;
      PipelineConfig cfg = stack.est->config();
      cfg.observability.metrics = &reg;
      cfg.observability.instrument_thread_pool = true;
      auto est = TrafficSpeedEstimator::FromComponents(
          &ds.net, &ds.history, cfg, stack.est->correlation_graph(),
          stack.est->influence(), stack.est->speed_model());
      Status st = est.status();
      if (est.ok()) {
        ts.est =
            std::make_unique<TrafficSpeedEstimator>(std::move(est).value());
        ts.seeds = stack.seeds;
        st = AttachServing(ds, w, readers, {&reg, &rec}, &ts);
      }
      if (!st.ok()) {
        ThreadPool::Global().AttachMetrics(nullptr);
        std::fprintf(stderr, "traced setup: %s\n", st.ToString().c_str());
        return 1;
      }
      PassResult t = RunStream(ds, w, &ts, in, true, &reg,
                               [&reg] { return ReadCounters(&reg); });
      std::map<std::string, double> end = ReadCounters(&reg);
      ThreadPool::Global().AttachMetrics(nullptr);
      failures.insert(failures.end(), t.failures.begin(), t.failures.end());
      attempted += t.measured_slots + t.readers.attempted;
      failed += t.slots_failed + t.readers.errors;
      metrics = LayerMetrics(p, t, t.readers, ts, &reg, rec, end,
                             Median(train_s), Median(select_s));
      if (!args.chrome_trace.empty()) {
        std::ofstream out(args.chrome_trace);
        out << obs::ToChromeTraceJson(rec);
        if (!out) failures.push_back("cannot write " + args.chrome_trace);
      }
    }
  }

  for (const std::string& f : failures) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
  }
  const bool correct = failures.empty();
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace trendspeed

int main(int argc, char** argv) {
  using namespace trendspeed;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: serving_bench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--chrome-trace <file>]\n");
    return 2;
  }
  WorkloadSpec w = SpecFor(args.workload);
  if (w.name.empty()) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  return RunWorkload(w, args);
}
