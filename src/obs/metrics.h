// System-wide metrics registry: per-executor sharded counters, gauges, and
// histograms behind dense MetricId handles.
//
// Pattern (same interning discipline as the reactor/proc/table handles):
// every metric is registered ONCE at bootstrap — before any transaction —
// into a dense slot table; Freeze() then materializes one slot array per
// writer shard (one shard per executor plus one shared shard for client
// threads, writers, and collectors). Hot-path updates are:
//
//  * single-writer shards (an executor updating its own shard): a relaxed
//    64-bit load + store — no RMW, no contention, no allocation. This is
//    what keeps the warmed point-transaction path at exactly 0 allocs/txn
//    and within noise of the uninstrumented build.
//  * the shared shard (multi-writer): relaxed fetch_add.
//
// Every slot is a 64-bit atomic, so a concurrent Collect() never tears a
// value: it reads each slot with a relaxed load and sums across shards —
// a consistent snapshot in the monotonic-counter sense (the sum is between
// the true values at the start and end of the sweep).
//
// Two snapshot sources combine in Collect():
//  1. registered sharded metrics (the hot-path slots described above), and
//  2. sample collectors — callbacks appending samples computed at snapshot
//     time from subsystems that already keep their own atomic stats
//     (transport counters, mailbox depths, epoch age, durability
//     watermarks, per-(reactor, proc) outcome tables). Collectors run on
//     the snapshotting thread only; they cost nothing per transaction.
//
// Naming scheme (see ROADMAP "Observability"): reactdb_<subsystem>_<what>
// with Prometheus conventions — `_total` for counters, an explicit unit
// suffix (`_us`, `_bytes`) for sized values, snake_case label keys.

#ifndef REACTDB_OBS_METRICS_H_
#define REACTDB_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/reactor/symbol.h"
#include "src/util/histogram.h"

namespace reactdb {
namespace obs {

/// Dense handle of a registered metric. Family registrations return the
/// handle of member 0; member i is `MetricId::Offset(base, i)`.
struct MetricId {
  static constexpr uint32_t kInvalid = 0xffffffffu;
  uint32_t value = kInvalid;

  bool valid() const { return value != kInvalid; }
  static MetricId Offset(MetricId base, uint32_t i) {
    return MetricId{base.value + i};
  }
};

enum class MetricType : uint8_t { kCounter, kGauge, kHistogram };

/// How gauge shards combine in a snapshot: occupancy-style gauges sum
/// (mailbox depth contributions), high-water marks take the max (arena
/// reserved bytes — each executor reports its own peak).
enum class Aggregation : uint8_t { kSum, kMax };

using Labels = std::vector<std::pair<std::string, std::string>>;

/// One metric series in a snapshot.
struct MetricSample {
  std::string name;
  std::string help;
  MetricType type = MetricType::kCounter;
  Labels labels;
  /// Counter/gauge value (counters are non-negative; gauges signed).
  double value = 0;
  /// Histogram payload (type == kHistogram only).
  Histogram hist;
};

/// A consistent point-in-time view of every metric, dumpable as Prometheus
/// exposition text or JSON. See Database::Stats().
struct StatsSnapshot {
  std::vector<MetricSample> samples;

  std::string ToPrometheus() const;
  std::string ToJson() const;

  /// First sample matching `name` whose labels contain every pair in
  /// `labels` (empty = any). Null when absent. The pointer lives as long as
  /// the snapshot, so finding in a temporary does not compile.
  const MetricSample* Find(std::string_view name,
                           const Labels& labels = {}) const&;
  const MetricSample* Find(std::string_view name,
                           const Labels& labels = {}) const&& = delete;
  /// Find().value, or 0 when absent.
  double Value(std::string_view name, const Labels& labels = {}) const;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // --- Registration (bootstrap, single-threaded, before Freeze) -------------

  MetricId Counter(std::string name, std::string help, Labels labels = {});
  MetricId Gauge(std::string name, std::string help, Labels labels = {},
                 Aggregation agg = Aggregation::kSum);
  MetricId Histo(std::string name, std::string help, Labels labels = {});
  /// N counters sharing one name, one per member label set (e.g. abort
  /// reasons). Returns the handle of member 0; members are contiguous.
  MetricId CounterFamily(std::string name, std::string help,
                         std::vector<Labels> members);

  /// Materializes the per-shard slot arrays: one single-writer shard per
  /// executor (ids 0..num_executor_shards-1) plus the multi-writer shared
  /// shard. No registration after this; updates before it are invalid.
  void Freeze(size_t num_executor_shards);
  bool frozen() const { return !shards_.empty(); }
  /// Shard id of the multi-writer shared shard (clients, log writers,
  /// collectors). Only the *Shared update forms may target it.
  uint32_t shared_shard() const {
    return static_cast<uint32_t>(shards_.size() - 1);
  }
  size_t num_shards() const { return shards_.size(); }

  // --- Hot-path updates -----------------------------------------------------
  // The plain forms are single-writer: `shard` must be updated only by its
  // owning executor (the discipline arenas already follow). They compile to
  // a relaxed 64-bit load + store. The *Shared forms are relaxed RMW and
  // may be called from any thread, but only against shared_shard().

  void Add(uint32_t shard, MetricId id, uint64_t delta = 1) {
    std::atomic<uint64_t>& cell = shards_[shard][slot_of_[id.value]];
    cell.store(cell.load(std::memory_order_relaxed) + delta,
               std::memory_order_relaxed);
  }
  void GaugeSet(uint32_t shard, MetricId id, int64_t value) {
    shards_[shard][slot_of_[id.value]].store(static_cast<uint64_t>(value),
                                             std::memory_order_relaxed);
  }
  /// High-water update: keeps the max of `value` and the current slot.
  void GaugeMax(uint32_t shard, MetricId id, int64_t value) {
    std::atomic<uint64_t>& cell = shards_[shard][slot_of_[id.value]];
    if (value > static_cast<int64_t>(cell.load(std::memory_order_relaxed))) {
      cell.store(static_cast<uint64_t>(value), std::memory_order_relaxed);
    }
  }
  /// Records a sample into the shard's histogram slots: one bucket bump
  /// plus an exact sum update (fixed-point, Histogram::kUnitsPerUs).
  void Observe(uint32_t shard, MetricId id, double value_us) {
    uint32_t base = slot_of_[id.value];
    std::atomic<uint64_t>* cells = &shards_[shard][base];
    size_t bucket = Histogram::BucketIndex(value_us);
    cells[bucket].store(cells[bucket].load(std::memory_order_relaxed) + 1,
                        std::memory_order_relaxed);
    std::atomic<uint64_t>& sum = cells[Histogram::kNumBuckets];
    sum.store(sum.load(std::memory_order_relaxed) + ToUnits(value_us),
              std::memory_order_relaxed);
  }

  // The *Shared forms tolerate an unfrozen registry (no-op): client layers
  // may touch them against a runtime that never bootstrapped.
  void AddShared(MetricId id, uint64_t delta = 1) {
    if (!frozen()) return;
    shards_[shared_shard()][slot_of_[id.value]].fetch_add(
        delta, std::memory_order_relaxed);
  }
  void GaugeAddShared(MetricId id, int64_t delta) {
    if (!frozen()) return;
    shards_[shared_shard()][slot_of_[id.value]].fetch_add(
        static_cast<uint64_t>(delta), std::memory_order_relaxed);
  }
  void GaugeSetShared(MetricId id, int64_t value) {
    if (!frozen()) return;
    shards_[shared_shard()][slot_of_[id.value]].store(
        static_cast<uint64_t>(value), std::memory_order_relaxed);
  }
  void ObserveShared(MetricId id, double value_us) {
    if (!frozen()) return;
    uint32_t base = slot_of_[id.value];
    std::atomic<uint64_t>* cells = &shards_[shared_shard()][base];
    cells[Histogram::BucketIndex(value_us)].fetch_add(
        1, std::memory_order_relaxed);
    cells[Histogram::kNumBuckets].fetch_add(ToUnits(value_us),
                                            std::memory_order_relaxed);
  }

  // --- Snapshot -------------------------------------------------------------

  /// Appends snapshot-time samples (subsystems with their own atomic stats:
  /// transport, durability, epochs, per-proc outcome tables). Runs inside
  /// Collect() on the snapshotting thread.
  void AddSampleCollector(std::function<void(std::vector<MetricSample>*)> fn) {
    collectors_.push_back(std::move(fn));
  }

  /// Sums every registered metric over its shards (relaxed 64-bit loads —
  /// no slot ever tears) and runs the sample collectors.
  StatsSnapshot Collect() const;

 private:
  struct Def {
    std::string name;
    std::string help;
    MetricType type;
    Aggregation agg;
    Labels labels;
    uint32_t slot;       // base slot in every shard
    uint32_t num_slots;  // 1, or kNumBuckets + 1 for histograms
  };

  static uint64_t ToUnits(double value_us) {
    return value_us <= 0
               ? 0
               : static_cast<uint64_t>(value_us * Histogram::kUnitsPerUs + 0.5);
  }

  MetricId Register(std::string name, std::string help, MetricType type,
                    Aggregation agg, Labels labels, uint32_t num_slots);

  std::vector<Def> defs_;
  /// MetricId -> base slot (dense; ids are indexes into defs_).
  std::vector<uint32_t> slot_of_;
  uint32_t next_slot_ = 0;
  /// shards_[s][slot]: materialized by Freeze. unique_ptr<atomic[]> rather
  /// than vector so shards never move after Freeze.
  std::vector<std::unique_ptr<std::atomic<uint64_t>[]>> shards_;
  std::vector<std::function<void(std::vector<MetricSample>*)>> collectors_;
};

/// Commit/abort counters broken down by (ReactorId, ProcId).
///
/// Kept outside the shard tables on purpose: the cross product of reactors
/// and procedures can be large (thousands of reactors), so it gets three
/// dense 64-bit cells per (reactor, proc) pair — committed, aborted, and
/// deadline-expired (a subset of aborted) — bumped with one relaxed
/// fetch_add (roots of one reactor may finalize on different executors
/// under round-robin routing) — and label strings are built lazily at
/// snapshot time, only for pairs that actually executed.
class ProcOutcomeTable {
 public:
  static constexpr size_t kCells = 3;  // committed / aborted / deadline

  /// `procs_per_reactor[r]` = number of procedures of reactor r's type.
  /// Called once at bootstrap.
  void Init(const std::vector<uint32_t>& procs_per_reactor) {
    offsets_.resize(procs_per_reactor.size() + 1);
    size_t total = 0;
    for (size_t r = 0; r < procs_per_reactor.size(); ++r) {
      offsets_[r] = total;
      total += kCells * procs_per_reactor[r];
    }
    offsets_[procs_per_reactor.size()] = total;
    cells_ = std::make_unique<std::atomic<uint64_t>[]>(total);
  }

  void Bump(ReactorId reactor, ProcId proc, bool committed) {
    size_t idx =
        offsets_[reactor.value] + kCells * proc.value + (committed ? 0 : 1);
    cells_[idx].fetch_add(1, std::memory_order_relaxed);
  }

  /// An abort whose cause was deadline expiry (counted in addition to the
  /// plain aborted cell Bump fills).
  void BumpDeadline(ReactorId reactor, ProcId proc) {
    size_t idx = offsets_[reactor.value] + kCells * proc.value + 2;
    cells_[idx].fetch_add(1, std::memory_order_relaxed);
  }

  uint64_t committed(ReactorId r, ProcId p) const {
    return cells_[offsets_[r.value] + kCells * p.value].load(
        std::memory_order_relaxed);
  }
  uint64_t aborted(ReactorId r, ProcId p) const {
    return cells_[offsets_[r.value] + kCells * p.value + 1].load(
        std::memory_order_relaxed);
  }
  uint64_t deadline_exceeded(ReactorId r, ProcId p) const {
    return cells_[offsets_[r.value] + kCells * p.value + 2].load(
        std::memory_order_relaxed);
  }
  size_t num_reactors() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  size_t num_procs(size_t reactor) const {
    return (offsets_[reactor + 1] - offsets_[reactor]) / kCells;
  }
  bool initialized() const { return cells_ != nullptr; }

 private:
  std::vector<size_t> offsets_;
  std::unique_ptr<std::atomic<uint64_t>[]> cells_;
};

}  // namespace obs
}  // namespace reactdb

#endif  // REACTDB_OBS_METRICS_H_
