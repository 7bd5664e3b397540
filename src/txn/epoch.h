// Epoch management and epoch-based memory reclamation.
//
// Silo's OCC tags commit TIDs with a global epoch number. ReactDB uses the
// epoch for two purposes:
//  * commit TID generation (high bits of the TID word), and
//  * safe reclamation of replaced row versions and of Records whose
//    tombstones the B-tree unlinked: either, retired in epoch e, may still
//    be referenced by concurrent readers, and is reused or freed only once
//    every registered executor has moved past e + 1.
//
// In the real-thread runtime a ticker thread advances the epoch every few
// milliseconds; in the simulated runtime (and in tests) the epoch is
// advanced explicitly.

#ifndef REACTDB_TXN_EPOCH_H_
#define REACTDB_TXN_EPOCH_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "src/storage/record.h"
#include "src/util/value.h"

namespace reactdb {

class EpochManager {
 public:
  static constexpr uint64_t kQuiescent = ~0ULL;

  EpochManager();
  ~EpochManager();

  EpochManager(const EpochManager&) = delete;
  EpochManager& operator=(const EpochManager&) = delete;

  /// Current global epoch.
  uint64_t current() const {
    return global_epoch_.load(std::memory_order_acquire);
  }

  /// Advances the global epoch by one and opportunistically frees retired
  /// rows that no executor can still reference.
  void Advance();

  /// Hook invoked (with the new epoch) after every Advance/AdvanceTo, on
  /// the advancing context. Install before transactions start (Bootstrap);
  /// the callback must be cheap and thread-safe — the flight recorder uses
  /// it to stamp kEpochAdvance events.
  void set_on_advance(std::function<void(uint64_t)> fn) {
    on_advance_ = std::move(fn);
  }

  /// Jumps the global epoch forward to `epoch` (no-op when already past
  /// it) and collects. Used to restore the epoch after recovery and by the
  /// TID wraparound regression tests; the epoch only ever moves forward, so
  /// commit TIDs stay monotone. The TID word's epoch field is 32 bits
  /// (TidWord::kEpochBits); jumping past 2^32 wraps the field — records
  /// stay readable (Make masks the epoch away from the status bits) but
  /// TID monotonicity restarts, so a deployment must not run that long
  /// without re-seeding TIDs.
  void AdvanceTo(uint64_t epoch);

  /// Registers an executor; the returned slot id is passed to
  /// EnterEpoch/LeaveEpoch. Must be called before transactions start.
  size_t RegisterSlot();

  /// Marks the slot as executing inside the current epoch (transaction
  /// begin) and returns that epoch.
  uint64_t EnterEpoch(size_t slot);
  /// Marks the slot quiescent (transaction end).
  void LeaveEpoch(size_t slot);

  /// Smallest epoch any registered executor may still be executing in
  /// (= current() when every slot is quiescent). Commit records of any
  /// smaller epoch are fully installed *and appended to their log shard*
  /// (the append happens before the committing frame unpins its slot), so
  /// this is the seal the durability writers use: after collecting every
  /// shard, all records with epoch < min_active_epoch() are in hand and
  /// epoch min_active_epoch() - 1 may become durable once fsynced.
  uint64_t min_active_epoch() const { return MinActiveEpoch(); }

  /// Queues a replaced row version for deferred deletion.
  void Retire(const Row* row);

  /// Commit-install row exchange: retires `replaced` (null for inserts over
  /// tombstones) and takes a recycled Row in a single lock acquisition —
  /// the install loop runs while the committer holds its write-set locks,
  /// so lock traffic here is on the critical section. Reclaimed rows are
  /// recycled (warm capacity) instead of freed, so a steady-state install
  /// performs no heap allocation.
  Row* ExchangeRow(const Row* replaced);

  size_t row_pool_size() const;

  /// Queues a Record that BTree::Unlink removed from its tree; it is
  /// deleted once no executor can still hold a pointer to it.
  void RetireRecord(Record* rec);
  size_t retired_record_count() const;

  /// Starts/stops a background thread advancing the epoch periodically
  /// (real-thread runtime only).
  void StartTicker(uint64_t interval_ms);
  void StopTicker();

  /// Frees every retired row regardless of epochs. Only safe when no
  /// transactions are running (shutdown / tests).
  void DrainAll();

  size_t retired_count() const;

 private:
  uint64_t MinActiveEpoch() const;
  void CollectLocked(uint64_t min_active);

  std::atomic<uint64_t> global_epoch_{1};
  std::function<void(uint64_t)> on_advance_;

  mutable std::mutex slots_mu_;
  std::vector<std::unique_ptr<std::atomic<uint64_t>>> slots_;

  /// FIFO of (retire epoch, pointer), oldest first. A ring over a vector
  /// rather than a deque: steady-state push/pop cycles touch no allocator
  /// (deque chunk churn would otherwise break the zero-allocation hot path).
  template <typename T>
  class RetiredRing {
   public:
    void push_back(uint64_t epoch, T* ptr) {
      if (count_ == buf_.size()) Grow();
      buf_[(head_ + count_) & (buf_.size() - 1)] = {epoch, ptr};
      ++count_;
    }
    const std::pair<uint64_t, T*>& front() const { return buf_[head_]; }
    void pop_front() {
      head_ = (head_ + 1) & (buf_.size() - 1);
      --count_;
    }
    bool empty() const { return count_ == 0; }
    size_t size() const { return count_; }

   private:
    void Grow() {
      size_t new_cap = buf_.empty() ? 1024 : buf_.size() * 2;
      std::vector<std::pair<uint64_t, T*>> fresh(new_cap);
      for (size_t i = 0; i < count_; ++i) {
        fresh[i] = buf_[(head_ + i) & (buf_.size() - 1)];
      }
      buf_ = std::move(fresh);
      head_ = 0;
    }

    std::vector<std::pair<uint64_t, T*>> buf_;  // size is a power of 2
    size_t head_ = 0;
    size_t count_ = 0;
  };

  mutable std::mutex retire_mu_;
  RetiredRing<const Row> retired_;
  RetiredRing<Record> retired_records_;
  /// Recycled rows awaiting reuse by ExchangeRow. Bounded; overflow frees.
  static constexpr size_t kRowPoolCap = 4096;
  std::vector<Row*> row_pool_;

  std::thread ticker_;
  std::mutex ticker_mu_;
  std::condition_variable ticker_cv_;
  bool ticker_stop_ = false;
  bool ticker_running_ = false;
};

}  // namespace reactdb

#endif  // REACTDB_TXN_EPOCH_H_
