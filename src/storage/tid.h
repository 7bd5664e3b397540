// Silo-style transaction-id (TID) words.
//
// Every record carries a 64-bit TID word combining status bits with a
// version number (paper Section 3.2.1 reuses Silo's OCC [53]):
//
//   bit 63        lock bit (held during commit install)
//   bit 62        absent bit (record logically not present: uncommitted
//                 insert or committed delete tombstone)
//   bits 30..61   epoch number (32 bits)
//   bits  0..29   in-epoch sequence number (30 bits)
//
// The split used to be 22 epoch bits / 40 sequence bits; past ~4.19M epochs
// (about 11.6 hours at the thread runtime's 10 ms tick) Make() overflowed
// the epoch into the absent bit and every committed record read as deleted.
// 32 epoch bits last ~497 days of 10 ms ticks, 30 sequence bits still allow
// 10^9 commits per executor per epoch (an epoch is tens of milliseconds or
// 64 roots, so the sequence field cannot saturate in practice — and if it
// ever did, the +1 TID arithmetic carries into the epoch field, which keeps
// TIDs monotone instead of corrupting status bits). Make() additionally
// masks the epoch so that even a wrapped epoch can never touch the
// lock/absent bits: TID monotonicity would restart, but records stay
// readable. TID words are manipulated only through the helpers below.
//
// One word is reserved: kUnlinkedWord (absent bit plus every TID bit) marks
// a record whose tombstone the B-tree has physically unlinked. No commit
// produces it (it would need epoch 2^32-1 with a saturated sequence), it
// reads as absent, and validation aborts any transaction that observes or
// locks it.

#ifndef REACTDB_STORAGE_TID_H_
#define REACTDB_STORAGE_TID_H_

#include <atomic>
#include <cstdint>

namespace reactdb {

class TidWord {
 public:
  static constexpr uint64_t kLockBit = 1ULL << 63;
  static constexpr uint64_t kAbsentBit = 1ULL << 62;
  static constexpr uint64_t kEpochShift = 30;
  static constexpr uint64_t kEpochBits = 32;
  static constexpr uint64_t kEpochMask = (1ULL << kEpochBits) - 1;
  static constexpr uint64_t kSeqMask = (1ULL << kEpochShift) - 1;
  static constexpr uint64_t kTidMask = ~(kLockBit | kAbsentBit);
  static constexpr uint64_t kUnlinkedWord = kAbsentBit | kTidMask;

  static bool IsLocked(uint64_t word) { return (word & kLockBit) != 0; }
  static bool IsAbsent(uint64_t word) { return (word & kAbsentBit) != 0; }
  /// True for the unlinked word, locked or not.
  static bool IsUnlinked(uint64_t word) {
    return (word & ~kLockBit) == kUnlinkedWord;
  }
  /// Version (epoch+sequence) without status bits.
  static uint64_t Tid(uint64_t word) { return word & kTidMask; }
  static uint64_t Epoch(uint64_t word) {
    return (word & kTidMask) >> kEpochShift;
  }
  static uint64_t Seq(uint64_t word) { return word & kSeqMask; }
  static uint64_t Make(uint64_t epoch, uint64_t seq) {
    return ((epoch & kEpochMask) << kEpochShift) | (seq & kSeqMask);
  }
  static uint64_t WithLock(uint64_t word) { return word | kLockBit; }
  static uint64_t WithoutLock(uint64_t word) { return word & ~kLockBit; }
  static uint64_t WithAbsent(uint64_t word) { return word | kAbsentBit; }
  static uint64_t WithoutAbsent(uint64_t word) { return word & ~kAbsentBit; }
};

/// Spin-acquires the lock bit of a TID word.
inline void LockTid(std::atomic<uint64_t>* word) {
  uint64_t cur = word->load(std::memory_order_relaxed);
  while (true) {
    if (!TidWord::IsLocked(cur)) {
      if (word->compare_exchange_weak(cur, TidWord::WithLock(cur),
                                      std::memory_order_acquire,
                                      std::memory_order_relaxed)) {
        return;
      }
    } else {
      cur = word->load(std::memory_order_relaxed);
    }
  }
}

/// Tries once to acquire the lock bit; returns false if already locked.
inline bool TryLockTid(std::atomic<uint64_t>* word) {
  uint64_t cur = word->load(std::memory_order_relaxed);
  if (TidWord::IsLocked(cur)) return false;
  return word->compare_exchange_strong(cur, TidWord::WithLock(cur),
                                       std::memory_order_acquire,
                                       std::memory_order_relaxed);
}

/// Releases the lock bit, leaving the rest of the word unchanged.
inline void UnlockTid(std::atomic<uint64_t>* word) {
  uint64_t cur = word->load(std::memory_order_relaxed);
  word->store(TidWord::WithoutLock(cur), std::memory_order_release);
}

/// Waits until the word is unlocked and returns the (unlocked) value.
inline uint64_t StableTid(const std::atomic<uint64_t>& word) {
  uint64_t cur = word.load(std::memory_order_acquire);
  while (TidWord::IsLocked(cur)) {
    cur = word.load(std::memory_order_acquire);
  }
  return cur;
}

}  // namespace reactdb

#endif  // REACTDB_STORAGE_TID_H_
