// In-memory record representation.
//
// A Record couples a Silo TID word with an atomically swappable pointer to
// an immutable Row. Writers (commit install) replace the Row pointer while
// holding the record lock; readers use the TID-word seqlock protocol and
// never observe a torn row. Replaced rows are retired to an epoch-based
// reclamation list (see src/txn/epoch.h) because concurrent readers may
// still dereference them; so are Records themselves once the B-tree has
// unlinked their tombstone (BTree::Unlink).

#ifndef REACTDB_STORAGE_RECORD_H_
#define REACTDB_STORAGE_RECORD_H_

#include <atomic>

#include "src/storage/tid.h"
#include "src/util/value.h"

namespace reactdb {

struct Record {
  /// TID word (status bits + version), see TidWord.
  std::atomic<uint64_t> tid{TidWord::kAbsentBit};
  /// Current committed row; null while absent.
  std::atomic<const Row*> data{nullptr};

  Record() = default;
  Record(const Record&) = delete;
  Record& operator=(const Record&) = delete;

  ~Record() {
    const Row* row = data.load(std::memory_order_relaxed);
    delete row;
  }
};

/// Result of a consistent optimistic read of a record.
struct RecordSnapshot {
  uint64_t tid = 0;       // stable TID word observed (unlocked)
  const Row* row = nullptr;  // null iff absent
};

/// Reads (tid, row) consistently: spins while locked, retries if the word
/// changed across the row-pointer load.
inline RecordSnapshot ReadRecord(const Record& rec) {
  while (true) {
    uint64_t t1 = StableTid(rec.tid);
    const Row* row = rec.data.load(std::memory_order_acquire);
    uint64_t t2 = rec.tid.load(std::memory_order_acquire);
    if (t1 == t2) {
      if (TidWord::IsAbsent(t1)) row = nullptr;
      return {t1, row};
    }
  }
}

}  // namespace reactdb

#endif  // REACTDB_STORAGE_RECORD_H_
