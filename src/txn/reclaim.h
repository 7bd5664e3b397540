// Deferred physical removal of tombstones from the B-trees.
//
// A committed delete leaves an absent-bit tombstone in its tree. Scans walk
// and read-track tombstones, so without removal a relation's access cost
// grows with how many deletes it has seen. SiloTxn::Commit therefore queues
// every committed delete (primary rows and secondary-index entries alike),
// and SiloTxn::Abort queues the records an aborted insert created eagerly,
// on the committing executor's ReclaimQueue. Drain unlinks a queued
// tombstone only once the global epoch has moved past the epoch field of
// its TID: a later re-insert of the key lands on a fresh record and commits
// in that later epoch, so its TID exceeds the delete's — the order
// recovery's last-writer-wins replay depends on. Unlinked records are
// retired through the EpochManager (see BTree::Unlink for the reader side).
//
// One queue per executor, used only by that executor (commit, abort and
// drain all run in FinalizeRoot), so it takes no lock. Storage is two
// growable buffers reused across drains: a warmed queue allocates nothing.

#ifndef REACTDB_TXN_RECLAIM_H_
#define REACTDB_TXN_RECLAIM_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/storage/btree.h"
#include "src/txn/epoch.h"

namespace reactdb {

class ReclaimQueue {
 public:
  /// Queues `rec`, mapped from `key` in `tree`, for unlinking once the
  /// global epoch exceeds `epoch`. `word` is the tombstone's TID word; the
  /// unlink is skipped when the record has changed since.
  void Push(BTree* tree, std::string_view key, Record* rec, uint64_t word,
            uint64_t epoch);

  bool empty() const { return head_ == entries_.size(); }
  size_t size() const { return entries_.size() - head_; }

  /// True when the oldest entry may be unlinked at global epoch `current`.
  bool Ready(uint64_t current) const {
    return !empty() && entries_[head_].epoch < current;
  }

  /// Unlinks every entry whose epoch is below epochs->current() and
  /// retires the unlinked records. Entries whose record is locked by a
  /// committer are re-queued. Returns the number of records unlinked.
  size_t Drain(EpochManager* epochs);

 private:
  struct Entry {
    BTree* tree;
    Record* rec;
    uint64_t word;
    uint64_t epoch;
    size_t key_offset;  // into keys_
    uint32_t key_size;
  };

  std::vector<Entry> entries_;  // entries_[head_..] are pending
  size_t head_ = 0;
  std::string keys_;  // key bytes of the pending entries
};

}  // namespace reactdb

#endif  // REACTDB_TXN_RECLAIM_H_
