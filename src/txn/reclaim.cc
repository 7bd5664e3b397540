#include "src/txn/reclaim.h"

namespace reactdb {

void ReclaimQueue::Push(BTree* tree, std::string_view key, Record* rec,
                        uint64_t word, uint64_t epoch) {
  entries_.push_back({tree, rec, word, epoch, keys_.size(),
                      static_cast<uint32_t>(key.size())});
  keys_.append(key);
}

size_t ReclaimQueue::Drain(EpochManager* epochs) {
  const uint64_t current = epochs->current();
  size_t unlinked = 0;
  // Entries are pushed in non-decreasing epoch order, so the eligible ones
  // form a prefix. Re-queued entries land past `end` and wait for the next
  // drain.
  const size_t end = entries_.size();
  while (head_ < end && entries_[head_].epoch < current) {
    const Entry e = entries_[head_++];
    std::string_view key(keys_.data() + e.key_offset, e.key_size);
    switch (e.tree->Unlink(key, e.rec, e.word)) {
      case BTree::UnlinkResult::kUnlinked:
        epochs->RetireRecord(e.rec);
        ++unlinked;
        break;
      case BTree::UnlinkResult::kLocked:
        // A committer holds the lock: it either installs over the
        // tombstone (the retry then finds the word changed) or aborts.
        entries_.push_back({e.tree, e.rec, e.word, e.epoch, keys_.size(),
                            e.key_size});
        keys_.append(keys_, e.key_offset, e.key_size);
        break;
      case BTree::UnlinkResult::kStale:
        break;  // re-inserted, re-deleted by a later entry, or gone
    }
  }
  if (head_ == entries_.size()) {
    entries_.clear();
    keys_.clear();
  } else if (head_ > 0) {
    const size_t base = entries_[head_].key_offset;
    keys_.erase(0, base);
    entries_.erase(entries_.begin(), entries_.begin() +
                                         static_cast<std::ptrdiff_t>(head_));
    for (Entry& e : entries_) e.key_offset -= base;
  }
  head_ = 0;
  return unlinked;
}

}  // namespace reactdb
