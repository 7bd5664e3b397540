// In-memory B+-tree mapping encoded keys to Record pointers.
//
// Concurrency model:
//  * Structural reads (point lookups, scans) take a shared latch; structural
//    writes (inserts of new keys, splits, unlinks) take an exclusive latch.
//    Record *contents* are protected by the per-record TID protocol, not the
//    latch.
//  * Each leaf carries a version counter bumped on any change of its key
//    membership (insert, unlink, split, detach). OCC transactions record
//    (leaf, version) pairs in their node set during scans and on lookup
//    misses; validation re-checks the versions, which yields phantom
//    protection exactly as in Silo.
//  * Deletes leave absent-bit tombstone records; Unlink later removes a
//    tombstone's key physically (the transaction layer decides when that is
//    safe, see SiloTxn and ReclaimQueue). The unlinked Record is stamped
//    with TidWord::kUnlinkedWord and handed back to the caller, which
//    retires it through the epoch manager: transactions that still hold the
//    pointer read a stable "unlinked" word and abort at validation.
//  * A leaf that becomes empty is detached from the tree and kept on a free
//    list for reuse by later splits. Leaf memory is never freed before the
//    tree's destructor and versions only ever grow, so node-set pointers
//    stay dereferenceable after the latch is dropped and a recycled leaf
//    always fails the validation of a node set that saw its earlier life.
#ifndef REACTDB_STORAGE_BTREE_H_
#define REACTDB_STORAGE_BTREE_H_

#include <atomic>
#include <functional>
#include <memory>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/storage/record.h"

namespace reactdb {

class BTree {
 public:
  static constexpr size_t kLeafCapacity = 64;
  static constexpr size_t kInnerCapacity = 64;

  struct LeafNode;

  /// Result of a point lookup. `record` is null when the key is not in the
  /// tree; `leaf`/`leaf_version` identify the leaf that would hold the key
  /// (for node-set tracking of misses).
  struct LookupResult {
    Record* record = nullptr;
    LeafNode* leaf = nullptr;
    uint64_t leaf_version = 0;
  };

  /// Result of GetOrInsert.
  struct InsertResult {
    Record* record = nullptr;
    bool created = false;   // true if a fresh (absent) record was inserted
    LeafNode* leaf = nullptr;
    /// Leaf version before this call's own bump (valid when created).
    uint64_t version_before = 0;
    /// Leaf version after this call (valid when created).
    uint64_t version_after = 0;
  };

  /// Visitor for scans: (encoded key, record). Return false to stop early.
  using ScanCallback = std::function<bool(const std::string&, Record*)>;
  /// Visitor for leaves touched by a scan: (leaf, version at visit time).
  using NodeCallback = std::function<void(LeafNode*, uint64_t)>;

  BTree();
  ~BTree();

  BTree(const BTree&) = delete;
  BTree& operator=(const BTree&) = delete;

  /// Point lookup. The key bytes need only live for the call.
  LookupResult Get(std::string_view key) const;

  /// Finds the record for `key`, inserting a fresh absent record if none
  /// exists.
  InsertResult GetOrInsert(std::string_view key);

  /// Forward scan over [lo, hi). An empty `hi` means unbounded. Visits every
  /// leaf overlapping the range through `node_cb` (if provided), and every
  /// present key through `cb`.
  void Scan(std::string_view lo, std::string_view hi, const ScanCallback& cb,
            const NodeCallback& node_cb = nullptr) const;

  /// Reverse scan over [lo, hi), visiting keys in descending order.
  void ReverseScan(std::string_view lo, std::string_view hi,
                   const ScanCallback& cb,
                   const NodeCallback& node_cb = nullptr) const;

  /// Outcome of Unlink.
  enum class UnlinkResult : uint8_t {
    kUnlinked,  // key removed; `rec` now holds kUnlinkedWord
    kStale,     // key gone, mapped to another record, or word changed
    kLocked,    // a committer holds the record lock; retry later
  };

  /// Physically removes `key` if it still maps to `rec` and the record's
  /// TID word still equals `expected_word` (unlocked). On success the
  /// record is stamped with TidWord::kUnlinkedWord, the leaf version is
  /// bumped, and the caller owns `rec` (retire it through the epoch
  /// manager). `rec` is dereferenced only when the tree still maps `key`
  /// to it, so a stale pointer to a freed record is harmless.
  UnlinkResult Unlink(std::string_view key, Record* rec,
                      uint64_t expected_word);

  /// Current version of a leaf (for node-set validation).
  static uint64_t LeafVersion(const LeafNode* leaf);

  /// Number of keys (including tombstones not yet unlinked).
  size_t size() const { return size_.load(std::memory_order_relaxed); }

  struct LeafNode {
    std::vector<std::string> keys;
    std::vector<Record*> records;
    std::atomic<uint64_t> version{0};
    LeafNode* next = nullptr;
    LeafNode* prev = nullptr;
  };

 private:
  struct InnerNode {
    // children.size() == keys.size() + 1; keys[i] is the smallest key
    // reachable under children[i + 1].
    std::vector<std::string> keys;
    std::vector<void*> children;  // InnerNode* or LeafNode* depending on level
    int level = 1;                // 1 = children are leaves
  };

  // Child split produced during a recursive insert: `right` becomes the
  // sibling of the node that split, `key` separates them.
  struct SplitInfo {
    bool split = false;
    std::string key;
    void* right = nullptr;
  };

  LeafNode* FindLeaf(std::string_view key) const;
  /// A leaf for a split: recycled from free_leaves_ when possible.
  LeafNode* NewLeaf();
  /// Removes the empty `leaf` (which `key` routes to) from the inner nodes
  /// and the leaf chain, unless it is the only leaf. Exclusive latch held.
  void DetachEmptyLeaf(LeafNode* leaf, std::string_view key);
  SplitInfo InsertRec(void* node, int level, std::string_view key,
                      InsertResult* result);
  void FreeNode(void* node, int level);

  mutable std::shared_mutex latch_;
  void* root_;      // InnerNode* if height_ > 0 else LeafNode*
  int height_;      // number of inner levels above leaves
  LeafNode* head_;  // leftmost leaf
  std::atomic<size_t> size_{0};
  std::vector<LeafNode*> all_leaves_;  // owned; never freed before dtor
  std::vector<LeafNode*> free_leaves_;  // detached, awaiting reuse
};

}  // namespace reactdb

#endif  // REACTDB_STORAGE_BTREE_H_
