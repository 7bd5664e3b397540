#include "src/storage/btree.h"

#include <algorithm>
#include <cassert>
#include <mutex>

namespace reactdb {

BTree::BTree() : height_(0) {
  auto* leaf = new LeafNode();
  root_ = leaf;
  head_ = leaf;
  all_leaves_.push_back(leaf);
}

BTree::~BTree() {
  if (height_ > 0) FreeNode(root_, height_);
  for (LeafNode* leaf : all_leaves_) {
    for (Record* rec : leaf->records) delete rec;
    delete leaf;
  }
}

void BTree::FreeNode(void* node, int level) {
  if (level == 0) return;  // leaves freed via all_leaves_
  auto* inner = static_cast<InnerNode*>(node);
  for (void* child : inner->children) FreeNode(child, level - 1);
  delete inner;
}

BTree::LeafNode* BTree::NewLeaf() {
  if (!free_leaves_.empty()) {
    LeafNode* leaf = free_leaves_.back();
    free_leaves_.pop_back();
    return leaf;
  }
  auto* leaf = new LeafNode();
  all_leaves_.push_back(leaf);
  return leaf;
}

uint64_t BTree::LeafVersion(const LeafNode* leaf) {
  return leaf->version.load(std::memory_order_acquire);
}

BTree::LeafNode* BTree::FindLeaf(std::string_view key) const {
  void* node = root_;
  for (int level = height_; level > 0; --level) {
    auto* inner = static_cast<InnerNode*>(node);
    // child index = number of separators <= key
    size_t idx = static_cast<size_t>(
        std::upper_bound(inner->keys.begin(), inner->keys.end(), key) -
        inner->keys.begin());
    node = inner->children[idx];
  }
  return static_cast<LeafNode*>(node);
}

BTree::LookupResult BTree::Get(std::string_view key) const {
  std::shared_lock<std::shared_mutex> lock(latch_);
  LeafNode* leaf = FindLeaf(key);
  LookupResult result;
  result.leaf = leaf;
  result.leaf_version = LeafVersion(leaf);
  auto it = std::lower_bound(leaf->keys.begin(), leaf->keys.end(), key);
  if (it != leaf->keys.end() && *it == key) {
    result.record = leaf->records[static_cast<size_t>(it - leaf->keys.begin())];
  }
  return result;
}

BTree::InsertResult BTree::GetOrInsert(std::string_view key) {
  std::unique_lock<std::shared_mutex> lock(latch_);
  InsertResult result;
  SplitInfo split = InsertRec(root_, height_, key, &result);
  if (split.split) {
    auto* new_root = new InnerNode();
    new_root->level = height_ + 1;
    new_root->keys.push_back(split.key);
    new_root->children.push_back(root_);
    new_root->children.push_back(split.right);
    root_ = new_root;
    ++height_;
  }
  return result;
}

BTree::SplitInfo BTree::InsertRec(void* node, int level,
                                  std::string_view key,
                                  InsertResult* result) {
  if (level == 0) {
    auto* leaf = static_cast<LeafNode*>(node);
    auto it = std::lower_bound(leaf->keys.begin(), leaf->keys.end(), key);
    size_t pos = static_cast<size_t>(it - leaf->keys.begin());
    if (it != leaf->keys.end() && *it == key) {
      result->record = leaf->records[pos];
      result->created = false;
      result->leaf = leaf;
      result->version_before = LeafVersion(leaf);
      result->version_after = result->version_before;
      return {};
    }
    auto* rec = new Record();
    result->version_before = LeafVersion(leaf);
    leaf->keys.insert(leaf->keys.begin() + static_cast<long>(pos),
                      std::string(key));
    leaf->records.insert(leaf->records.begin() + static_cast<long>(pos), rec);
    leaf->version.fetch_add(1, std::memory_order_acq_rel);
    size_.fetch_add(1, std::memory_order_relaxed);
    result->record = rec;
    result->created = true;
    result->leaf = leaf;
    if (leaf->keys.size() <= kLeafCapacity) {
      result->version_after = LeafVersion(leaf);
      return {};
    }
    // Split: move the upper half into a new right sibling.
    LeafNode* right = NewLeaf();
    size_t mid = leaf->keys.size() / 2;
    right->keys.assign(leaf->keys.begin() + static_cast<long>(mid),
                       leaf->keys.end());
    right->records.assign(leaf->records.begin() + static_cast<long>(mid),
                          leaf->records.end());
    leaf->keys.resize(mid);
    leaf->records.resize(mid);
    right->next = leaf->next;
    right->prev = leaf;
    if (leaf->next != nullptr) leaf->next->prev = right;
    leaf->next = right;
    // Both leaves changed key membership.
    leaf->version.fetch_add(1, std::memory_order_acq_rel);
    right->version.fetch_add(1, std::memory_order_acq_rel);
    // Fix up result for the inserted key's final location.
    if (pos >= mid) {
      result->leaf = right;
    }
    result->version_after = LeafVersion(result->leaf);
    SplitInfo info;
    info.split = true;
    info.key = right->keys.front();
    info.right = right;
    return info;
  }

  auto* inner = static_cast<InnerNode*>(node);
  size_t idx = static_cast<size_t>(
      std::upper_bound(inner->keys.begin(), inner->keys.end(), key) -
      inner->keys.begin());
  SplitInfo child_split =
      InsertRec(inner->children[idx], level - 1, key, result);
  if (!child_split.split) return {};
  inner->keys.insert(inner->keys.begin() + static_cast<long>(idx),
                     child_split.key);
  inner->children.insert(inner->children.begin() + static_cast<long>(idx) + 1,
                         child_split.right);
  if (inner->children.size() <= kInnerCapacity) return {};
  // Split inner node: middle separator moves up.
  auto* right = new InnerNode();
  right->level = inner->level;
  size_t mid = inner->keys.size() / 2;
  SplitInfo info;
  info.split = true;
  info.key = inner->keys[mid];
  right->keys.assign(inner->keys.begin() + static_cast<long>(mid) + 1,
                     inner->keys.end());
  right->children.assign(inner->children.begin() + static_cast<long>(mid) + 1,
                         inner->children.end());
  inner->keys.resize(mid);
  inner->children.resize(mid + 1);
  info.right = right;
  return info;
}

BTree::UnlinkResult BTree::Unlink(std::string_view key, Record* rec,
                                  uint64_t expected_word) {
  std::unique_lock<std::shared_mutex> lock(latch_);
  LeafNode* leaf = FindLeaf(key);
  auto it = std::lower_bound(leaf->keys.begin(), leaf->keys.end(), key);
  if (it == leaf->keys.end() || *it != key) return UnlinkResult::kStale;
  size_t pos = static_cast<size_t>(it - leaf->keys.begin());
  if (leaf->records[pos] != rec) return UnlinkResult::kStale;
  // The CAS both checks the word and publishes the unlinked stamp; a
  // committer can lock the record only while its word is unlocked, so
  // after this no install can land on it.
  uint64_t word = expected_word;
  if (!rec->tid.compare_exchange_strong(word, TidWord::kUnlinkedWord,
                                        std::memory_order_acq_rel,
                                        std::memory_order_relaxed)) {
    return TidWord::IsLocked(word) &&
                   TidWord::WithoutLock(word) == expected_word
               ? UnlinkResult::kLocked
               : UnlinkResult::kStale;
  }
  leaf->keys.erase(it);
  leaf->records.erase(leaf->records.begin() + static_cast<long>(pos));
  leaf->version.fetch_add(1, std::memory_order_acq_rel);
  size_.fetch_sub(1, std::memory_order_relaxed);
  if (leaf->keys.empty()) DetachEmptyLeaf(leaf, key);
  return UnlinkResult::kUnlinked;
}

void BTree::DetachEmptyLeaf(LeafNode* leaf, std::string_view key) {
  if (height_ == 0) return;  // the root leaf stays, even when empty
  // Path from the root to `leaf`: (inner node, child index) per level.
  std::vector<std::pair<InnerNode*, size_t>> path;
  path.reserve(static_cast<size_t>(height_));
  void* node = root_;
  for (int level = height_; level > 0; --level) {
    auto* inner = static_cast<InnerNode*>(node);
    size_t idx = static_cast<size_t>(
        std::upper_bound(inner->keys.begin(), inner->keys.end(), key) -
        inner->keys.begin());
    path.emplace_back(inner, idx);
    node = inner->children[idx];
  }
  // The lowest ancestor with a sibling subtree drops the child on the
  // path; every inner node below it has the empty leaf as its only
  // descendant and goes with it. Without such an ancestor this is the
  // only leaf, which stays.
  size_t keep = path.size();
  while (keep > 0 && path[keep - 1].first->children.size() < 2) --keep;
  if (keep == 0) return;
  auto [parent, idx] = path[keep - 1];
  // Dropping children[idx] with its left separator (or the right one for
  // child 0) hands its key range to the neighbor that keeps routing it.
  parent->keys.erase(parent->keys.begin() +
                     static_cast<long>(idx > 0 ? idx - 1 : 0));
  parent->children.erase(parent->children.begin() + static_cast<long>(idx));
  for (size_t i = keep; i < path.size(); ++i) delete path[i].first;
  if (leaf->prev != nullptr) leaf->prev->next = leaf->next;
  if (leaf->next != nullptr) leaf->next->prev = leaf->prev;
  if (head_ == leaf) head_ = leaf->next;
  leaf->prev = nullptr;
  leaf->next = nullptr;
  leaf->version.fetch_add(1, std::memory_order_acq_rel);
  free_leaves_.push_back(leaf);
  // Collapse single-child roots so lookups do not descend empty levels.
  while (height_ > 0 &&
         static_cast<InnerNode*>(root_)->children.size() == 1) {
    auto* old_root = static_cast<InnerNode*>(root_);
    root_ = old_root->children.front();
    delete old_root;
    --height_;
  }
}

void BTree::Scan(std::string_view lo, std::string_view hi,
                 const ScanCallback& cb, const NodeCallback& node_cb) const {
  std::shared_lock<std::shared_mutex> lock(latch_);
  LeafNode* leaf = FindLeaf(lo);
  while (leaf != nullptr) {
    if (node_cb) node_cb(leaf, LeafVersion(leaf));
    auto it = std::lower_bound(leaf->keys.begin(), leaf->keys.end(), lo);
    for (size_t i = static_cast<size_t>(it - leaf->keys.begin());
         i < leaf->keys.size(); ++i) {
      if (!hi.empty() && leaf->keys[i] >= hi) return;
      if (!cb(leaf->keys[i], leaf->records[i])) return;
    }
    leaf = leaf->next;
  }
}

void BTree::ReverseScan(std::string_view lo, std::string_view hi,
                        const ScanCallback& cb,
                        const NodeCallback& node_cb) const {
  std::shared_lock<std::shared_mutex> lock(latch_);
  // Position at the leaf containing the last key < hi (or the rightmost
  // leaf when unbounded).
  LeafNode* leaf;
  if (hi.empty()) {
    leaf = FindLeaf(lo);
    while (leaf->next != nullptr) leaf = leaf->next;
    // Note: when unbounded we must start from the rightmost leaf overall.
    LeafNode* right = leaf;
    while (right->next != nullptr) right = right->next;
    leaf = right;
  } else {
    leaf = FindLeaf(hi);
    // hi is exclusive; if hi lands at the first key of this leaf the
    // relevant keys are in the previous leaf as well - handled by walking
    // backward below.
  }
  while (leaf != nullptr) {
    if (node_cb) node_cb(leaf, LeafVersion(leaf));
    // Last index with key < hi.
    size_t end = leaf->keys.size();
    if (!hi.empty()) {
      auto it = std::lower_bound(leaf->keys.begin(), leaf->keys.end(), hi);
      end = static_cast<size_t>(it - leaf->keys.begin());
    }
    for (size_t i = end; i-- > 0;) {
      if (leaf->keys[i] < lo) return;
      if (!cb(leaf->keys[i], leaf->records[i])) return;
    }
    if (!leaf->keys.empty() && !leaf->keys.front().empty() &&
        leaf->keys.front() < lo) {
      return;
    }
    leaf = leaf->prev;
  }
}

}  // namespace reactdb
