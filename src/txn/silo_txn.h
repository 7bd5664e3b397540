// Silo-style optimistic transaction.
//
// One SiloTxn instance represents a root transaction together with all of
// its (possibly cross-container) sub-transactions: sub-transactions share
// the root's read/write/node sets (paper Section 3.2.2 — the coordinator
// commits across every touched container). Data operations are optimistic
// reads / buffered writes; Commit() runs the Silo protocol, structured as a
// two-phase commit whose prepare phase is per-container validation:
//
//   prepare(c): lock write set of c (global pointer order), validate read
//               set and node set entries of c
//   commit:     compute TID, install writes, release locks
//   abort:      release locks, leave eager inserts as absent tombstones
//
// Tombstones are reclaimed: with a ReclaimQueue bound (BindReclaim), Commit
// queues every committed delete and Abort every record its inserts created
// eagerly; the executor later unlinks them from their trees once the epoch
// rule allows (src/txn/reclaim.h). A transaction that still holds a pointer
// to an unlinked record aborts at commit.
//
// Secondary indexes are maintained transactionally: entry records are
// ordinary records whose row holds the primary key, inserted/deleted in the
// same transaction as the primary mutation.
//
// Allocation discipline: the read/write/node sets are flat, open-addressed,
// arena-backed tables (src/util/flat.h); buffered write rows are Value cell
// arrays in the same arena; keys encode into inline KeyBufs; commit installs
// into rows recycled through the epoch manager. A warmed point
// read/update transaction performs zero heap allocations end to end
// (tests/alloc_test.cc enforces this). The arena is bound by the owning
// runtime (per-executor pool) or created lazily for standalone use.

#ifndef REACTDB_TXN_SILO_TXN_H_
#define REACTDB_TXN_SILO_TXN_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/log/log_shard.h"
#include "src/storage/table.h"
#include "src/txn/epoch.h"
#include "src/txn/reclaim.h"
#include "src/util/arena.h"
#include "src/util/flat.h"
#include "src/util/statusor.h"

namespace reactdb {

/// Per-executor commit-TID source (Silo: executor-local last TID).
class TidSource {
 public:
  /// Returns a TID strictly greater than `observed_max` and than every TID
  /// previously returned by this source, within epoch `epoch`.
  uint64_t NextCommitTid(uint64_t observed_max, uint64_t epoch);

 private:
  uint64_t last_tid_ = 0;
};

/// Operation statistics (drive the simulated-time cost accounting and the
/// cost-model calibration).
struct TxnOpStats {
  uint64_t point_reads = 0;
  uint64_t scanned_rows = 0;
  uint64_t scanned_leaves = 0;
  uint64_t writes = 0;    // update/insert/delete buffered
  uint64_t inserts = 0;   // subset of writes that created index entries
};

class SiloTxn {
 public:
  /// `epochs` must outlive the transaction. `arena`, when given, backs the
  /// transaction's sets and buffers and must outlive it; the caller resets
  /// the arena after the SiloTxn is destroyed. Without one, a private arena
  /// is created lazily on first use (standalone/bulk-load transactions).
  explicit SiloTxn(EpochManager* epochs, Arena* arena = nullptr);
  ~SiloTxn();

  SiloTxn(const SiloTxn&) = delete;
  SiloTxn& operator=(const SiloTxn&) = delete;

  /// Binds the backing arena. Must happen before the first data operation.
  void BindArena(Arena* arena);

  /// Binds the redo-log shard that Commit appends value records to (epoch
  /// group-commit logging, src/log/). Must happen before the first write
  /// operation: primary keys are captured (arena copies) as writes buffer.
  /// Null (the default) disables capture — the hot path is unchanged.
  /// Only writes against tables with a durable identity
  /// (Table::BindDurableId) are logged; secondary-index entry records are
  /// never logged (recovery rebuilds the indexes).
  void BindLog(log::LogShard* shard);

  /// Binds the queue that Commit and Abort hand tombstones to for physical
  /// removal (the owning executor's). Must happen before the first write
  /// operation. Null (the default) leaves tombstones in place — standalone
  /// and bulk-load transactions.
  void BindReclaim(ReclaimQueue* queue) { reclaim_ = queue; }

  /// Enables audit capture (Database::Options::audit): Commit additionally
  /// appends one kTxnAudit record digesting the read set — (reactor, slot,
  /// key, observed TID word) per first read of each durable-table record —
  /// plus the written keys. Requires a bound log; must happen before the
  /// first data operation. Secondary-index entry reads are not digested
  /// (the primary-row read they resolve to is); recordless misses are
  /// covered by node-set validation only, not by the audit digest.
  void EnableAuditCapture();

  /// Fault-injection hook (`cc.skip_validation`): when set, Commit skips
  /// the Silo read-set validation checks (locked-by-other and TID-changed
  /// aborts), deliberately allowing a non-serializable commit that the
  /// isolation checker must catch. Never set outside tests/chaos runs.
  void set_skip_validation(bool skip) { skip_validation_ = skip; }

  // --- Data operations -----------------------------------------------------

  /// Point read by primary key. NotFound if absent (the miss is tracked for
  /// phantom protection).
  StatusOr<Row> Get(Table* table, const Row& key, uint32_t container);

  /// Point read into a caller-provided row (reuses its capacity: the warmed
  /// hot path). `*out` is unspecified on error.
  Status GetInto(Table* table, const Row& key, Row* out, uint32_t container);

  /// Inserts a full row. AlreadyExists if a live row with the key exists.
  Status Insert(Table* table, const Row& row, uint32_t container);

  /// Replaces the row with primary key `key` (must exist).
  Status Update(Table* table, const Row& key, const Row& new_row,
                uint32_t container);

  /// Deletes the row with primary key `key` (must exist).
  Status Delete(Table* table, const Row& key, uint32_t container);

  /// Forward scan of [lo, hi) by primary key; empty `hi` = unbounded.
  /// `limit` < 0 means no limit. The callback receives the full row.
  Status Scan(Table* table, const Row& lo, const Row& hi, int64_t limit,
              const std::function<bool(const Row&)>& cb, uint32_t container);

  /// Reverse scan of [lo, hi) in descending key order.
  Status ReverseScan(Table* table, const Row& lo, const Row& hi, int64_t limit,
                     const std::function<bool(const Row&)>& cb,
                     uint32_t container);

  /// Forward scan of every key having `prefix` as a leading key-column
  /// prefix (e.g. all orders of one district).
  Status ScanPrefix(Table* table, const Row& prefix, int64_t limit,
                    const std::function<bool(const Row&)>& cb,
                    uint32_t container);

  /// Reverse-order prefix scan (descending key order).
  Status ReverseScanPrefix(Table* table, const Row& prefix, int64_t limit,
                           const std::function<bool(const Row&)>& cb,
                           uint32_t container);

  /// Scan of a secondary index by exact match on the indexed columns.
  /// Callback receives the full primary row.
  Status ScanSecondary(Table* table, size_t index_pos, const Row& index_key,
                       int64_t limit, const std::function<bool(const Row&)>& cb,
                       uint32_t container);

  /// Descending-order variant of ScanSecondary (e.g. "most recent order of
  /// a customer" in TPC-C order-status).
  Status ReverseScanSecondary(Table* table, size_t index_pos,
                              const Row& index_key, int64_t limit,
                              const std::function<bool(const Row&)>& cb,
                              uint32_t container);

  // --- Commitment ----------------------------------------------------------

  /// Runs validation + install. On success returns the commit TID; on
  /// conflict returns kAborted and the transaction is fully rolled back.
  StatusOr<uint64_t> Commit(TidSource* tids);

  /// Rolls back all buffered writes (releases nothing durable; eager
  /// inserts remain as absent tombstones, queued for reclamation when a
  /// ReclaimQueue is bound).
  void Abort();

  /// Lock-free staleness probe of the read and node sets: true when a
  /// record read has since changed, is locked or was unlinked, or a tracked
  /// leaf changed. An abort whose cause may be a stale read (a duplicate
  /// key derived from a counter another commit advanced) is then a
  /// concurrency conflict, not a terminal error. Call before Abort.
  bool ReadsStale() const;

  /// Containers touched by any operation (drives 2PC cost accounting and
  /// the distinction single- vs multi-container commit). Ascending order.
  const ContainerSet& containers_touched() const { return containers_; }

  const TxnOpStats& stats() const { return stats_; }

  size_t read_set_size() const { return read_set_.size(); }
  size_t write_set_size() const { return write_set_.size(); }
  size_t node_set_size() const { return node_set_.size(); }
  size_t audit_read_count() const { return audit_read_count_; }

 private:
  enum class WriteKind : uint8_t { kUpdate, kInsert, kDelete };

  struct ReadEntry {
    Record* rec;
    uint64_t tid;  // stable word observed (includes absent bit)
    uint32_t container;
  };
  struct WriteEntry {
    Record* rec;
    /// Buffered new row as arena-resident cells; null for deletes and after
    /// the cells were consumed (install) or destroyed (rollback).
    Value* cells;
    /// The record's tree and arena-copied encoded key. Captured for
    /// entries that may leave a tombstone (inserts and deletes) when a
    /// reclaim queue is bound, and for logged writes (the redo record's
    /// key); null key otherwise.
    BTree* tree = nullptr;
    const char* key = nullptr;
    uint32_t num_cells;
    uint32_t container;
    uint32_t key_size = 0;
    /// Redo-log capture (only for primary-table writes with a log bound):
    /// the durable relation handles.
    uint32_t log_reactor = 0;
    uint32_t log_slot = 0;
    WriteKind kind;
    bool logged = false;
    /// The record was created by this transaction's GetOrInsert.
    bool created = false;

    std::string_view key_view() const { return {key, key_size}; }
  };
  struct NodeEntry {
    BTree::LeafNode* leaf;
    uint64_t version;
    uint32_t container;
  };

  /// The backing arena, created on demand for unbound transactions.
  Arena* arena() {
    if (arena_ == nullptr) {
      own_arena_ = std::make_unique<Arena>();
      arena_ = own_arena_.get();
    }
    return arena_;
  }

  /// Tracks a read; dedupes by record. Returns true on the first
  /// observation of `rec` (callers gate DigestRead on it, so audit capture
  /// rides the read-set dedup instead of paying a second hash).
  bool TrackRead(Record* rec, uint64_t tid, uint32_t container);
  /// Audit capture of one read observation (no-op unless audit capture is
  /// on, a log is bound, and `table` has a durable identity). Call only
  /// when TrackRead returned true — dedup is the read set's. `key` is
  /// arena-copied; `observed` is the stable TID word (absent bit
  /// preserved).
  void DigestRead(const Table* table, std::string_view key, Record* rec,
                  uint64_t observed);
  /// Tracks a node-set entry; dedupes by leaf.
  void TrackNode(BTree::LeafNode* leaf, uint64_t version, uint32_t container);
  /// Adjusts the node set after an own insert bumped `leaf`.
  void FixupNodeAfterOwnInsert(BTree::LeafNode* leaf, uint64_t before,
                               uint64_t after);

  /// Copies `n` cells gathered from `src` into the arena. `ids` selects
  /// columns (null = the first n cells in order).
  Value* CopyCells(const Row& src, const int* ids, uint32_t n);
  /// Adds or overwrites a write-set entry, adopting `cells` (arena-owned).
  /// `tree`/`key` locate the record; `log_table` carries the redo-capture
  /// identity of primary-table writes (null for index-entry records;
  /// ignored when no log is bound).
  WriteEntry* Buffer(Record* rec, Value* cells, uint32_t num_cells,
                     WriteKind kind, uint32_t container, BTree* tree,
                     std::string_view key, const Table* log_table = nullptr);
  /// Arena copy of `key` into `entry`.
  void CaptureKey(WriteEntry* entry, std::string_view key);
  /// Pending write for a record, or nullptr. The pointer is invalidated by
  /// the next Buffer call.
  WriteEntry* PendingWrite(Record* rec);

  /// Locates the record for primary key `key` and the transaction-visible
  /// old row cells (pending write or committed snapshot), tracking the
  /// read / the miss exactly like a point read. Shared by
  /// GetInto/Update/Delete so visibility semantics cannot diverge.
  /// `keybuf` is caller-provided scratch; on return it holds the encoded
  /// primary key (Update/Delete reuse it for redo capture).
  Status LocateVisible(Table* table, const Row& key, uint32_t container,
                       KeyBuf* keybuf, Record** rec, const Value** cells,
                       uint32_t* num_cells);

  /// Inserts one index entry record. The buffered row is gathered from
  /// `src` through `ids` (see CopyCells) only after all duplicate checks
  /// pass. `log_table` as in Buffer; it also selects the audit digest.
  Status InsertEntry(BTree* tree, std::string_view key, const Row& src,
                     const int* ids, uint32_t num_cells, uint32_t container,
                     const Table* log_table = nullptr);

  Status ScanInternal(Table* table, std::string_view lo, std::string_view hi,
                      bool reverse, int64_t limit,
                      const std::function<bool(const Row&)>& cb,
                      uint32_t container);

  template <bool kReverse>
  Status ScanSecondaryImpl(Table* table, size_t index_pos, const Row& index_key,
                           int64_t limit,
                           const std::function<bool(const Row&)>& cb,
                           uint32_t container);

  void ReleaseLocks(size_t locked_prefix);
  /// Destroys buffered cells (arena memory itself is reclaimed by the
  /// arena's owner). Idempotent.
  void DestroyWriteCells();

  EpochManager* epochs_;
  log::LogShard* log_ = nullptr;
  ReclaimQueue* reclaim_ = nullptr;
  Arena* arena_ = nullptr;
  std::unique_ptr<Arena> own_arena_;
  FlatVec<ReadEntry> read_set_;
  FlatVec<WriteEntry> write_set_;
  FlatVec<NodeEntry> node_set_;
  PtrIndex read_index_;
  PtrIndex write_index_;
  PtrIndex node_index_;
  ContainerSet containers_;
  FlatVec<uint32_t> sorted_writes_;  // lock order over write_set_ indices
  /// Audit capture staging: the kTxnAudit record assembled in the arena as
  /// the transaction runs — header space reserved at capture enable, read
  /// digest entries wire-encoded as the reads happen, header patched and
  /// trailer closed at commit — so emission is a single buffer append.
  /// Written keys are not captured separately: the checker recovers them
  /// from the redo records carrying the same commit TID, which the
  /// single-lock commit append keeps adjacent in the shard stream.
  FlatVec<char> audit_read_blob_;
  uint32_t audit_read_count_ = 0;
  TxnOpStats stats_;
  bool audit_ = false;
  bool skip_validation_ = false;
  bool finished_ = false;
};

}  // namespace reactdb

#endif  // REACTDB_TXN_SILO_TXN_H_
