// Serializability checker over the audit-augmented redo log (src/audit/).
//
// Input: the per-container record streams of the durability log — redo
// records (the committed versions) plus kTxnAudit records (each committed
// transaction's read-set digest, Database::Options::audit). Written keys
// are not duplicated into the audit record: a commit's redo records and
// its audit record are appended under one shard-lock hold, so the checker
// adopts the adjacent same-TID redo run as the transaction's write set
// (records may still carry an explicit write section — tool-authored
// histories — which takes precedence).
// The checker reconstructs the history and verifies that the direct
// serialization graph (DSG) is acyclic:
//
//   WW  writer(v_i) -> writer(v_{i+1})   consecutive versions of one key,
//                                        ordered by TID (per-key version
//                                        TIDs are unique and increasing:
//                                        records are locked during install
//                                        and every commit TID exceeds the
//                                        observed max of the write set)
//   WR  writer(v)   -> reader(v)         the reader observed version v
//   RW  reader(v)   -> writer(v_next)    anti-dependency: the reader missed
//                                        the successor of what it observed
//
// Epoch confinement makes the check windowed: a Silo commit TID carries the
// commit epoch, reads happen before the commit point, and versions are
// installed with monotonically increasing TIDs — so under correct CC every
// DSG edge satisfies epoch(src) <= epoch(dst). Any cycle is therefore
// confined to a single epoch, and the whole check decomposes into
//  (a) per-epoch cycle detection (SCCs of the intra-epoch subgraph), and
//  (b) a direction check on would-be cross-epoch edges: a reader whose
//      observed version was overwritten in a *strictly earlier* epoch than
//      the reader's own commit epoch is a serializability violation by
//      itself (kStaleRead) — the edge would point backward in epoch order —
//      and likewise a read observing a version from a *later* epoch
//      (kFutureRead).
//
// An epoch may be checked once the durable horizon reaches it: every record
// of epochs <= the horizon is then present (group-commit seal invariant),
// and versions still missing necessarily carry later epochs, so per-key
// successor lookups are stable. TIDs are unique per executor, not globally,
// so transactions are identified by stream position (container, ordinal),
// never by TID alone; audit nodes are self-contained.
//
// Trust boundary: observations of versions older than `trusted_before`
// (checkpointed state, or history from before audit mode was enabled) have
// no writer node; they are skipped rather than flagged. Unknown versions at
// or past the trust boundary are kUnknownVersion — a capture gap or a
// fabricated read, either way worth failing on.
//
// What the checker does NOT cover: recordless misses (a point read of a key
// with no record at all leaves only a node-set entry, no digest), so pure
// phantom anomalies between two such misses are out of scope — B-tree
// node-set validation covers them in-process. Tombstone rows visited by
// scans carry no row image to recover a key from and are likewise digested
// only via point reads.
//
// Unlinked tombstones: once a delete's tombstone is unlinked from its tree,
// the next insert of the key creates a fresh record whose absent word
// carries TID 0. Such an observation is resolved to the key's latest
// version from an epoch before the reader's (the unlinked tombstone's
// state; see CheckEpoch). Versions remember whether they are deletes (the
// redo record's tombstone marker), and a resolved version that is not one
// is kUnknownVersion: only a delete can leave a key recordless.

#ifndef REACTDB_AUDIT_CHECKER_H_
#define REACTDB_AUDIT_CHECKER_H_

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/log/log_record.h"
#include "src/util/statusor.h"

namespace reactdb {
namespace audit {

enum class ViolationKind : uint8_t {
  /// Intra-epoch cycle in the direct serialization graph.
  kCycle = 1,
  /// A reader's observed version was overwritten in an epoch strictly
  /// before the reader's commit epoch (backward cross-epoch RW edge).
  kStaleRead = 2,
  /// A read observed a version from an epoch after the reader's commit
  /// epoch.
  kFutureRead = 3,
  /// A read observed a version that no writer inside the trust boundary
  /// produced.
  kUnknownVersion = 4,
  /// Two distinct transactions claim the same (key, TID) version.
  kDuplicateVersion = 5,
};

const char* ViolationKindName(ViolationKind kind);

struct Violation;
/// One-line rendering: "[kind] epoch E: txn tid=T (container C, ordinal O): detail".
std::string FormatViolation(const Violation& v);

/// One detected violation, pinpointing the first offending transaction.
struct Violation {
  ViolationKind kind;
  uint64_t epoch = 0;
  /// Identity of the pinpointed transaction: commit TID plus its position
  /// in the audit stream (container, per-container ordinal) — TIDs alone
  /// are only unique per executor.
  uint64_t tid = 0;
  uint32_t container = 0;
  uint64_t ordinal = 0;
  /// Human-readable description; for kCycle the minimal cycle through the
  /// pinpointed transaction.
  std::string detail;
};

struct CheckStats {
  uint64_t txns = 0;          // audit records ingested
  uint64_t reads = 0;         // read observations ingested
  uint64_t writes = 0;        // written keys attributed to audited txns
  uint64_t versions = 0;      // distinct (key, tid) versions seen
  uint64_t epochs_checked = 0;
  uint64_t edges = 0;         // intra-epoch DSG edges materialized
  uint64_t trusted_skips = 0; // observations below the trust boundary
};

/// Incremental checker. Feed records in per-container stream order (order
/// across containers is irrelevant), then FinalizeUpTo(durable_epoch) —
/// repeatedly for the trailing online auditor, once for the offline tool.
/// Not thread-safe; the online auditor serializes access.
class Checker {
 public:
  /// `window_epochs` bounds retained version history: after finalizing
  /// epoch E, versions older than E - window are pruned down to a single
  /// floor version per key (reads below the floor still surface as
  /// kStaleRead by the successor-direction check). 0 = unbounded (offline).
  explicit Checker(uint64_t window_epochs = 0)
      : window_epochs_(window_epochs) {}

  /// Observations of versions with epoch < `epoch` and no known writer are
  /// trusted (pre-audit history / checkpointed state).
  void set_trusted_before(uint64_t epoch) { trusted_before_ = epoch; }
  uint64_t trusted_before() const { return trusted_before_; }

  /// Ingests one redo record from container `container`'s stream: registers
  /// the version (key, tid) and extends the stream's current same-TID run.
  /// Writer identity attaches when the commit's audit record arrives: live
  /// capture emits no write section, so AddAudit adopts the run (a commit's
  /// redo records and its audit record are appended under one lock hold and
  /// are therefore adjacent in the stream).
  void AddRedo(uint32_t container, const logrec::RedoRecord& rec);

  /// Registers a checkpointed row: a trusted floor version of its key.
  void AddCheckpointRow(const logrec::RedoRecord& rec);

  /// Ingests one audit record from container `container`'s stream.
  void AddAudit(uint32_t container, logrec::AuditRecord&& rec);

  /// Checks every pending epoch <= `epoch` (cycle detection + edge
  /// direction), records violations, prunes per the window. Idempotent per
  /// epoch; safe to call with a non-advancing horizon.
  void FinalizeUpTo(uint64_t epoch);

  bool clean() const { return violations_.empty(); }
  const std::vector<Violation>& violations() const { return violations_; }
  const CheckStats& stats() const { return stats_; }
  uint64_t finalized_epoch() const { return finalized_epoch_; }

 private:
  struct ReadObs {
    uint32_t key = 0;       // interned key id
    uint64_t observed = 0;  // observed TID word (absent bit preserved)
  };
  struct TxnNode {
    uint64_t tid = 0;
    uint32_t container = 0;
    uint64_t ordinal = 0;
    std::vector<ReadObs> reads;
    std::vector<uint32_t> writes;  // interned key ids
  };
  struct VersionList {
    std::vector<uint64_t> tids;  // ascending
    /// Parallel to `tids`: the version is a delete (tombstone).
    std::vector<bool> deletes;
  };
  /// Current contiguous run of same-TID redo records in one container
  /// stream — the pending write set of the audit record that follows it.
  struct RedoRun {
    uint64_t tid = 0;
    std::vector<uint32_t> keys;  // interned key ids
  };

  uint32_t InternKey(uint32_t reactor, uint32_t slot, std::string_view key);
  void AddVersion(uint32_t key_id, uint64_t tid, bool is_delete);
  void CheckEpoch(uint64_t epoch, std::vector<TxnNode>& nodes);
  void Prune(uint64_t horizon);
  void Report(ViolationKind kind, uint64_t epoch, const TxnNode& node,
              std::string detail);
  std::string DescribeKey(uint32_t key_id) const;
  std::string DescribeNode(const TxnNode& node) const;

  const uint64_t window_epochs_;
  uint64_t trusted_before_ = 0;
  uint64_t finalized_epoch_ = 0;
  /// Interned (reactor, slot, key) -> dense id; reverse map for messages.
  std::unordered_map<std::string, uint32_t> key_ids_;
  std::vector<std::string> key_names_;
  std::vector<VersionList> versions_;  // by key id
  /// Committed transactions awaiting their epoch's finalization.
  std::map<uint64_t, std::vector<TxnNode>> pending_;
  std::vector<uint64_t> next_ordinal_;  // per container
  std::vector<RedoRun> redo_runs_;      // per container
  std::vector<Violation> violations_;
  CheckStats stats_;
};

/// Result of auditing a data directory offline.
struct DirectoryAuditResult {
  CheckStats stats;
  std::vector<Violation> violations;
  uint64_t durable_epoch = 0;   // finalization horizon used
  uint64_t trusted_before = 0;  // checkpoint trust boundary
  uint64_t segments = 0;
  uint64_t frames = 0;
  bool clean() const { return violations.empty(); }
};

/// Offline entry point (the reactdb_audit tool and the chaos tests):
/// replays the retained segments of `data_dir` (same layout rules as
/// recovery — latest committed checkpoint as the trusted floor, segments
/// in sequence order, records beyond the recovered durable horizon
/// ignored) and runs the checker to that horizon with unbounded history.
StatusOr<DirectoryAuditResult> AuditDirectory(const std::string& data_dir);

}  // namespace audit
}  // namespace reactdb

#endif  // REACTDB_AUDIT_CHECKER_H_
