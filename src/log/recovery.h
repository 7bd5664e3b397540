// Crash recovery: checkpoint load + log replay + index rebuild + TID
// re-seeding + tombstone unlinking.
//
// Recover() runs after Bootstrap and before any executor activity, on the
// opening thread:
//
//   1. loads the latest committed checkpoint (if any) straight into the
//      primary B-trees,
//   2. replays every retained log segment with last-writer-wins by TID,
//      applying only records whose TID epoch is <= the recovered durable
//      epoch (the min over per-container frame seals) — records beyond it
//      may belong to transactions whose other records never reached the
//      disk, so they are dropped as a unit,
//   3. rebuilds every secondary index from the recovered primary rows, and
//   4. re-seeds the epoch clock via EpochManager::AdvanceTo past every
//      recovered epoch, so new commit TIDs stay strictly monotone over the
//      recovered history, and
//   5. unlinks the tombstones that replayed deletes left in the primary
//      trees (step 4 is what makes that safe; see src/txn/reclaim.h).
//
// Failures surface as Status (kIOError for corrupt frames/segments); the
// caller decides whether to bail out of Database::Open.

#ifndef REACTDB_LOG_RECOVERY_H_
#define REACTDB_LOG_RECOVERY_H_

#include <cstdint>

#include "src/util/status.h"

namespace reactdb {

class RuntimeBase;

namespace log {

class DurabilityManager;

struct RecoveryResult {
  /// True when a checkpoint or logged records existed (the caller must not
  /// bulk-load initial data again).
  bool recovered = false;
  /// Replay ceiling: the state now equals a history truncated here.
  uint64_t durable_epoch = 0;
  uint64_t checkpoint_rows = 0;
  uint64_t log_records_applied = 0;
  /// Records beyond the durable epoch, dropped for atomicity.
  uint64_t log_records_skipped = 0;
  /// Epoch the clock was re-seeded past.
  uint64_t max_epoch = 0;
};

Status Recover(RuntimeBase* rt, DurabilityManager* mgr, RecoveryResult* result);

}  // namespace log
}  // namespace reactdb

#endif  // REACTDB_LOG_RECOVERY_H_
