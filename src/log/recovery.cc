#include "src/log/recovery.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>
#include <vector>

#include "src/log/durability.h"
#include "src/log/log_record.h"
#include "src/runtime/runtime_base.h"
#include "src/storage/record.h"
#include "src/util/logging.h"

namespace reactdb {
namespace log {

namespace {

/// Installs one redo record into the primary tree, last-writer-wins by TID.
/// Single-threaded (recovery runs before executors start), so rows are
/// replaced in place without epoch retirement.
Status ApplyRecord(RuntimeBase* rt, logrec::RedoRecord&& rec, bool* applied) {
  *applied = false;
  StatusOr<Table*> table =
      rt->FindTable(ReactorId{rec.reactor}, TableSlot{rec.slot});
  if (!table.ok()) {
    return Status::IOError(
        "log record names unknown relation (reactor #" +
        std::to_string(rec.reactor) + ", slot #" + std::to_string(rec.slot) +
        ") — was the database re-declared with a different definition?");
  }
  BTree::InsertResult ins = (*table)->primary().GetOrInsert(rec.key);
  uint64_t cur = ins.record->tid.load(std::memory_order_relaxed);
  if (TidWord::Tid(cur) >= rec.tid) return Status::OK();  // older writer
  const Row* old = ins.record->data.load(std::memory_order_relaxed);
  delete old;
  if (rec.kind == logrec::RecordKind::kDelete) {
    ins.record->data.store(nullptr, std::memory_order_relaxed);
    ins.record->tid.store(TidWord::WithAbsent(rec.tid),
                          std::memory_order_relaxed);
  } else {
    ins.record->data.store(new Row(std::move(rec.row)),
                           std::memory_order_relaxed);
    ins.record->tid.store(rec.tid, std::memory_order_relaxed);
  }
  *applied = true;
  return Status::OK();
}

/// Rebuilds every secondary index of every table from its recovered
/// primary rows (entry records carry the primary-key columns, exactly as
/// transactional maintenance writes them).
void RebuildSecondaryIndexes(RuntimeBase* rt) {
  for (size_t r = 0; r < rt->num_reactors(); ++r) {
    Reactor* reactor = rt->FindReactor(ReactorId{static_cast<uint32_t>(r)});
    if (reactor == nullptr) continue;
    for (Table* table : reactor->bound_tables()) {
      if (table == nullptr || table->num_secondary_indexes() == 0) continue;
      const std::vector<int>& kids = table->schema().key_column_ids();
      table->primary().Scan("", "", [&](const std::string&, Record* rec) {
        const Row* row = rec->data.load(std::memory_order_relaxed);
        uint64_t tid = rec->tid.load(std::memory_order_relaxed);
        if (row == nullptr || TidWord::IsAbsent(tid)) return true;
        for (size_t i = 0; i < table->num_secondary_indexes(); ++i) {
          std::string entry_key = table->EncodeSecondaryEntry(i, *row);
          BTree::InsertResult ins = table->secondary(i).GetOrInsert(entry_key);
          Row* pk = new Row();
          pk->reserve(kids.size());
          for (int id : kids) pk->push_back((*row)[static_cast<size_t>(id)]);
          delete ins.record->data.load(std::memory_order_relaxed);
          ins.record->data.store(pk, std::memory_order_relaxed);
          ins.record->tid.store(TidWord::Tid(tid), std::memory_order_relaxed);
        }
        return true;
      });
    }
  }
}

/// Unlinks the tombstones replayed deletes left in the primary trees.
/// Runs after the epoch clock was re-seeded past every recovered TID, so a
/// later insert of such a key commits above its delete even on a fresh
/// record; nothing runs concurrently yet, so the records are freed at once.
void UnlinkReplayedTombstones(RuntimeBase* rt) {
  std::vector<std::pair<std::string, Record*>> tombstones;
  for (size_t r = 0; r < rt->num_reactors(); ++r) {
    Reactor* reactor = rt->FindReactor(ReactorId{static_cast<uint32_t>(r)});
    if (reactor == nullptr) continue;
    for (Table* table : reactor->bound_tables()) {
      if (table == nullptr) continue;
      table->primary().Scan(
          "", "", [&tombstones](const std::string& key, Record* rec) {
            if (TidWord::IsAbsent(rec->tid.load(std::memory_order_relaxed))) {
              tombstones.emplace_back(key, rec);
            }
            return true;
          });
      for (auto& [key, rec] : tombstones) {
        uint64_t word = rec->tid.load(std::memory_order_relaxed);
        if (table->primary().Unlink(key, rec, word) ==
            BTree::UnlinkResult::kUnlinked) {
          delete rec;
        }
      }
      tombstones.clear();
    }
  }
}

}  // namespace

Status Recover(RuntimeBase* rt, DurabilityManager* mgr,
               RecoveryResult* result) {
  const auto t0 = std::chrono::steady_clock::now();
  RecoveryResult res;
  res.recovered = mgr->found_state();
  res.durable_epoch = mgr->recovered_durable_epoch();

  // 1. Checkpoint: every row in a committed checkpoint is covered by the
  // durable log (the checkpointer's fence), so no epoch filter is needed.
  if (!mgr->checkpoint_dir().empty()) {
    REACTDB_ASSIGN_OR_RETURN(std::string data,
                             ReadFile(mgr->checkpoint_dir() + "/data.ckp"));
    StatusOr<logrec::ScanResult> scan = logrec::ScanFrames(
        data, [&](const logrec::FrameInfo& frame) -> Status {
          return logrec::DecodeRecords(
              frame.payload, [&](logrec::RedoRecord&& rec) -> Status {
                bool applied = false;
                REACTDB_RETURN_IF_ERROR(
                    ApplyRecord(rt, std::move(rec), &applied));
                if (applied) ++res.checkpoint_rows;
                return Status::OK();
              });
        });
    if (!scan.ok()) return scan.status();
  }

  // 2. Log replay up to the durable epoch, last-writer-wins by TID.
  for (const auto& per_container : mgr->segments()) {
    for (const SegmentRef& seg : per_container) {
      REACTDB_ASSIGN_OR_RETURN(std::string data, ReadFile(seg.path));
      StatusOr<logrec::ScanResult> scan = logrec::ScanFrames(
          data, [&](const logrec::FrameInfo& frame) -> Status {
            return logrec::DecodeRecords(
                frame.payload, [&](logrec::RedoRecord&& rec) -> Status {
                  if (rec.epoch() > res.durable_epoch) {
                    // Beyond the durable horizon: the transaction's other
                    // records may be missing; drop it as a unit.
                    ++res.log_records_skipped;
                    return Status::OK();
                  }
                  bool applied = false;
                  REACTDB_RETURN_IF_ERROR(
                      ApplyRecord(rt, std::move(rec), &applied));
                  if (applied) ++res.log_records_applied;
                  return Status::OK();
                });
          });
      if (!scan.ok()) {
        return Status(scan.status().code(),
                      seg.path + ": " + scan.status().message());
      }
    }
  }

  // 3 + 4 + 5. Index rebuild, then re-seed the epoch clock past everything
  // recovered so fresh commit TIDs extend the history monotonically, then
  // drop the replayed tombstones.
  RebuildSecondaryIndexes(rt);
  res.max_epoch = std::max(mgr->recovered_max_epoch(), res.durable_epoch);
  rt->epochs()->AdvanceTo(res.max_epoch + 1);
  UnlinkReplayedTombstones(rt);

  if (res.recovered) {
    const double elapsed_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
    REACTDB_LOG(kInfo) << "recovery: " << res.checkpoint_rows
                       << " checkpoint rows, " << res.log_records_applied
                       << " log records applied, " << res.log_records_skipped
                       << " skipped beyond durable epoch "
                       << res.durable_epoch << ", took " << elapsed_ms
                       << " ms";
  }
  if (result != nullptr) *result = res;
  return Status::OK();
}

}  // namespace log
}  // namespace reactdb
