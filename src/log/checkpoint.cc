#include "src/log/checkpoint.h"

#include <chrono>
#include <filesystem>
#include <system_error>

#include "src/log/durability.h"
#include "src/log/log_record.h"
#include "src/runtime/runtime_base.h"
#include "src/storage/record.h"
#include "src/util/logging.h"

namespace reactdb {
namespace log {

Status WriteCheckpoint(RuntimeBase* rt, DurabilityManager* mgr,
                       CheckpointResult* result) {
  if (mgr->halted()) {
    Status s = mgr->io_status();
    return s.ok() ? Status::Unavailable("durability abandoned") : s;
  }
  const auto t0 = std::chrono::steady_clock::now();
  EpochManager* epochs = rt->epochs();
  const size_t slot = mgr->sweep_slot();

  epochs->EnterEpoch(slot);
  // Truncation bound: commits at or below el are fully installed, so the
  // sweep observes them (or newer) and their log segments become
  // redundant.
  uint64_t el = epochs->min_active_epoch();
  const uint64_t ckpt_epoch = el == 0 ? 0 : el - 1;

  std::string data;      // frames
  std::string payload;   // current frame under construction
  uint32_t frame_records = 0;
  uint64_t frame_max = 0;
  uint64_t rows = 0;
  uint64_t max_commit_epoch = 0;
  constexpr size_t kFrameTargetBytes = 1 << 20;
  auto seal_frame = [&] {
    if (payload.empty()) return;
    logrec::AppendFrame(&data, payload, frame_records, 0, frame_max);
    payload.clear();
    frame_records = 0;
    frame_max = 0;
  };

  for (size_t r = 0; r < rt->num_reactors(); ++r) {
    Reactor* reactor = rt->FindReactor(ReactorId{static_cast<uint32_t>(r)});
    if (reactor == nullptr) continue;
    const std::vector<Table*>& tables = reactor->bound_tables();
    for (size_t s = 0; s < tables.size(); ++s) {
      Table* table = tables[s];
      if (table == nullptr) continue;
      // Refresh the pin between tables so row reclamation keeps making
      // progress behind a long sweep.
      epochs->LeaveEpoch(slot);
      epochs->EnterEpoch(slot);
      table->primary().Scan(
          "", "",
          [&](const std::string& key, Record* rec) {
            RecordSnapshot snap = ReadRecord(*rec);
            // Tombstones are not checkpointed, but their commit epochs
            // must still hold back the durability fence: a row deleted
            // during the sweep is in neither the snapshot nor (yet) the
            // durable log, and truncation may erase the only copy of its
            // last live version — so the delete itself has to be durable
            // before the manifest commits.
            max_commit_epoch =
                std::max(max_commit_epoch, TidWord::Epoch(snap.tid));
            if (snap.row == nullptr) return true;  // tombstone
            uint64_t tid = TidWord::Tid(snap.tid);
            logrec::AppendPut(&payload, static_cast<uint32_t>(r),
                              static_cast<uint32_t>(s), key, tid,
                              snap.row->data(),
                              static_cast<uint32_t>(snap.row->size()));
            ++frame_records;
            ++rows;
            frame_max = std::max(frame_max, TidWord::Epoch(tid));
            if (payload.size() >= kFrameTargetBytes) seal_frame();
            return true;
          });
      seal_frame();
    }
  }
  epochs->LeaveEpoch(slot);
  // A delete committed during the sweep may have been unlinked before the
  // sweep reached its key, taking its epoch out of sight. Every commit
  // appends its redo records before its tombstones can be queued, so the
  // shards' high-water mark covers those deletes too.
  max_commit_epoch = std::max(max_commit_epoch, mgr->max_appended_epoch());

  // Durability fence: every version the sweep captured must be in the
  // durable log before the manifest commits, else a crash could expose a
  // partially captured transaction that replay cannot repair.
  if (rt->WaitDurable(max_commit_epoch) < max_commit_epoch) {
    Status s = mgr->io_status();
    return s.ok() ? Status::Unavailable("durability halted during checkpoint")
                  : s;
  }

  const std::string dir = mgr->NextCheckpointDir();
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::IOError("create " + dir + ": " + ec.message());
  REACTDB_RETURN_IF_ERROR(
      WriteFileSync(dir + "/data.ckp", data, mgr->options().file_fault_hook));

  std::string manifest_payload;
  wire::Writer w(&manifest_payload);
  w.PutU64(ckpt_epoch);
  w.PutU64(max_commit_epoch);
  w.PutU32(logrec::Crc32(data));
  w.PutU64(data.size());
  std::string manifest;
  logrec::AppendFrame(&manifest, manifest_payload, 0, 0, 0);
  REACTDB_RETURN_IF_ERROR(WriteFileSync(dir + "/MANIFEST", manifest,
                                        mgr->options().file_fault_hook));
  // The checkpoint only exists once its directory entries do: fsync the
  // checkpoint dir (data.ckp + MANIFEST entries) and data_dir (the
  // ckpt_<seq> entry) before truncation deletes what it supersedes.
  REACTDB_RETURN_IF_ERROR(FsyncDir(dir));
  REACTDB_RETURN_IF_ERROR(FsyncDir(mgr->options().data_dir));

  REACTDB_RETURN_IF_ERROR(mgr->OnCheckpointCommitted(ckpt_epoch, dir));
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  REACTDB_LOG(kInfo) << "checkpoint " << dir << ": " << rows << " rows, "
                     << data.size() << " bytes, epoch " << ckpt_epoch
                     << ", took " << elapsed_ms << " ms";
  if (result != nullptr) {
    result->dir = dir;
    result->ckpt_epoch = ckpt_epoch;
    result->rows = rows;
    result->bytes = data.size();
  }
  return Status::OK();
}

}  // namespace log
}  // namespace reactdb
