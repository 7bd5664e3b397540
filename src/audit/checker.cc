#include "src/audit/checker.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "src/log/durability.h"
#include "src/storage/tid.h"
#include "src/util/logging.h"

namespace reactdb {
namespace audit {

namespace fs = std::filesystem;

namespace {

/// Enough violations to show the shape of a failure without letting a
/// chronically broken run accumulate unbounded reports.
constexpr size_t kMaxViolations = 256;

}  // namespace

const char* ViolationKindName(ViolationKind kind) {
  switch (kind) {
    case ViolationKind::kCycle:
      return "cycle";
    case ViolationKind::kStaleRead:
      return "stale-read";
    case ViolationKind::kFutureRead:
      return "future-read";
    case ViolationKind::kUnknownVersion:
      return "unknown-version";
    case ViolationKind::kDuplicateVersion:
      return "duplicate-version";
  }
  return "?";
}

std::string FormatViolation(const Violation& v) {
  return std::string("[") + ViolationKindName(v.kind) + "] epoch " +
         std::to_string(v.epoch) + ": txn tid=" + std::to_string(v.tid) +
         " (container " + std::to_string(v.container) + ", ordinal " +
         std::to_string(v.ordinal) + "): " + v.detail;
}

uint32_t Checker::InternKey(uint32_t reactor, uint32_t slot,
                            std::string_view key) {
  std::string id;
  id.reserve(8 + key.size());
  id.append(reinterpret_cast<const char*>(&reactor), 4);
  id.append(reinterpret_cast<const char*>(&slot), 4);
  id.append(key.data(), key.size());
  auto [it, inserted] =
      key_ids_.emplace(std::move(id), static_cast<uint32_t>(key_names_.size()));
  if (inserted) {
    key_names_.push_back(it->first);
    versions_.emplace_back();
  }
  return it->second;
}

void Checker::AddVersion(uint32_t key_id, uint64_t tid, bool is_delete) {
  VersionList& vl = versions_[key_id];
  // Streams arrive roughly in TID order per key, so the common insert is an
  // append; duplicates (the redo record and the audit record of the same
  // transaction both register the version) merge silently, keeping the
  // redo record's delete marker.
  if (vl.tids.empty() || vl.tids.back() < tid) {
    vl.tids.push_back(tid);
    vl.deletes.push_back(is_delete);
  } else {
    auto it = std::lower_bound(vl.tids.begin(), vl.tids.end(), tid);
    const size_t pos = static_cast<size_t>(it - vl.tids.begin());
    if (it != vl.tids.end() && *it == tid) {
      if (is_delete) vl.deletes[pos] = true;
      return;
    }
    vl.tids.insert(it, tid);
    vl.deletes.insert(vl.deletes.begin() + static_cast<ptrdiff_t>(pos),
                      is_delete);
  }
  ++stats_.versions;
}

void Checker::AddRedo(uint32_t container, const logrec::RedoRecord& rec) {
  const uint32_t key_id = InternKey(rec.reactor, rec.slot, rec.key);
  const uint64_t tid = TidWord::Tid(rec.tid);
  AddVersion(key_id, tid, rec.kind == logrec::RecordKind::kDelete);
  // Track the current same-TID run of this stream: a commit's redo records
  // are appended under one lock hold, so they form a contiguous run that
  // the commit's audit record (appended under the same hold) adopts as its
  // write set in AddAudit.
  if (redo_runs_.size() <= container) redo_runs_.resize(container + 1);
  RedoRun& run = redo_runs_[container];
  if (run.tid != tid) {
    run.tid = tid;
    run.keys.clear();
  }
  run.keys.push_back(key_id);
}

void Checker::AddCheckpointRow(const logrec::RedoRecord& rec) {
  AddVersion(InternKey(rec.reactor, rec.slot, rec.key), TidWord::Tid(rec.tid),
             rec.kind == logrec::RecordKind::kDelete);
}

void Checker::AddAudit(uint32_t container, logrec::AuditRecord&& rec) {
  if (next_ordinal_.size() <= container) next_ordinal_.resize(container + 1);
  TxnNode node;
  node.tid = rec.tid;
  node.container = container;
  node.ordinal = next_ordinal_[container]++;
  node.reads.reserve(rec.reads.size());
  for (const logrec::AuditRecord::Read& rd : rec.reads) {
    node.reads.push_back(
        {InternKey(rd.reactor, rd.slot, rd.key), rd.observed});
  }
  if (rec.writes.empty()) {
    // Live capture emits no write section: the written keys are the
    // immediately preceding redo records with this commit TID (their
    // versions were already registered by AddRedo).
    if (container < redo_runs_.size()) {
      RedoRun& run = redo_runs_[container];
      if (run.tid == TidWord::Tid(rec.tid)) {
        node.writes = std::move(run.keys);
        run.keys.clear();
        run.tid = 0;
      }
    }
  } else {
    // Explicit write section (tool- or test-authored records).
    node.writes.reserve(rec.writes.size());
    for (const logrec::AuditRecord::Write& wr : rec.writes) {
      uint32_t key_id = InternKey(wr.reactor, wr.slot, wr.key);
      node.writes.push_back(key_id);
      AddVersion(key_id, rec.tid, /*is_delete=*/false);
    }
  }
  stats_.txns++;
  stats_.reads += node.reads.size();
  stats_.writes += node.writes.size();
  pending_[rec.epoch()].push_back(std::move(node));
}

void Checker::Report(ViolationKind kind, uint64_t epoch, const TxnNode& node,
                     std::string detail) {
  if (violations_.size() >= kMaxViolations) return;
  Violation v;
  v.kind = kind;
  v.epoch = epoch;
  v.tid = node.tid;
  v.container = node.container;
  v.ordinal = node.ordinal;
  v.detail = std::move(detail);
  violations_.push_back(std::move(v));
}

std::string Checker::DescribeKey(uint32_t key_id) const {
  const std::string& id = key_names_[key_id];
  uint32_t reactor = 0;
  uint32_t slot = 0;
  std::memcpy(&reactor, id.data(), 4);
  std::memcpy(&slot, id.data() + 4, 4);
  std::string out = "r" + std::to_string(reactor) + "/s" +
                    std::to_string(slot) + "/";
  const size_t key_bytes = id.size() - 8;
  const size_t shown = std::min<size_t>(key_bytes, 16);
  char hex[3];
  for (size_t i = 0; i < shown; ++i) {
    std::snprintf(hex, sizeof(hex), "%02x",
                  static_cast<uint8_t>(id[8 + i]));
    out += hex;
  }
  if (shown < key_bytes) out += "...";
  return out;
}

std::string Checker::DescribeNode(const TxnNode& node) const {
  return "txn tid=" + std::to_string(node.tid) + " (epoch " +
         std::to_string(TidWord::Epoch(node.tid)) + ", seq " +
         std::to_string(TidWord::Seq(node.tid)) + ") at c" +
         std::to_string(node.container) + "#" + std::to_string(node.ordinal);
}

void Checker::CheckEpoch(uint64_t epoch, std::vector<TxnNode>& nodes) {
  const size_t n = nodes.size();
  // Writer identity of this epoch's versions: (key, tid) -> node index.
  // Per-key version TIDs are unique (records are locked during install and
  // every commit TID exceeds the write set's observed max — even with
  // validation skipped), so two claimants are a capture corruption.
  std::map<std::pair<uint32_t, uint64_t>, uint32_t> writer_of;
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t key_id : nodes[i].writes) {
      auto [it, inserted] = writer_of.emplace(
          std::make_pair(key_id, TidWord::Tid(nodes[i].tid)), i);
      if (!inserted && it->second != i) {
        Report(ViolationKind::kDuplicateVersion, epoch, nodes[i],
               "version " + DescribeKey(key_id) + "@" +
                   std::to_string(TidWord::Tid(nodes[i].tid)) +
                   " already written by " + DescribeNode(nodes[it->second]));
      }
    }
  }

  std::vector<std::vector<uint32_t>> adj(n);
  auto add_edge = [&](uint32_t from, uint32_t to) {
    if (from == to) return;
    adj[from].push_back(to);
    ++stats_.edges;
  };

  // WW: consecutive same-epoch versions of a key with known writers.
  // Versions are sorted by TID and TID order implies epoch order, so a
  // backward WW edge is impossible by construction — only intra-epoch
  // pairs materialize.
  for (uint32_t i = 0; i < n; ++i) {
    const uint64_t tid = TidWord::Tid(nodes[i].tid);
    for (uint32_t key_id : nodes[i].writes) {
      const std::vector<uint64_t>& tids = versions_[key_id].tids;
      auto it = std::lower_bound(tids.begin(), tids.end(), tid);
      if (it == tids.begin() || it == tids.end() || *it != tid) continue;
      const uint64_t pred = *(it - 1);
      if (TidWord::Epoch(pred) != epoch) continue;
      auto wit = writer_of.find(std::make_pair(key_id, pred));
      if (wit != writer_of.end()) add_edge(wit->second, i);
    }
  }

  // WR and RW edges from the read observations.
  for (uint32_t i = 0; i < n; ++i) {
    for (const ReadObs& rd : nodes[i].reads) {
      const VersionList& vl = versions_[rd.key];
      const std::vector<uint64_t>& tids = vl.tids;
      uint64_t obs = TidWord::Tid(rd.observed);
      if (obs == 0 && TidWord::IsAbsent(rd.observed)) {
        // A fresh record. Once a tombstone is unlinked a later lookup
        // creates a fresh record for the key, so this absent state is the
        // key's latest version before the read. Tombstones are unlinked
        // only after the epoch moved past the delete's, and any version
        // committed between the read and this commit fails validation, so
        // that version is the latest one from an epoch before this one —
        // and it must be a delete, or nothing could have unlinked it.
        auto before = std::lower_bound(tids.begin(), tids.end(),
                                       TidWord::Make(epoch, 0));
        if (before != tids.begin()) {
          obs = *(before - 1);
          if (!vl.deletes[static_cast<size_t>(before - 1 - tids.begin())]) {
            Report(ViolationKind::kUnknownVersion, epoch, nodes[i],
                   "read of " + DescribeKey(rd.key) +
                       " observed a fresh record's absent state, but the "
                       "key's latest earlier version " +
                       std::to_string(obs) + " (epoch " +
                       std::to_string(TidWord::Epoch(obs)) +
                       ") is not a delete");
            continue;
          }
        }
      }
      const uint64_t obs_epoch = TidWord::Epoch(obs);
      if (obs != 0 && obs_epoch > epoch) {
        Report(ViolationKind::kFutureRead, epoch, nodes[i],
               "read of " + DescribeKey(rd.key) + " observed version " +
                   std::to_string(obs) + " from future epoch " +
                   std::to_string(obs_epoch));
        continue;
      }
      auto succ_it = std::upper_bound(tids.begin(), tids.end(), obs);
      const bool found =
          obs != 0 && succ_it != tids.begin() && *(succ_it - 1) == obs;
      if (succ_it != tids.end() && TidWord::Epoch(*succ_it) < epoch) {
        // The observed version was overwritten in an epoch strictly before
        // the reader committed: the RW anti-dependency edge would point
        // backward in epoch order, impossible under correct Silo CC.
        Report(ViolationKind::kStaleRead, epoch, nodes[i],
               "read of " + DescribeKey(rd.key) + " observed version " +
                   std::to_string(obs) + " but successor " +
                   std::to_string(*succ_it) + " committed in epoch " +
                   std::to_string(TidWord::Epoch(*succ_it)) + " < " +
                   std::to_string(epoch));
        continue;
      }
      if (!found && obs != 0) {
        if (obs_epoch < trusted_before_) {
          ++stats_.trusted_skips;  // pre-audit / checkpointed history
        } else {
          Report(ViolationKind::kUnknownVersion, epoch, nodes[i],
                 "read of " + DescribeKey(rd.key) + " observed version " +
                     std::to_string(obs) + " (epoch " +
                     std::to_string(obs_epoch) +
                     ") that no audited writer produced");
          continue;
        }
      }
      if (found && obs_epoch == epoch) {
        auto wit = writer_of.find(std::make_pair(rd.key, obs));
        if (wit != writer_of.end()) add_edge(wit->second, i);  // WR
      }
      if (succ_it != tids.end() && TidWord::Epoch(*succ_it) == epoch) {
        auto wit = writer_of.find(std::make_pair(rd.key, *succ_it));
        if (wit != writer_of.end()) add_edge(i, wit->second);  // RW
      }
    }
  }

  // Cycle detection: iterative Tarjan SCC over the intra-epoch subgraph.
  // Any SCC with more than one node is a serializability violation
  // (self-edges are excluded above, so singleton SCCs are clean).
  std::vector<uint32_t> index(n, 0), low(n, 0), scc_of(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<uint32_t> stack, scc_sizes;
  uint32_t next_index = 1;
  struct DfsFrame {
    uint32_t node;
    size_t edge;
  };
  std::vector<DfsFrame> dfs;
  for (uint32_t root = 0; root < n; ++root) {
    if (index[root] != 0) continue;
    dfs.push_back({root, 0});
    while (!dfs.empty()) {
      DfsFrame& f = dfs.back();
      const uint32_t u = f.node;
      if (f.edge == 0) {
        index[u] = low[u] = next_index++;
        stack.push_back(u);
        on_stack[u] = true;
      }
      if (f.edge < adj[u].size()) {
        const uint32_t v = adj[u][f.edge++];
        if (index[v] == 0) {
          dfs.push_back({v, 0});
        } else if (on_stack[v]) {
          low[u] = std::min(low[u], index[v]);
        }
      } else {
        if (low[u] == index[u]) {
          const uint32_t scc_id = static_cast<uint32_t>(scc_sizes.size());
          uint32_t size = 0;
          while (true) {
            const uint32_t w = stack.back();
            stack.pop_back();
            on_stack[w] = false;
            scc_of[w] = scc_id;
            ++size;
            if (w == u) break;
          }
          scc_sizes.push_back(size);
        }
        dfs.pop_back();
        if (!dfs.empty()) {
          low[dfs.back().node] = std::min(low[dfs.back().node], low[u]);
        }
      }
    }
  }
  for (uint32_t scc_id = 0; scc_id < scc_sizes.size(); ++scc_id) {
    if (scc_sizes[scc_id] < 2) continue;
    // Pinpoint the first violating transaction of the cycle: minimal
    // (tid, container, ordinal) in the SCC.
    uint32_t pin = ~0u;
    for (uint32_t i = 0; i < n; ++i) {
      if (scc_of[i] != scc_id) continue;
      if (pin == ~0u ||
          std::tie(nodes[i].tid, nodes[i].container, nodes[i].ordinal) <
              std::tie(nodes[pin].tid, nodes[pin].container,
                       nodes[pin].ordinal)) {
        pin = i;
      }
    }
    // Minimal cycle through the pinpointed node: BFS within the SCC back
    // to the start.
    std::vector<int64_t> parent(n, -1);
    std::vector<uint32_t> bfs{pin};
    uint32_t back_from = ~0u;
    for (size_t qi = 0; qi < bfs.size() && back_from == ~0u; ++qi) {
      const uint32_t u = bfs[qi];
      for (uint32_t v : adj[u]) {
        if (scc_of[v] != scc_id) continue;
        if (v == pin) {
          back_from = u;
          break;
        }
        if (parent[v] == -1) {
          parent[v] = u;
          bfs.push_back(v);
        }
      }
    }
    std::string cycle = DescribeNode(nodes[pin]);
    if (back_from != ~0u) {
      std::vector<uint32_t> path;
      for (int64_t v = back_from; v != -1 && v != pin; v = parent[v]) {
        path.push_back(static_cast<uint32_t>(v));
      }
      std::string rest;
      for (auto it = path.rbegin(); it != path.rend(); ++it) {
        rest += " -> " + DescribeNode(nodes[*it]);
      }
      cycle += rest + " -> back to first";
    }
    Report(ViolationKind::kCycle, epoch, nodes[pin],
           "serialization cycle of " + std::to_string(scc_sizes[scc_id]) +
               " txns: " + cycle);
  }
  ++stats_.epochs_checked;
}

void Checker::Prune(uint64_t horizon) {
  for (VersionList& vl : versions_) {
    std::vector<uint64_t>& tids = vl.tids;
    if (tids.size() < 2) continue;
    // Keep every version with epoch >= horizon plus one older floor
    // version; a read observing below the floor still fails the
    // successor-direction check (the floor's epoch is < the reader's).
    size_t first_kept = 0;
    while (first_kept + 1 < tids.size() &&
           TidWord::Epoch(tids[first_kept + 1]) < horizon) {
      ++first_kept;
    }
    if (first_kept > 0) {
      const auto n = static_cast<ptrdiff_t>(first_kept);
      tids.erase(tids.begin(), tids.begin() + n);
      vl.deletes.erase(vl.deletes.begin(), vl.deletes.begin() + n);
    }
  }
}

void Checker::FinalizeUpTo(uint64_t epoch) {
  while (!pending_.empty() && pending_.begin()->first <= epoch) {
    auto it = pending_.begin();
    CheckEpoch(it->first, it->second);
    pending_.erase(it);
  }
  if (epoch > finalized_epoch_) finalized_epoch_ = epoch;
  if (window_epochs_ != 0 && finalized_epoch_ > window_epochs_) {
    Prune(finalized_epoch_ - window_epochs_);
  }
}

// --- Offline directory audit -------------------------------------------------

StatusOr<DirectoryAuditResult> AuditDirectory(const std::string& data_dir) {
  DirectoryAuditResult result;
  const std::string log_dir = data_dir + "/log";
  if (!fs::exists(log_dir)) {
    return Status::NotFound("no log directory under " + data_dir);
  }

  // Segment facts (mirrors DurabilityManager::OpenStorage): every
  // c<container>_<seq>.log is scanned; the durable horizon is the min over
  // containers-that-sealed of their max seal epoch.
  struct SegRef {
    uint64_t seq;
    std::string path;
  };
  std::map<int, std::vector<SegRef>> segments;
  std::map<int, uint64_t> file_seals;
  for (const fs::directory_entry& entry : fs::directory_iterator(log_dir)) {
    int container = -1;
    unsigned long long seq = 0;
    const std::string name = entry.path().filename().string();
    if (std::sscanf(name.c_str(), "c%d_%llu.log", &container, &seq) != 2 ||
        container < 0) {
      continue;
    }
    REACTDB_ASSIGN_OR_RETURN(std::string data,
                             log::ReadFile(entry.path().string()));
    StatusOr<logrec::ScanResult> scan = logrec::ScanFrames(data, nullptr);
    if (!scan.ok()) {
      return Status(scan.status().code(),
                    entry.path().string() + ": " + scan.status().message());
    }
    segments[container].push_back({seq, entry.path().string()});
    if (scan->frames > 0) {
      uint64_t& seal = file_seals[container];
      seal = std::max(seal, scan->max_seal_epoch);
    }
  }
  uint64_t durable = ~0ULL;
  for (const auto& [container, seal] : file_seals) {
    durable = std::min(durable, seal);
  }
  if (file_seals.empty()) durable = 0;
  result.durable_epoch = durable;

  // Latest committed checkpoint: its rows are the trusted version floor.
  std::string ckpt_dir;
  uint64_t ckpt_epoch = 0;
  for (const fs::directory_entry& entry : fs::directory_iterator(data_dir)) {
    if (!entry.is_directory()) continue;
    unsigned long long seq = 0;
    const std::string name = entry.path().filename().string();
    if (std::sscanf(name.c_str(), "ckpt_%llu", &seq) != 1) continue;
    const std::string manifest_path = (entry.path() / "MANIFEST").string();
    if (!fs::exists(manifest_path)) continue;  // crashed mid-checkpoint
    REACTDB_ASSIGN_OR_RETURN(std::string manifest,
                             log::ReadFile(manifest_path));
    uint64_t epoch = 0;
    uint64_t max_epoch = 0;
    uint32_t data_crc = 0;
    uint64_t data_bytes = 0;
    StatusOr<logrec::ScanResult> scan = logrec::ScanFrames(
        manifest, [&](const logrec::FrameInfo& frame) -> Status {
          wire::Reader r(frame.payload);
          REACTDB_ASSIGN_OR_RETURN(epoch, r.ReadU64());
          REACTDB_ASSIGN_OR_RETURN(max_epoch, r.ReadU64());
          REACTDB_ASSIGN_OR_RETURN(data_crc, r.ReadU32());
          REACTDB_ASSIGN_OR_RETURN(data_bytes, r.ReadU64());
          return Status::OK();
        });
    (void)max_epoch;
    if (!scan.ok() || scan->frames != 1) continue;  // not committed/usable
    const std::string data_path = (entry.path() / "data.ckp").string();
    if (!fs::exists(data_path)) continue;  // superseded, mid-GC
    if (ckpt_dir.empty() || epoch >= ckpt_epoch) {
      ckpt_dir = entry.path().string();
      ckpt_epoch = epoch;
    }
  }

  Checker checker(/*window_epochs=*/0);
  if (!ckpt_dir.empty()) {
    checker.set_trusted_before(ckpt_epoch + 1);
    result.trusted_before = ckpt_epoch + 1;
    REACTDB_ASSIGN_OR_RETURN(std::string data,
                             log::ReadFile(ckpt_dir + "/data.ckp"));
    StatusOr<logrec::ScanResult> scan = logrec::ScanFrames(
        data, [&](const logrec::FrameInfo& frame) -> Status {
          return logrec::DecodeRecords(
              frame.payload, [&](logrec::RedoRecord&& rec) -> Status {
                checker.AddCheckpointRow(rec);
                return Status::OK();
              });
        });
    if (!scan.ok()) return scan.status();
  }

  for (const auto& [container, segs] : segments) {
    std::vector<SegRef> ordered = segs;
    std::sort(ordered.begin(), ordered.end(),
              [](const SegRef& a, const SegRef& b) { return a.seq < b.seq; });
    const uint32_t c = static_cast<uint32_t>(container);
    for (const SegRef& seg : ordered) {
      REACTDB_ASSIGN_OR_RETURN(std::string data, log::ReadFile(seg.path));
      StatusOr<logrec::ScanResult> scan = logrec::ScanFrames(
          data, [&](const logrec::FrameInfo& frame) -> Status {
            ++result.frames;
            return logrec::DecodeRecords(
                frame.payload,
                [&](logrec::RedoRecord&& rec) -> Status {
                  // Beyond the durable horizon the history is incomplete
                  // (recovery drops these as a unit); ignore, like replay.
                  if (rec.epoch() <= durable) checker.AddRedo(c, rec);
                  return Status::OK();
                },
                [&](logrec::AuditRecord&& rec) -> Status {
                  if (rec.epoch() <= durable) {
                    checker.AddAudit(c, std::move(rec));
                  }
                  return Status::OK();
                });
          });
      if (!scan.ok()) {
        return Status(scan.status().code(),
                      seg.path + ": " + scan.status().message());
      }
      ++result.segments;
    }
  }

  checker.FinalizeUpTo(durable);
  result.stats = checker.stats();
  result.violations = checker.violations();
  return result;
}

}  // namespace audit
}  // namespace reactdb
