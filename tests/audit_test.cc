// Isolation-audit subsystem tests (PR 9, src/audit/):
//  * Checker unit tests — every violation kind (cycle, stale read, future
//    read, unknown version, duplicate version) plus the trust boundary, the
//    windowed-pruning floor and fresh-record (absent@0) reads, against
//    hand-built histories;
//  * deterministic end-to-end lost updates: two manually interleaved
//    SiloTxns where the second commit skips validation
//    (set_skip_validation), on both runtimes — the offline checker must
//    detect the violation and pinpoint the offending transaction;
//  * a fabricated absent@0 read of a live key, appended to the real log;
//  * clean audited runs: online auditor status + reactdb_audit_* metrics,
//    offline re-check, and recovery interop (audited segments recover with
//    audit off; un-audited logs audit clean with zero txns).
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "src/audit/checker.h"
#include "src/audit/online_auditor.h"
#include "src/runtime/reactdb.h"
#include "src/storage/tid.h"
#include "src/util/logging.h"
#include "src/workloads/smallbank/smallbank.h"

namespace reactdb {
namespace {

namespace fs = std::filesystem;
using audit::AuditDirectory;
using audit::Checker;
using audit::Violation;
using audit::ViolationKind;
using client::Database;
using logrec::AuditRecord;
using smallbank::CustomerName;

std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "reactdb_audit_" + name;
  fs::remove_all(dir);
  return dir;
}

// --- Checker unit tests ------------------------------------------------------

AuditRecord::Read Read(uint32_t slot, const std::string& key,
                       uint64_t observed) {
  AuditRecord::Read r;
  r.reactor = 0;
  r.slot = slot;
  r.key = key;
  r.observed = observed;
  return r;
}

AuditRecord::Write Write(uint32_t slot, const std::string& key) {
  AuditRecord::Write w;
  w.reactor = 0;
  w.slot = slot;
  w.key = key;
  return w;
}

AuditRecord Txn(uint64_t tid, std::vector<AuditRecord::Read> reads,
                std::vector<AuditRecord::Write> writes) {
  AuditRecord rec;
  rec.tid = tid;
  rec.reads = std::move(reads);
  rec.writes = std::move(writes);
  return rec;
}

TEST(Checker, CleanHistoryIsClean) {
  Checker checker;
  const uint64_t w = TidWord::Make(5, 1);
  const uint64_t r = TidWord::Make(5, 2);
  checker.AddAudit(0, Txn(w, {}, {Write(0, "k")}));
  checker.AddAudit(0, Txn(r, {Read(0, "k", w)}, {}));
  checker.FinalizeUpTo(5);
  EXPECT_TRUE(checker.clean());
  EXPECT_EQ(2u, checker.stats().txns);
  EXPECT_EQ(1u, checker.stats().reads);
  EXPECT_EQ(1u, checker.stats().writes);
  EXPECT_GE(checker.stats().edges, 1u) << "the WR edge must materialize";
}

TEST(Checker, InitialVersionObservationHasNoWriter) {
  Checker checker;
  // observed == 0 is "no prior version": never an unknown-version report.
  checker.AddAudit(0, Txn(TidWord::Make(4, 1), {Read(0, "fresh", 0)},
                          {Write(0, "fresh")}));
  checker.FinalizeUpTo(4);
  EXPECT_TRUE(checker.clean());
}

TEST(Checker, LostUpdateCycleDetectedAndPinpointed) {
  Checker checker;
  const uint64_t v0 = TidWord::Make(5, 1);
  const uint64_t tid_b = TidWord::Make(5, 2);
  const uint64_t tid_r = TidWord::Make(5, 3);
  // A installs v0; B overwrites it; R also read v0 (missed B's version) and
  // writes the successor of B — the classic lost update, one epoch.
  checker.AddAudit(0, Txn(v0, {}, {Write(0, "k")}));
  checker.AddAudit(0, Txn(tid_b, {Read(0, "k", v0)}, {Write(0, "k")}));
  checker.AddAudit(1, Txn(tid_r, {Read(0, "k", v0)}, {Write(0, "k")}));
  checker.FinalizeUpTo(5);
  ASSERT_FALSE(checker.clean());
  const Violation& v = checker.violations().front();
  EXPECT_EQ(ViolationKind::kCycle, v.kind);
  EXPECT_EQ(5u, v.epoch);
  // Pinpoint: minimal (tid, container, ordinal) in the cycle {B, R}.
  EXPECT_EQ(tid_b, v.tid);
  EXPECT_NE(std::string::npos, v.detail.find("cycle of 2")) << v.detail;
  EXPECT_NE(std::string::npos, v.detail.find("back to first")) << v.detail;
  EXPECT_NE(std::string::npos,
            audit::FormatViolation(v).find("cycle"));
}

TEST(Checker, StaleReadAcrossEpochsIsViolationByItself) {
  Checker checker;
  const uint64_t v0 = TidWord::Make(5, 1);
  const uint64_t v1 = TidWord::Make(6, 1);
  const uint64_t reader = TidWord::Make(7, 1);
  checker.AddAudit(0, Txn(v0, {}, {Write(0, "k")}));
  checker.AddAudit(0, Txn(v1, {}, {Write(0, "k")}));
  // Committed in epoch 7 having observed a version overwritten in epoch 6:
  // the RW edge would point backward in epoch order.
  checker.AddAudit(0, Txn(reader, {Read(0, "k", v0)}, {}));
  checker.FinalizeUpTo(7);
  ASSERT_FALSE(checker.clean());
  EXPECT_EQ(ViolationKind::kStaleRead, checker.violations()[0].kind);
  EXPECT_EQ(reader, checker.violations()[0].tid);
  EXPECT_EQ(7u, checker.violations()[0].epoch);
}

TEST(Checker, FutureReadDetected) {
  Checker checker;
  const uint64_t writer = TidWord::Make(6, 1);
  const uint64_t reader = TidWord::Make(5, 1);
  checker.AddAudit(0, Txn(writer, {}, {Write(0, "k")}));
  checker.AddAudit(0, Txn(reader, {Read(0, "k", writer)}, {}));
  checker.FinalizeUpTo(6);
  ASSERT_FALSE(checker.clean());
  EXPECT_EQ(ViolationKind::kFutureRead, checker.violations()[0].kind);
  EXPECT_EQ(reader, checker.violations()[0].tid);
}

TEST(Checker, TrustBoundarySeparatesSkipsFromUnknownVersions) {
  const uint64_t old_obs = TidWord::Make(3, 7);
  const uint64_t reader = TidWord::Make(9, 1);
  {
    // Below the trust boundary: pre-audit history, skipped not flagged.
    Checker checker;
    checker.set_trusted_before(4);
    checker.AddAudit(0, Txn(reader, {Read(0, "k", old_obs)}, {}));
    checker.FinalizeUpTo(9);
    EXPECT_TRUE(checker.clean());
    EXPECT_EQ(1u, checker.stats().trusted_skips);
  }
  {
    // At/after the boundary: a version nobody produced is a violation.
    Checker checker;
    checker.set_trusted_before(3);
    checker.AddAudit(0, Txn(reader, {Read(0, "k", old_obs)}, {}));
    checker.FinalizeUpTo(9);
    ASSERT_FALSE(checker.clean());
    EXPECT_EQ(ViolationKind::kUnknownVersion, checker.violations()[0].kind);
    EXPECT_EQ(0u, checker.stats().trusted_skips);
  }
}

TEST(Checker, CheckpointRowsFormTrustedFloor) {
  Checker checker;
  checker.set_trusted_before(5);
  const uint64_t ckpt_tid = TidWord::Make(4, 2);
  logrec::RedoRecord row;
  row.kind = logrec::RecordKind::kPut;
  row.reactor = 0;
  row.slot = 0;
  row.key = "k";
  row.tid = ckpt_tid;
  checker.AddCheckpointRow(row);
  // A reader observing the checkpointed version resolves it (no unknown
  // version), and no stale-read fires because nothing overwrote it.
  checker.AddAudit(0, Txn(TidWord::Make(6, 1), {Read(0, "k", ckpt_tid)}, {}));
  checker.FinalizeUpTo(6);
  EXPECT_TRUE(checker.clean());
}

TEST(Checker, DuplicateVersionClaimDetected) {
  Checker checker;
  const uint64_t tid = TidWord::Make(5, 1);
  // Two distinct transactions (different containers) claim the same
  // (key, TID) version: impossible under locked install, so capture
  // corruption.
  checker.AddAudit(0, Txn(tid, {}, {Write(0, "k")}));
  checker.AddAudit(1, Txn(tid, {}, {Write(0, "k")}));
  checker.FinalizeUpTo(5);
  ASSERT_FALSE(checker.clean());
  EXPECT_EQ(ViolationKind::kDuplicateVersion, checker.violations()[0].kind);
}

TEST(Checker, WindowedPruningKeepsFloorStaleReadsStillCaught) {
  Checker checker(/*window_epochs=*/2);
  for (uint64_t e = 1; e <= 6; ++e) {
    checker.AddAudit(0, Txn(TidWord::Make(e, 1), {}, {Write(0, "k")}));
    checker.FinalizeUpTo(e);
  }
  EXPECT_TRUE(checker.clean());
  // Epoch-1 history is long pruned; a reader in epoch 7 observing it must
  // still fail the successor-direction check against the retained floor.
  checker.AddAudit(
      0, Txn(TidWord::Make(7, 1), {Read(0, "k", TidWord::Make(1, 1))}, {}));
  checker.FinalizeUpTo(7);
  ASSERT_FALSE(checker.clean());
  EXPECT_EQ(ViolationKind::kStaleRead, checker.violations()[0].kind);
}

TEST(Checker, FinalizeIsIdempotentAndMonotonic) {
  Checker checker;
  checker.AddAudit(0, Txn(TidWord::Make(5, 1), {}, {Write(0, "k")}));
  checker.FinalizeUpTo(5);
  checker.FinalizeUpTo(5);
  checker.FinalizeUpTo(3);  // non-advancing horizon is a no-op
  EXPECT_TRUE(checker.clean());
  EXPECT_EQ(1u, checker.stats().epochs_checked);
  EXPECT_EQ(5u, checker.finalized_epoch());
}

logrec::RedoRecord Redo(uint32_t slot, const std::string& key, uint64_t tid,
                        logrec::RecordKind kind) {
  logrec::RedoRecord r;
  r.kind = kind;
  r.reactor = 0;
  r.slot = slot;
  r.key = key;
  r.tid = tid;
  return r;
}

/// Feeds a live-capture commit: its redo records, then its audit record
/// with no write section (the checker adopts the redo run).
void Commit(Checker* checker, uint32_t container, uint64_t tid,
            std::vector<AuditRecord::Read> reads,
            std::vector<logrec::RedoRecord> redo) {
  for (const logrec::RedoRecord& r : redo) checker->AddRedo(container, r);
  checker->AddAudit(container, Txn(tid, std::move(reads), {}));
}

TEST(Checker, FreshRecordAbsenceIsTheUnlinkedTombstone) {
  // I inserts k (epoch 5), D deletes it (epoch 6), the tombstone is
  // unlinked, and R re-inserts k in epoch 8 over a fresh record, whose
  // absent word carries TID 0. R observed D's absent state, not the state
  // before I: no stale read.
  using logrec::RecordKind;
  const uint64_t ins = TidWord::Make(5, 1);
  const uint64_t del = TidWord::Make(6, 1);
  const uint64_t re = TidWord::Make(8, 1);
  auto history = [&](Checker* c) {
    Commit(c, 0, ins, {}, {Redo(0, "k", ins, RecordKind::kPut)});
    Commit(c, 0, del, {Read(0, "k", ins)},
           {Redo(0, "k", del, RecordKind::kDelete)});
    Commit(c, 0, re, {Read(0, "k", TidWord::kAbsentBit)},
           {Redo(0, "k", re, RecordKind::kPut)});
  };
  Checker checker;
  history(&checker);
  checker.FinalizeUpTo(8);
  EXPECT_TRUE(checker.clean())
      << audit::FormatViolation(checker.violations().front());
  // Versions from R's own epoch are successors, not what R read: two
  // re-inserters over one absent state form a lost-update cycle.
  Checker lost;
  history(&lost);
  Commit(&lost, 1, TidWord::Make(8, 0), {Read(0, "k", TidWord::kAbsentBit)},
         {Redo(0, "k", TidWord::Make(8, 0), RecordKind::kPut)});
  lost.FinalizeUpTo(8);
  ASSERT_FALSE(lost.clean());
  EXPECT_EQ(ViolationKind::kCycle, lost.violations().front().kind);
}

TEST(Checker, FreshRecordAbsenceOfALiveKeyIsUnknownVersion) {
  // Mutant: R claims k was recordless although k's latest version before
  // R's epoch is a live put — nothing unlinked it, so the absent@0 read is
  // fabricated.
  using logrec::RecordKind;
  const uint64_t ins = TidWord::Make(5, 1);
  const uint64_t upd = TidWord::Make(6, 1);
  const uint64_t re = TidWord::Make(8, 1);
  Checker checker;
  Commit(&checker, 0, ins, {}, {Redo(0, "k", ins, RecordKind::kPut)});
  Commit(&checker, 0, upd, {Read(0, "k", ins)},
         {Redo(0, "k", upd, RecordKind::kPut)});
  Commit(&checker, 0, re, {Read(0, "k", TidWord::kAbsentBit)},
         {Redo(0, "k", re, RecordKind::kPut)});
  checker.FinalizeUpTo(8);
  ASSERT_EQ(1u, checker.violations().size());
  const Violation& v = checker.violations().front();
  EXPECT_EQ(ViolationKind::kUnknownVersion, v.kind);
  EXPECT_EQ(re, v.tid);
  EXPECT_NE(std::string::npos, v.detail.find("is not a delete")) << v.detail;
  // An explicit write section carries no delete marker either: a version
  // known only from it is not a delete.
  Checker tool;
  tool.AddAudit(0, Txn(ins, {}, {Write(0, "k")}));
  tool.AddAudit(0, Txn(re, {Read(0, "k", TidWord::kAbsentBit)}, {}));
  tool.FinalizeUpTo(8);
  ASSERT_FALSE(tool.clean());
  EXPECT_EQ(ViolationKind::kUnknownVersion, tool.violations().front().kind);
}

// --- Deterministic end-to-end lost update ------------------------------------

constexpr int64_t kCustomers = 8;
constexpr int64_t kCustId = 1;  // smallbank: single customer id per reactor

struct Rig {
  std::unique_ptr<ReactorDatabaseDef> def;
  Database db;

  explicit Rig(Database::Options options, const std::string& dir) {
    def = std::make_unique<ReactorDatabaseDef>();
    smallbank::BuildDef(def.get(), kCustomers);
    options.data_dir = dir;
    options.audit = true;
    REACTDB_CHECK_OK(
        db.Open(def.get(), DeploymentConfig::SharedNothing(2), options));
    REACTDB_CHECK_OK(smallbank::Load(db.runtime(), kCustomers));
  }
};

/// Interleaves two transactions on one savings row so the second commit is
/// only possible because it skips read-set validation: both read v0, t2
/// commits an update, then t1 (skip_validation) commits an update computed
/// from the stale read. Returns {t2_tid, t1_tid}.
std::pair<uint64_t, uint64_t> InjectLostUpdate(Database& db) {
  Reactor* r = db.FindReactor(CustomerName(0));
  REACTDB_CHECK(r != nullptr);
  Table* savings = r->FindTable(smallbank::kSavingsSlot);
  const uint32_t c = r->container_id();
  RuntimeBase* rt = db.runtime();
  TidSource tids;
  Row key{Value(kCustId)};

  SiloTxn t1(rt->epochs());
  t1.BindLog(db.durability()->direct_shard());
  t1.EnableAuditCapture();
  SiloTxn t2(rt->epochs());
  t2.BindLog(db.durability()->direct_shard());
  t2.EnableAuditCapture();

  StatusOr<Row> b1 = t1.Get(savings, key, c);
  REACTDB_CHECK_OK(b1.status());
  StatusOr<Row> b2 = t2.Get(savings, key, c);
  REACTDB_CHECK_OK(b2.status());

  REACTDB_CHECK_OK(t2.Update(
      savings, key, {Value(kCustId), Value((*b2)[1].AsNumeric() + 100)}, c));
  StatusOr<uint64_t> tid2 = t2.Commit(&tids);
  REACTDB_CHECK_OK(tid2.status());

  REACTDB_CHECK_OK(t1.Update(
      savings, key, {Value(kCustId), Value((*b1)[1].AsNumeric() + 1)}, c));
  // Without this, Commit would abort on the TID change t2 installed.
  t1.set_skip_validation(true);
  StatusOr<uint64_t> tid1 = t1.Commit(&tids);
  REACTDB_CHECK_OK(tid1.status());
  REACTDB_CHECK(*tid1 > *tid2);
  return {*tid2, *tid1};
}

TEST(AuditEndToEnd, LostUpdatePinpointedSim) {
  std::string dir = FreshDir("lost_update_sim");
  Rig rig(Database::Sim(), dir);
  auto [tid2, tid1] = InjectLostUpdate(rig.db);
  rig.db.WaitDurable();
  rig.db.Shutdown();

  // The trailing online auditor latched the violation (sim drains inline —
  // fully deterministic).
  audit::AuditorStatus online = rig.db.AuditStatus();
  EXPECT_TRUE(online.violation) << "online auditor missed the lost update";
  EXPECT_FALSE(online.first_violation.empty());
  std::string prom = rig.db.Stats().ToPrometheus();
  EXPECT_NE(std::string::npos, prom.find("reactdb_audit_violation")) << prom;

  // The offline checker re-detects it from the segments alone and
  // pinpoints the first transaction of the cycle (both committed in the
  // same epoch here: no executor traffic advances the sim epoch clock).
  auto offline = AuditDirectory(dir);
  ASSERT_TRUE(offline.ok()) << offline.status().ToString();
  ASSERT_FALSE(offline->clean()) << "offline checker missed the lost update";
  const Violation& v = offline->violations.front();
  EXPECT_EQ(ViolationKind::kCycle, v.kind);
  EXPECT_EQ(tid2, v.tid) << audit::FormatViolation(v);
  EXPECT_NE(std::string::npos, v.detail.find("cycle of 2")) << v.detail;
}

TEST(AuditEndToEnd, LostUpdateDetectedThreads) {
  std::string dir = FreshDir("lost_update_threads");
  Rig rig(Database::Threads(), dir);
  auto [tid2, tid1] = InjectLostUpdate(rig.db);
  rig.db.WaitDurable();
  rig.db.Shutdown();

  auto offline = AuditDirectory(dir);
  ASSERT_TRUE(offline.ok()) << offline.status().ToString();
  ASSERT_FALSE(offline->clean()) << "offline checker missed the lost update";
  // The epoch ticker may split the two commits across epochs, turning the
  // intra-epoch cycle into a stale read; either way the violation names
  // one of the two conspirators.
  const Violation& v = offline->violations.front();
  EXPECT_TRUE(v.tid == tid1 || v.tid == tid2) << audit::FormatViolation(v);
}

// --- Clean audited runs, metrics, and recovery interop -----------------------

void RunTransfers(Database& db, int count) {
  client::SessionOptions sopts;
  sopts.max_outstanding = 8;
  sopts.retry.max_attempts = 50;
  sopts.retry.initial_backoff_us = 10;
  auto session = db.CreateSession(sopts);
  smallbank::Handles handles =
      smallbank::ResolveHandles(db.runtime(), kCustomers);
  for (int i = 0; i < count; ++i) {
    session
        ->Submit(handles.customers[static_cast<size_t>(4 + i % 4)],
                 smallbank::kTransferProc,
                 {Value(CustomerName(i % 4)), Value(1.0), Value(false)})
        .Then([](client::TxnOutcome) {});
  }
  session->Drain();
  EXPECT_EQ(static_cast<uint64_t>(count), session->stats().committed);
}

TEST(AuditEndToEnd, CleanRunAuditsCleanWithMetrics) {
  std::string dir = FreshDir("clean_sim");
  Rig rig(Database::Sim(), dir);
  RunTransfers(rig.db, 40);

  std::string prom = rig.db.Stats().ToPrometheus();
  EXPECT_NE(std::string::npos, prom.find("reactdb_audit_records_total"))
      << prom;
  EXPECT_NE(std::string::npos, prom.find("reactdb_audit_lag_epochs")) << prom;

  rig.db.Shutdown();
  audit::AuditorStatus online = rig.db.AuditStatus();
  EXPECT_FALSE(online.violation) << online.first_violation;
  EXPECT_GT(online.records, 0u);
  EXPECT_GT(online.frames, 0u);
  EXPECT_EQ(0u, online.lag_epochs)
      << "shutdown drains the auditor to the durable horizon";

  auto offline = AuditDirectory(dir);
  ASSERT_TRUE(offline.ok()) << offline.status().ToString();
  EXPECT_TRUE(offline->clean())
      << audit::FormatViolation(offline->violations.front());
  EXPECT_GT(offline->stats.txns, 0u);
  EXPECT_GT(offline->frames, 0u);
}

TEST(AuditEndToEnd, CleanRunAuditsCleanThreads) {
  std::string dir = FreshDir("clean_threads");
  Rig rig(Database::Threads(), dir);
  RunTransfers(rig.db, 40);
  rig.db.Shutdown();
  EXPECT_FALSE(rig.db.AuditStatus().violation)
      << rig.db.AuditStatus().first_violation;
  auto offline = AuditDirectory(dir);
  ASSERT_TRUE(offline.ok()) << offline.status().ToString();
  EXPECT_TRUE(offline->clean())
      << audit::FormatViolation(offline->violations.front());
  EXPECT_GT(offline->stats.txns, 0u);
}

// Delete, unlink, re-insert under audit: the re-insert digests the fresh
// record's absent word (TID 0), which must resolve to the delete's state.
Proc AddEntry(TxnContext& ctx, Row args) {
  REACTDB_CO_RETURN_IF_ERROR(ctx.Insert("entries", args));
  co_return Value(int64_t{0});
}

Proc DropEntry(TxnContext& ctx, Row args) {
  REACTDB_CO_RETURN_IF_ERROR(ctx.Delete("entries", {args[0]}));
  co_return Value(int64_t{0});
}

Proc NoopEntry(TxnContext&, Row) { co_return Value(int64_t{0}); }

TEST(AuditEndToEnd, DeleteUnlinkReinsertAuditsClean) {
  std::string dir = FreshDir("unlink_reinsert");
  ReactorDatabaseDef def;
  ReactorType& type = def.DefineType("Book");
  type.AddSchema(SchemaBuilder("entries")
                     .AddColumn("id", ValueType::kInt64)
                     .AddColumn("v", ValueType::kInt64)
                     .SetKey({"id"})
                     .Build()
                     .value());
  type.AddProcedure("add", &AddEntry);
  type.AddProcedure("drop", &DropEntry);
  type.AddProcedure("noop", &NoopEntry);
  REACTDB_CHECK_OK(def.DeclareReactor("book", "Book"));
  Database::Options options = Database::Sim();
  options.data_dir = dir;
  options.audit = true;
  Database db;
  ASSERT_TRUE(
      db.Open(&def, DeploymentConfig::SharedNothing(1), options).ok());
  Table* entries = *db.FindTable("book", "entries");
  ASSERT_TRUE(db.Execute("book", "add", {Value(int64_t{1}), Value(int64_t{1})})
                  .ok());
  db.runtime()->epochs()->Advance();
  ASSERT_TRUE(db.Execute("book", "drop", {Value(int64_t{1})}).ok());
  db.runtime()->epochs()->Advance();
  ASSERT_TRUE(db.Execute("book", "noop", {}).ok());  // drains: unlinks key 1
  ASSERT_EQ(0u, entries->primary().size());
  db.runtime()->epochs()->Advance();
  ASSERT_TRUE(db.Execute("book", "add", {Value(int64_t{1}), Value(int64_t{2})})
                  .ok());
  db.WaitDurable();
  db.Shutdown();
  audit::AuditorStatus online = db.AuditStatus();
  EXPECT_FALSE(online.violation) << online.first_violation;
  auto offline = AuditDirectory(dir);
  ASSERT_TRUE(offline.ok()) << offline.status().ToString();
  EXPECT_TRUE(offline->clean())
      << audit::FormatViolation(offline->violations.front());
  EXPECT_GE(offline->stats.txns, 3u);
}

// Mixed redo+audit segments recover through the pre-audit replay path: a
// reopen with audit off must fully recover the audited run's state.
// Mutant: a commit whose digest claims the savings row of a loaded
// customer was recordless (absent@0), appended straight to the log. The
// key's latest earlier version is the load's put, not a delete, so both
// the online and the offline checker must flag it.
TEST(AuditEndToEnd, FabricatedAbsentReadOfLiveKeyIsCaught) {
  std::string dir = FreshDir("absent_live");
  Rig rig(Database::Sim(), dir);
  Table* savings =
      rig.db.FindReactor(CustomerName(0))->FindTable(smallbank::kSavingsSlot);
  const std::string key = savings->EncodePrimaryKey({Value(kCustId)});
  EpochManager* epochs = rig.db.runtime()->epochs();
  epochs->Advance();  // the fabricated read's epoch follows the load's
  const uint64_t tid = TidWord::Make(epochs->current(), 1);
  logrec::AuditReadView read;
  read.reactor = savings->durable_reactor().value;
  read.slot = savings->durable_slot().value;
  read.key = key.data();
  read.key_size = static_cast<uint32_t>(key.size());
  read.observed = TidWord::kAbsentBit;
  rig.db.durability()->direct_shard()->AppendTxnAudit(tid, &read, 1, nullptr,
                                                      0);
  rig.db.WaitDurable();
  rig.db.Shutdown();

  EXPECT_TRUE(rig.db.AuditStatus().violation)
      << "online auditor missed the fabricated absent read";
  auto offline = AuditDirectory(dir);
  ASSERT_TRUE(offline.ok()) << offline.status().ToString();
  ASSERT_FALSE(offline->clean()) << "offline checker missed the absent read";
  const Violation& v = offline->violations.front();
  EXPECT_EQ(ViolationKind::kUnknownVersion, v.kind) << audit::FormatViolation(v);
  EXPECT_EQ(tid, v.tid);
  EXPECT_NE(std::string::npos, v.detail.find("is not a delete")) << v.detail;
}

TEST(AuditEndToEnd, AuditedSegmentsRecoverWithAuditOff) {
  std::string dir = FreshDir("recover_interop");
  double balance_before = 0;
  {
    Rig rig(Database::Sim(), dir);
    RunTransfers(rig.db, 20);
    balance_before =
        smallbank::TotalBalance(rig.db.runtime(), kCustomers).value();
    rig.db.Shutdown();
  }
  {
    auto def = std::make_unique<ReactorDatabaseDef>();
    smallbank::BuildDef(def.get(), kCustomers);
    Database db;
    Database::Options options = Database::Sim();
    options.data_dir = dir;  // audit OFF: the old replay path
    REACTDB_CHECK_OK(
        db.Open(def.get(), DeploymentConfig::SharedNothing(2), options));
    EXPECT_TRUE(db.recovered());
    EXPECT_EQ(nullptr, db.auditor());
    EXPECT_DOUBLE_EQ(balance_before,
                     smallbank::TotalBalance(db.runtime(), kCustomers).value());
    db.Shutdown();
  }
}

// A log written without audit mode still audits: nothing to check, clean.
TEST(AuditEndToEnd, UnAuditedLogAuditsCleanWithZeroTxns) {
  std::string dir = FreshDir("no_audit_records");
  {
    auto def = std::make_unique<ReactorDatabaseDef>();
    smallbank::BuildDef(def.get(), kCustomers);
    Database db;
    Database::Options options = Database::Sim();
    options.data_dir = dir;
    REACTDB_CHECK_OK(
        db.Open(def.get(), DeploymentConfig::SharedNothing(2), options));
    REACTDB_CHECK_OK(smallbank::Load(db.runtime(), kCustomers));
    RunTransfers(db, 10);
    db.Shutdown();
  }
  auto offline = AuditDirectory(dir);
  ASSERT_TRUE(offline.ok()) << offline.status().ToString();
  EXPECT_TRUE(offline->clean());
  EXPECT_EQ(0u, offline->stats.txns);
  EXPECT_GT(offline->stats.versions, 0u) << "redo versions still ingested";
}

TEST(AuditEndToEnd, AuditWithoutDataDirIsInvalid) {
  auto def = std::make_unique<ReactorDatabaseDef>();
  smallbank::BuildDef(def.get(), kCustomers);
  Database db;
  Database::Options options = Database::Sim();
  options.audit = true;  // no data_dir
  Status s = db.Open(def.get(), DeploymentConfig::SharedNothing(2), options);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(StatusCode::kInvalidArgument, s.code());
}

}  // namespace
}  // namespace reactdb
