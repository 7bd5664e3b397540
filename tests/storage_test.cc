// Unit and property tests for the storage layer: schemas, TID words, the
// B+-tree (against a std::map reference model), tables, and the catalog.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "src/storage/btree.h"
#include "src/storage/catalog.h"
#include "src/storage/schema.h"
#include "src/storage/table.h"
#include "src/util/keycodec.h"
#include "src/util/rng.h"

namespace reactdb {
namespace {

// --- Schema ------------------------------------------------------------

Schema MakeCustomerSchema() {
  return SchemaBuilder("customer")
      .AddColumn("d_id", ValueType::kInt64)
      .AddColumn("c_id", ValueType::kInt64)
      .AddColumn("last", ValueType::kString)
      .AddColumn("balance", ValueType::kDouble)
      .SetKey({"d_id", "c_id"})
      .AddIndex("by_name", {"d_id", "last"})
      .Build()
      .value();
}

TEST(Schema, BuilderResolvesColumns) {
  Schema s = MakeCustomerSchema();
  EXPECT_EQ("customer", s.table_name());
  EXPECT_EQ(4u, s.num_columns());
  EXPECT_EQ(0, s.ColumnId("d_id"));
  EXPECT_EQ(3, s.ColumnId("balance"));
  EXPECT_EQ(-1, s.ColumnId("missing"));
  ASSERT_EQ(1u, s.secondary_indexes().size());
  EXPECT_EQ("by_name", s.secondary_indexes()[0].name);
}

TEST(Schema, BuilderRejectsBadColumns) {
  EXPECT_FALSE(SchemaBuilder("t")
                   .AddColumn("a", ValueType::kInt64)
                   .SetKey({"zzz"})
                   .Build()
                   .ok());
  EXPECT_FALSE(SchemaBuilder("t").AddColumn("a", ValueType::kInt64).Build().ok());
  EXPECT_FALSE(SchemaBuilder("t")
                   .AddColumn("a", ValueType::kInt64)
                   .SetKey({"a"})
                   .AddIndex("i", {"nope"})
                   .Build()
                   .ok());
}

TEST(Schema, ExtractKeys) {
  Schema s = MakeCustomerSchema();
  Row row = {Value(int64_t{3}), Value(int64_t{7}), Value("BARBAR"),
             Value(10.5)};
  EXPECT_EQ(0, CompareRows({Value(int64_t{3}), Value(int64_t{7})},
                           s.ExtractKey(row)));
  EXPECT_EQ(0, CompareRows({Value(int64_t{3}), Value("BARBAR")},
                           s.ExtractIndexKey(s.secondary_indexes()[0], row)));
}

TEST(Schema, ValidateRow) {
  Schema s = MakeCustomerSchema();
  EXPECT_TRUE(s.ValidateRow({Value(int64_t{1}), Value(int64_t{2}), Value("x"),
                             Value(1.0)})
                  .ok());
  // Int into double column is fine; null anywhere is fine.
  EXPECT_TRUE(s.ValidateRow({Value(int64_t{1}), Value(int64_t{2}), Value("x"),
                             Value(int64_t{3})})
                  .ok());
  EXPECT_TRUE(s.ValidateRow({Value(int64_t{1}), Value::Null(), Value("x"),
                             Value(1.0)})
                  .ok());
  // Wrong arity / wrong type rejected.
  EXPECT_FALSE(s.ValidateRow({Value(int64_t{1})}).ok());
  EXPECT_FALSE(s.ValidateRow({Value("oops"), Value(int64_t{2}), Value("x"),
                              Value(1.0)})
                   .ok());
}

// --- TID words ----------------------------------------------------------

TEST(TidWord, BitLayout) {
  uint64_t tid = TidWord::Make(5, 1234);
  EXPECT_EQ(5u, TidWord::Epoch(tid));
  EXPECT_EQ(1234u, TidWord::Seq(tid));
  EXPECT_FALSE(TidWord::IsLocked(tid));
  EXPECT_FALSE(TidWord::IsAbsent(tid));
  EXPECT_TRUE(TidWord::IsLocked(TidWord::WithLock(tid)));
  EXPECT_TRUE(TidWord::IsAbsent(TidWord::WithAbsent(tid)));
  EXPECT_EQ(TidWord::Tid(tid),
            TidWord::Tid(TidWord::WithLock(TidWord::WithAbsent(tid))));
}

TEST(TidWord, LockProtocol) {
  std::atomic<uint64_t> word{TidWord::Make(1, 1)};
  EXPECT_TRUE(TryLockTid(&word));
  EXPECT_FALSE(TryLockTid(&word));
  UnlockTid(&word);
  EXPECT_TRUE(TryLockTid(&word));
  UnlockTid(&word);
  EXPECT_EQ(TidWord::Make(1, 1), StableTid(word));
}

// --- BTree ----------------------------------------------------------------

std::string K(int64_t i) { return EncodeKey({Value(i)}); }

TEST(BTree, GetMissReturnsLeafForNodeSet) {
  BTree tree;
  BTree::LookupResult r = tree.Get(K(1));
  EXPECT_EQ(nullptr, r.record);
  ASSERT_NE(nullptr, r.leaf);
  uint64_t v0 = r.leaf_version;
  tree.GetOrInsert(K(1));
  EXPECT_GT(BTree::LeafVersion(r.leaf), v0);  // phantom detectable
}

TEST(BTree, GetOrInsertIdempotent) {
  BTree tree;
  BTree::InsertResult first = tree.GetOrInsert(K(7));
  EXPECT_TRUE(first.created);
  BTree::InsertResult second = tree.GetOrInsert(K(7));
  EXPECT_FALSE(second.created);
  EXPECT_EQ(first.record, second.record);
  EXPECT_EQ(1u, tree.size());
}

TEST(BTree, SplitsPreserveOrderAndLinks) {
  BTree tree;
  constexpr int64_t kN = 5000;  // forces multi-level splits
  Rng rng(3);
  std::vector<int64_t> keys;
  for (int64_t i = 0; i < kN; ++i) keys.push_back(i);
  for (int64_t i = kN - 1; i > 0; --i) {
    std::swap(keys[i], keys[rng.NextInt(0, i)]);
  }
  for (int64_t k : keys) tree.GetOrInsert(K(k));
  EXPECT_EQ(static_cast<size_t>(kN), tree.size());
  // Full forward scan sees every key in order.
  int64_t expect = 0;
  tree.Scan("", "", [&expect](const std::string& key, Record*) {
    EXPECT_EQ(K(expect), key);
    ++expect;
    return true;
  });
  EXPECT_EQ(kN, expect);
  // Full reverse scan sees them backwards.
  expect = kN - 1;
  tree.ReverseScan("", "", [&expect](const std::string& key, Record*) {
    EXPECT_EQ(K(expect), key);
    --expect;
    return true;
  });
  EXPECT_EQ(-1, expect);
}

TEST(BTree, RangeScansRespectBounds) {
  BTree tree;
  for (int64_t i = 0; i < 100; ++i) tree.GetOrInsert(K(i * 2));  // evens
  std::vector<int64_t> seen;
  tree.Scan(K(10), K(20), [&seen](const std::string& key, Record*) {
    seen.push_back(DecodeKey(key).value()[0].AsInt64());
    return true;
  });
  EXPECT_EQ((std::vector<int64_t>{10, 12, 14, 16, 18}), seen);
  seen.clear();
  tree.ReverseScan(K(10), K(20), [&seen](const std::string& key, Record*) {
    seen.push_back(DecodeKey(key).value()[0].AsInt64());
    return true;
  });
  EXPECT_EQ((std::vector<int64_t>{18, 16, 14, 12, 10}), seen);
}

TEST(BTree, ScanEarlyStop) {
  BTree tree;
  for (int64_t i = 0; i < 100; ++i) tree.GetOrInsert(K(i));
  int count = 0;
  tree.Scan("", "", [&count](const std::string&, Record*) {
    return ++count < 5;
  });
  EXPECT_EQ(5, count);
}

// Property test: random interleaving of inserts/lookups/scans against a
// std::map reference model.
class BTreeModelTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BTreeModelTest, MatchesReferenceModel) {
  BTree tree;
  std::map<std::string, bool> model;
  Rng rng(GetParam());
  for (int op = 0; op < 3000; ++op) {
    int64_t key = rng.NextInt(0, 800);
    switch (rng.NextInt(0, 2)) {
      case 0: {
        tree.GetOrInsert(K(key));
        model[K(key)] = true;
        break;
      }
      case 1: {
        BTree::LookupResult r = tree.Get(K(key));
        EXPECT_EQ(model.count(K(key)) > 0, r.record != nullptr) << key;
        break;
      }
      default: {
        int64_t lo = rng.NextInt(0, 800);
        int64_t hi = lo + rng.NextInt(0, 100);
        std::vector<std::string> got;
        tree.Scan(K(lo), K(hi), [&got](const std::string& k, Record*) {
          got.push_back(k);
          return true;
        });
        std::vector<std::string> want;
        for (auto it = model.lower_bound(K(lo));
             it != model.end() && it->first < K(hi); ++it) {
          want.push_back(it->first);
        }
        EXPECT_EQ(want, got);
        break;
      }
    }
  }
  EXPECT_EQ(model.size(), tree.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BTreeModelTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

TEST(BTree, LeafVersionBumpsOnInsertOnly) {
  BTree tree;
  BTree::InsertResult r = tree.GetOrInsert(K(5));
  uint64_t v = BTree::LeafVersion(r.leaf);
  tree.Get(K(5));                   // reads don't bump
  tree.GetOrInsert(K(5));           // existing key doesn't bump
  EXPECT_EQ(v, BTree::LeafVersion(r.leaf));
  tree.GetOrInsert(K(6));           // new key bumps
  EXPECT_GT(BTree::LeafVersion(r.leaf), v);
}

// --- Unlink -------------------------------------------------------------

// A committed delete's word: what the reclaim queue passes to Unlink.
constexpr uint64_t kTombstone = TidWord::kAbsentBit | (uint64_t{3} << 30);

TEST(BTree, UnlinkRemovesKeyAndBumpsLeafVersion) {
  BTree tree;
  for (int64_t i = 0; i < 3; ++i) tree.GetOrInsert(K(i));
  BTree::LookupResult hit = tree.Get(K(1));
  Record* rec = hit.record;
  ASSERT_NE(nullptr, rec);
  rec->tid.store(kTombstone);
  const uint64_t v0 = hit.leaf_version;

  // Refusals: another record under the key, a changed word, a held lock.
  Record other;
  EXPECT_EQ(BTree::UnlinkResult::kStale, tree.Unlink(K(1), &other, kTombstone));
  EXPECT_EQ(BTree::UnlinkResult::kStale,
            tree.Unlink(K(1), rec, kTombstone + 1));
  EXPECT_EQ(BTree::UnlinkResult::kStale, tree.Unlink(K(9), rec, kTombstone));
  LockTid(&rec->tid);
  EXPECT_EQ(BTree::UnlinkResult::kLocked, tree.Unlink(K(1), rec, kTombstone));
  UnlockTid(&rec->tid);
  EXPECT_EQ(3u, tree.size());
  EXPECT_EQ(v0, BTree::LeafVersion(hit.leaf));  // refusals change nothing
  EXPECT_EQ(kTombstone, rec->tid.load());

  EXPECT_EQ(BTree::UnlinkResult::kUnlinked,
            tree.Unlink(K(1), rec, kTombstone));
  EXPECT_EQ(2u, tree.size());
  EXPECT_GT(BTree::LeafVersion(hit.leaf), v0);  // node sets see it
  EXPECT_EQ(TidWord::kUnlinkedWord, rec->tid.load());
  EXPECT_TRUE(TidWord::IsAbsent(rec->tid.load()));
  EXPECT_EQ(nullptr, tree.Get(K(1)).record);
  // Unlinked records belong to the caller; a second unlink is refused
  // without touching it.
  EXPECT_EQ(BTree::UnlinkResult::kStale, tree.Unlink(K(1), rec, kTombstone));
  delete rec;
  // A re-insert creates a fresh record.
  BTree::InsertResult again = tree.GetOrInsert(K(1));
  EXPECT_TRUE(again.created);
  EXPECT_EQ(TidWord::kAbsentBit, again.record->tid.load());
  EXPECT_EQ(3u, tree.size());
}

TEST(BTree, EmptiedLeavesLeaveTheScanPath) {
  // Oldest-first deletes over monotone inserts: the TPC-C new-order shape.
  BTree tree;
  constexpr int64_t kN = 5000;
  for (int64_t i = 0; i < kN; ++i) tree.GetOrInsert(K(i));
  for (int64_t i = 0; i < kN - 10; ++i) {
    Record* rec = tree.Get(K(i)).record;
    rec->tid.store(kTombstone);
    ASSERT_EQ(BTree::UnlinkResult::kUnlinked,
              tree.Unlink(K(i), rec, kTombstone));
    delete rec;
  }
  EXPECT_EQ(10u, tree.size());
  int leaves = 0;
  int64_t first = -1;
  tree.Scan(
      "", "",
      [&first](const std::string& key, Record*) {
        first = DecodeKey(key).value()[0].AsInt64();
        return false;
      },
      [&leaves](BTree::LeafNode*, uint64_t) { ++leaves; });
  EXPECT_EQ(kN - 10, first);
  EXPECT_EQ(1, leaves);  // no walk over emptied leaves
  // Detached leaves are reused by later splits; order and links survive.
  for (int64_t i = kN; i < 2 * kN; ++i) tree.GetOrInsert(K(i));
  int64_t expect = kN - 10;
  tree.Scan("", "", [&expect](const std::string& key, Record*) {
    EXPECT_EQ(K(expect), key);
    ++expect;
    return true;
  });
  EXPECT_EQ(2 * kN, expect);
  expect = 2 * kN - 1;
  tree.ReverseScan("", "", [&expect](const std::string& key, Record*) {
    EXPECT_EQ(K(expect), key);
    --expect;
    return true;
  });
  EXPECT_EQ(kN - 11, expect);
}

// Property test with unlinks: inserts, unlinks, lookups, and forward and
// reverse scans against a std::map reference model. Unlinks empty and
// detach leaves and collapse levels; inserts recycle the leaves.
class BTreeUnlinkModelTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BTreeUnlinkModelTest, MatchesReferenceModel) {
  BTree tree;
  std::set<std::string> model;
  Rng rng(GetParam());
  for (int op = 0; op < 24000; ++op) {
    // Phases bias toward inserts, then unlinks, so the tree grows past two
    // inner levels and shrinks again.
    const bool shrinking = (op / 6000) % 2 == 1;
    const int64_t key = rng.NextInt(0, 6000);
    const int64_t kind = rng.NextInt(0, 9);
    if (kind < 4) {
      if (shrinking && kind < 3) {
        Record* rec = tree.Get(K(key)).record;
        EXPECT_EQ(model.count(K(key)) > 0, rec != nullptr) << key;
        if (rec == nullptr) continue;
        rec->tid.store(kTombstone);
        ASSERT_EQ(BTree::UnlinkResult::kUnlinked,
                  tree.Unlink(K(key), rec, kTombstone));
        delete rec;
        model.erase(K(key));
      } else {
        tree.GetOrInsert(K(key));
        model.insert(K(key));
      }
    } else if (kind < 8) {
      if (shrinking) {
        Record* rec = tree.Get(K(key)).record;
        if (rec == nullptr) continue;
        rec->tid.store(kTombstone);
        ASSERT_EQ(BTree::UnlinkResult::kUnlinked,
                  tree.Unlink(K(key), rec, kTombstone));
        delete rec;
        model.erase(K(key));
      } else {
        tree.GetOrInsert(K(key));
        model.insert(K(key));
      }
    } else {
      const int64_t hi = key + rng.NextInt(0, 300);
      std::vector<std::string> got, got_rev;
      tree.Scan(K(key), K(hi), [&got](const std::string& k, Record*) {
        got.push_back(k);
        return true;
      });
      tree.ReverseScan(K(key), K(hi),
                       [&got_rev](const std::string& k, Record*) {
                         got_rev.push_back(k);
                         return true;
                       });
      std::vector<std::string> want(model.lower_bound(K(key)),
                                    model.lower_bound(K(hi)));
      EXPECT_EQ(want, got);
      std::reverse(got_rev.begin(), got_rev.end());
      EXPECT_EQ(want, got_rev);
    }
  }
  EXPECT_EQ(model.size(), tree.size());
  std::vector<std::string> all;
  tree.Scan("", "", [&all](const std::string& k, Record*) {
    all.push_back(k);
    return true;
  });
  EXPECT_EQ(std::vector<std::string>(model.begin(), model.end()), all);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BTreeUnlinkModelTest,
                         ::testing::Values(5, 17, 29, 41));

// --- Table / Catalog --------------------------------------------------------

TEST(Table, SecondaryEntryEncoding) {
  Table table(MakeCustomerSchema());
  ASSERT_EQ(1u, table.num_secondary_indexes());
  Row row = {Value(int64_t{1}), Value(int64_t{2}), Value("ABLE"), Value(0.0)};
  std::string entry = table.EncodeSecondaryEntry(0, row);
  std::string prefix =
      table.EncodeSecondaryPrefix(0, {Value(int64_t{1}), Value("ABLE")});
  EXPECT_EQ(0u, entry.find(prefix));  // entry starts with the search prefix
  EXPECT_GT(entry.size(), prefix.size());  // ... plus the primary key
  EXPECT_NE(nullptr, table.secondary("by_name"));
  EXPECT_EQ(nullptr, table.secondary("nope"));
}

TEST(Catalog, PerReactorNamespaces) {
  Catalog catalog;
  Schema schema = MakeCustomerSchema();
  ASSERT_TRUE(catalog.CreateTable("w_1", schema).ok());
  ASSERT_TRUE(catalog.CreateTable("w_2", schema).ok());
  EXPECT_FALSE(catalog.CreateTable("w_1", schema).ok());  // duplicate
  EXPECT_TRUE(catalog.GetTable("w_1", "customer").ok());
  EXPECT_FALSE(catalog.GetTable("w_3", "customer").ok());
  EXPECT_FALSE(catalog.GetTable("w_1", "orders").ok());
  EXPECT_EQ(2u, catalog.num_tables());
  EXPECT_EQ(1u, catalog.TablesOf("w_2").size());
  // Same-name tables in different reactors are distinct objects.
  EXPECT_NE(catalog.GetTable("w_1", "customer").value(),
            catalog.GetTable("w_2", "customer").value());
}

TEST(Catalog, SlotIndexResolvesWithoutNameMap) {
  Catalog catalog;
  Schema schema = MakeCustomerSchema();
  Table* t1 = catalog.CreateTable("w_1", schema).value();
  Table* t2 = catalog.CreateTable("w_2", schema).value();
  // Bootstrap registers each reactor's slot-ordered tables once; ReactorIds
  // are global, so a container's index is sparse over them.
  catalog.BindReactorTables(ReactorId{3}, {t1});
  catalog.BindReactorTables(ReactorId{7}, {t2});
  EXPECT_EQ(2u, catalog.num_bound_reactors());
  EXPECT_EQ(t1, catalog.FindBound(ReactorId{3}, TableSlot{0}));
  EXPECT_EQ(t2, catalog.FindBound(ReactorId{7}, TableSlot{0}));
  // Misses are nullptr, never out-of-bounds: unknown reactor, unbound
  // reactor in range, slot past the reactor's relations, invalid handles.
  EXPECT_EQ(nullptr, catalog.FindBound(ReactorId{5}, TableSlot{0}));
  EXPECT_EQ(nullptr, catalog.FindBound(ReactorId{100}, TableSlot{0}));
  EXPECT_EQ(nullptr, catalog.FindBound(ReactorId{3}, TableSlot{1}));
  EXPECT_EQ(nullptr, catalog.FindBound(ReactorId{}, TableSlot{0}));
  EXPECT_EQ(nullptr, catalog.FindBound(ReactorId{3}, TableSlot{}));
}

}  // namespace
}  // namespace reactdb
