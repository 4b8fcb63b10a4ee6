// LSM structural invariants, checked through the DB's public state
// after realistic write/flush/compact histories:
//  - L1+ files are disjoint in user-key ranges and sorted,
//  - level sizes respect the shape thresholds after compact_all,
//  - obsolete SST/WAL files are actually deleted from disk,
//  - MANIFEST reflects exactly the live files (crash-consistent view),
//  - no lookup folds more than kMaxSuccessiveMerges merge operands, and
//    the bounded chain reads exactly what the unbounded fold would.
#include <gtest/gtest.h>

#include <deque>
#include <filesystem>
#include <map>
#include <set>

#include "common/rng.h"
#include "daemon/metadata_merge.h"
#include "kv/db.h"
#include "kv/merge.h"

namespace gekko::kv {
namespace {

class LsmInvariantTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("gekko_lsm_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    Options o;
    o.memtable_budget = 8 * 1024;
    o.l0_compaction_trigger = 3;
    o.l1_max_bytes = 32 * 1024;
    o.target_sst_size = 16 * 1024;
    o.background_compaction = false;
    o.merge_operator = std::make_shared<AppendMergeOperator>();
    opts_ = o;
    auto db = DB::open(dir_ / "db", o);
    ASSERT_TRUE(db.is_ok());
    db_ = std::move(*db);
  }
  void TearDown() override {
    db_.reset();
    std::filesystem::remove_all(dir_);
  }

  /// Count on-disk .sst files.
  std::size_t sst_files_on_disk() {
    std::size_t n = 0;
    for (const auto& e :
         std::filesystem::directory_iterator(dir_ / "db")) {
      if (e.path().extension() == ".sst") ++n;
    }
    return n;
  }
  std::size_t wal_files_on_disk() {
    std::size_t n = 0;
    for (const auto& e :
         std::filesystem::directory_iterator(dir_ / "db")) {
      const std::string name = e.path().filename();
      if (name.starts_with("wal-")) ++n;
    }
    return n;
  }

  std::filesystem::path dir_;
  Options opts_;
  std::unique_ptr<DB> db_;
};

TEST_F(LsmInvariantTest, LevelFileCountsMatchDisk) {
  Xoshiro256 rng(17);
  for (int i = 0; i < 6000; ++i) {
    ASSERT_TRUE(db_->put("/k/" + std::to_string(rng.below(800)),
                         std::string(48, 'x'))
                    .is_ok());
  }
  ASSERT_TRUE(db_->flush().is_ok());
  const auto stats = db_->stats();
  std::size_t live = 0;
  for (int l = 0; l < kNumLevels; ++l) live += stats.level_files[l];
  // Every live file exists; every on-disk SST is live (GC complete).
  EXPECT_EQ(sst_files_on_disk(), live);
}

TEST_F(LsmInvariantTest, CompactAllDrainsUpperLevels) {
  for (int i = 0; i < 4000; ++i) {
    ASSERT_TRUE(
        db_->put("/c/" + std::to_string(i), std::string(40, 'y')).is_ok());
  }
  ASSERT_TRUE(db_->compact_all().is_ok());
  const auto stats = db_->stats();
  EXPECT_EQ(stats.level_files[0], 0u);  // L0 fully pushed down
  // All data still readable.
  for (int i : {0, 1234, 3999}) {
    EXPECT_TRUE(db_->get("/c/" + std::to_string(i)).is_ok()) << i;
  }
}

TEST_F(LsmInvariantTest, ExactlyOneActiveWal) {
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE(
        db_->put("/w/" + std::to_string(i), std::string(64, 'z')).is_ok());
  }
  // Multiple memtable switches happened; all flushed WALs must be gone.
  ASSERT_TRUE(db_->flush().is_ok());
  EXPECT_EQ(wal_files_on_disk(), 1u);
}

TEST_F(LsmInvariantTest, ScanIsSortedAndDuplicateFreeAfterChurn) {
  Xoshiro256 rng(23);
  std::set<std::string> live_keys;
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 800; ++i) {
      const std::string key = "/s/" + std::to_string(rng.below(500));
      if (rng.below(4) == 0) {
        ASSERT_TRUE(db_->erase(key).is_ok());
        live_keys.erase(key);
      } else {
        ASSERT_TRUE(db_->put(key, "r" + std::to_string(round)).is_ok());
        live_keys.insert(key);
      }
    }
    ASSERT_TRUE(db_->compact_all().is_ok());
  }
  std::vector<std::string> scanned;
  ASSERT_TRUE(db_->scan_prefix("/s/", [&](auto k, auto) {
                  scanned.emplace_back(k);
                  return true;
                })
                  .is_ok());
  // Sorted, no duplicates, exactly the live set.
  ASSERT_EQ(scanned.size(), live_keys.size());
  EXPECT_TRUE(std::is_sorted(scanned.begin(), scanned.end()));
  EXPECT_TRUE(std::adjacent_find(scanned.begin(), scanned.end()) ==
              scanned.end());
  EXPECT_TRUE(std::equal(scanned.begin(), scanned.end(),
                         live_keys.begin()));
}

TEST_F(LsmInvariantTest, MergeOperandsSurviveDeepCompaction) {
  // Merge chains must fold identically whether they live in the
  // memtable, L0, or deep levels after several compactions.
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(db_->put("/m/" + std::to_string(i), "base").is_ok());
  }
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(db_->merge("/m/" + std::to_string(i),
                             "op" + std::to_string(round))
                      .is_ok());
    }
    // Interleave filler to force flushes between merge generations.
    for (int f = 0; f < 500; ++f) {
      ASSERT_TRUE(db_->put("/fill/" + std::to_string(round * 1000 + f),
                           std::string(64, 'f'))
                      .is_ok());
    }
    ASSERT_TRUE(db_->compact_all().is_ok());
  }
  for (int i = 0; i < 50; ++i) {
    auto v = db_->get("/m/" + std::to_string(i));
    ASSERT_TRUE(v.is_ok()) << i;
    EXPECT_EQ(*v, "base,op0,op1,op2,op3") << i;
  }
}

TEST_F(LsmInvariantTest, ReopenAfterEveryCompactionState) {
  // Close/reopen at several points in the compaction lifecycle; the
  // MANIFEST must always describe a complete, readable database.
  Xoshiro256 rng(31);
  std::map<std::string, std::string> model;
  for (int phase = 0; phase < 4; ++phase) {
    for (int i = 0; i < 700; ++i) {
      const std::string key = "/r/" + std::to_string(rng.below(300));
      const std::string value = "p" + std::to_string(phase);
      ASSERT_TRUE(db_->put(key, value).is_ok());
      model[key] = value;
    }
    if (phase == 1) ASSERT_TRUE(db_->flush().is_ok());
    if (phase == 2) ASSERT_TRUE(db_->compact_all().is_ok());

    db_.reset();
    auto db = DB::open(dir_ / "db", opts_);
    ASSERT_TRUE(db.is_ok()) << "phase " << phase;
    db_ = std::move(*db);

    for (const auto& [k, v] : model) {
      auto got = db_->get(k);
      ASSERT_TRUE(got.is_ok()) << "phase " << phase << " " << k;
      ASSERT_EQ(*got, v) << "phase " << phase << " " << k;
    }
  }
}

// Differential test for the merge-chain bound. Random size updates
// (grow_to and set_to, through merge and merge_existing), puts,
// deletes, memtable switches, background flushes and compactions,
// snapshots and reopens (WAL replay) run against a few keys; every
// get, scan and snapshot get must equal an in-memory model that folds
// every operand with the same operator, and no lookup may meet more
// than kMaxSuccessiveMerges operands.
TEST(MergeChainBoundTest, MatchesUnboundedFoldAcrossLsmHistory) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("gekko_chain_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  Options o;
  o.memtable_budget = 4 * 1024;  // a memtable switch every ~100 ops
  o.l0_compaction_trigger = 3;
  o.l1_max_bytes = 32 * 1024;
  o.target_sst_size = 16 * 1024;
  o.background_compaction = true;
  o.compaction_threads = 2;
  const auto op = std::make_shared<daemon::MetadataMergeOperator>();
  o.merge_operator = op;
  auto opened = DB::open(dir, o);
  ASSERT_TRUE(opened.is_ok());
  std::unique_ptr<DB> db = std::move(*opened);

  using Model = std::map<std::string, std::string>;
  Model model;
  auto fold = [&](Model& m, const std::string& key,
                  const std::string& operand) {
    auto it = m.find(key);
    std::string v = op->merge(key, it == m.end() ? nullptr : &it->second,
                              operand);
    m[key] = std::move(v);
  };
  auto expect_get = [&](const Model& m, const std::string& key,
                        const ReadOptions& ro, const std::string& where) {
    auto got = db->get(key, ro);
    auto want = m.find(key);
    if (want == m.end()) {
      EXPECT_EQ(got.code(), Errc::not_found) << where << " " << key;
    } else {
      ASSERT_TRUE(got.is_ok()) << where << " " << key;
      EXPECT_EQ(*got, want->second) << where << " " << key;
    }
  };
  auto expect_scan = [&](const Model& m, const ReadOptions& ro,
                         const std::string& where) {
    Model scanned;
    ASSERT_TRUE(db->scan_prefix("/", [&](auto k, auto v) {
                    scanned.emplace(k, v);
                    return true;
                  }, ro)
                    .is_ok());
    EXPECT_EQ(scanned, m) << where;
  };
  auto expect_bound = [&](const std::string& where) {
    EXPECT_LE(db->stats().max_merge_operands, kMaxSuccessiveMerges)
        << where;
  };

  struct Snap {
    std::shared_ptr<Snapshot> handle;
    Model model;
  };
  std::deque<Snap> snaps;
  Xoshiro256 rng(0x5eed);
  std::uint64_t merges = 0;
  for (int step = 0; step < 20000; ++step) {
    const std::string where = "step " + std::to_string(step);
    const std::string key = "/f/" + std::to_string(rng.below(4));
    const std::uint64_t size = rng.below(1 << 20);
    const auto mtime = static_cast<std::int64_t>(step);
    const std::uint64_t pick = rng.below(100);
    if (pick < 55) {
      const std::string operand = daemon::encode_size_operand(
          daemon::SizeOp::grow_to, size, mtime);
      ASSERT_TRUE(db->merge(key, operand).is_ok()) << where;
      fold(model, key, operand);
      ++merges;
    } else if (pick < 65) {
      const std::string operand = daemon::encode_size_operand(
          daemon::SizeOp::set_to, size, mtime);
      ASSERT_TRUE(db->merge(key, operand).is_ok()) << where;
      fold(model, key, operand);
      ++merges;
    } else if (pick < 73) {
      const std::string operand = daemon::encode_size_operand(
          daemon::SizeOp::grow_to, size, mtime);
      const Status st = db->merge_existing(key, operand);
      if (model.count(key) != 0) {
        ASSERT_TRUE(st.is_ok()) << where;
        fold(model, key, operand);
        ++merges;
      } else {
        ASSERT_EQ(st.code(), Errc::not_found) << where;
      }
    } else if (pick < 81) {
      proto::Metadata md;
      md.size = size;
      md.ctime_ns = md.mtime_ns = mtime;
      ASSERT_TRUE(db->put(key, md.encode()).is_ok()) << where;
      model[key] = md.encode();
    } else if (pick < 87) {
      ASSERT_TRUE(db->erase(key).is_ok()) << where;
      model.erase(key);
    } else if (pick < 91) {
      ASSERT_TRUE(db->flush().is_ok()) << where;
    } else if (pick < 93) {
      ASSERT_TRUE(db->compact_all().is_ok()) << where;
    } else if (pick < 96) {
      if (snaps.size() < 3) snaps.push_back({db->snapshot(), model});
    } else if (pick < 98) {
      if (!snaps.empty()) snaps.pop_front();
    } else if (pick < 99) {
      expect_bound(where);
      snaps.clear();  // a snapshot pins the DB it came from
      db.reset();
      auto reopened = DB::open(dir, o);
      ASSERT_TRUE(reopened.is_ok()) << where;
      db = std::move(*reopened);
    } else {
      expect_scan(model, {}, where);
      for (const Snap& sn : snaps) {
        expect_scan(sn.model, ReadOptions{sn.handle->sequence()},
                    where + " snapshot");
      }
    }
    expect_get(model, "/f/" + std::to_string(rng.below(4)), {}, where);
    if (!snaps.empty()) {
      const Snap& sn = snaps[rng.below(snaps.size())];
      expect_get(sn.model, "/f/" + std::to_string(rng.below(4)),
                 ReadOptions{sn.handle->sequence()}, where + " snapshot");
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
  expect_bound("random phase");

  // One hot key takes 10,000 size updates; the chain a stat folds stays
  // at the bound the whole way.
  const std::string hot = "/hot";
  ASSERT_TRUE(db->put(hot, proto::Metadata{}.encode()).is_ok());
  model[hot] = proto::Metadata{}.encode();
  const std::uint64_t folds_before = db->stats().merge_folds;
  constexpr int kHotMerges = 10000;
  for (int i = 0; i < kHotMerges; ++i) {
    const auto kind = i % 97 == 0 ? daemon::SizeOp::set_to
                                  : daemon::SizeOp::grow_to;
    const std::string operand = daemon::encode_size_operand(
        kind, rng.below(1 << 30), static_cast<std::int64_t>(i));
    ASSERT_TRUE(db->merge(hot, operand).is_ok()) << i;
    fold(model, hot, operand);
    if (i % 100 == 0) expect_get(model, hot, {}, "hot " + std::to_string(i));
  }
  expect_get(model, hot, {}, "hot");
  expect_scan(model, {}, "hot");
  const DbStats stats = db->stats();
  EXPECT_LE(stats.max_merge_operands, kMaxSuccessiveMerges);
  EXPECT_GT(stats.max_merge_operands, 0u);
  EXPECT_GE(stats.merge_folds - folds_before,
            kHotMerges / (kMaxSuccessiveMerges + 1));
  EXPECT_GT(merges, 10000u);  // the random phase merged too

  snaps.clear();
  db.reset();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace gekko::kv
