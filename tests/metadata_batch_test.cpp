// Batched metadata RPCs end to end: wire round-trips and
// malformed-frame rejection for the batch messages, the decode
// preallocation clamps, batch_create/stat/remove against a live
// cluster (partial failure per entry), and dirent-shard placement
// spread for a hot directory.
#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <vector>

#include "cluster/cluster.h"
#include "common/metrics.h"
#include "proto/distributor.h"
#include "proto/messages.h"

namespace gekko {
namespace {

// ---------- wire round-trips ----------

TEST(BatchProtoTest, CreateRequestRoundTrip) {
  proto::BatchCreateRequest req;
  req.entries.push_back({"/dir/a", 0, 0644, 111});
  req.entries.push_back({"/dir/b", 1, 0755, 222});
  auto buf = req.encode();
  auto back = proto::BatchCreateRequest::decode(
      {reinterpret_cast<const char*>(buf.data()), buf.size()});
  ASSERT_TRUE(back.is_ok());
  ASSERT_EQ(back->entries.size(), 2u);
  EXPECT_EQ(back->entries[0].path, "/dir/a");
  EXPECT_EQ(back->entries[1].type, 1);
  EXPECT_EQ(back->entries[1].mode, 0755u);
  EXPECT_EQ(back->entries[0].ctime_ns, 111);
}

TEST(BatchProtoTest, StatResponseMetadataPresentIffOk) {
  proto::BatchStatResponse resp;
  proto::BatchStatResponse::Entry ok;
  ok.status = proto::BatchStatus::ok;
  ok.metadata.size = 42;
  resp.entries.push_back(ok);
  proto::BatchStatResponse::Entry missing;
  missing.status = proto::BatchStatus::not_found;
  resp.entries.push_back(missing);
  auto buf = resp.encode();
  auto back = proto::BatchStatResponse::decode(
      {reinterpret_cast<const char*>(buf.data()), buf.size()});
  ASSERT_TRUE(back.is_ok());
  ASSERT_EQ(back->entries.size(), 2u);
  EXPECT_EQ(back->entries[0].status, proto::BatchStatus::ok);
  EXPECT_EQ(back->entries[0].metadata.size, 42u);
  EXPECT_EQ(back->entries[1].status, proto::BatchStatus::not_found);
}

TEST(BatchProtoTest, RemoveResponseRoundTrip) {
  proto::BatchRemoveResponse resp;
  resp.entries.push_back({proto::BatchStatus::ok, 4096, 0});
  resp.entries.push_back({proto::BatchStatus::not_found, 0, 0});
  resp.entries.push_back({proto::BatchStatus::ok, 0, 1});
  auto buf = resp.encode();
  auto back = proto::BatchRemoveResponse::decode(
      {reinterpret_cast<const char*>(buf.data()), buf.size()});
  ASSERT_TRUE(back.is_ok());
  ASSERT_EQ(back->entries.size(), 3u);
  EXPECT_EQ(back->entries[0].old_size, 4096u);
  EXPECT_EQ(back->entries[2].was_directory, 1);
}

TEST(BatchProtoTest, StatusErrcMappingIsTotalBothWays) {
  // Every BatchStatus must survive to_errc(from_errc(to_errc(s)));
  // keeps the two conversion sites honest (gekko-lint checks the
  // source, this checks the semantics).
  for (std::uint8_t v = 0; proto::batch_status_valid(v); ++v) {
    const auto s = static_cast<proto::BatchStatus>(v);
    const Errc e = proto::batch_status_to_errc(s);
    EXPECT_EQ(proto::batch_status_to_errc(proto::batch_status_from_errc(e)),
              e)
        << "status " << static_cast<int>(v);
  }
  // Unknown daemon-side codes collapse to the io_error catch-all.
  EXPECT_EQ(proto::batch_status_from_errc(Errc::timed_out),
            proto::BatchStatus::io_error);
}

// ---------- malformed frames: count clamps ----------

// A frame whose repeated-field count claims more entries than the
// remaining bytes could possibly hold must be rejected as corruption
// BEFORE reserve() — a 0xffffffff count must not allocate gigabytes.
template <typename Msg>
void expect_huge_count_rejected(const std::vector<std::uint8_t>& frame) {
  auto r = Msg::decode(
      {reinterpret_cast<const char*>(frame.data()), frame.size()});
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.code(), Errc::corruption);
}

std::vector<std::uint8_t> huge_count_frame() {
  std::vector<std::uint8_t> buf;
  Encoder enc(&buf);
  enc.varint(0xffffffffull);  // count; nothing follows
  return buf;
}

TEST(BatchProtoTest, HugeCountsAreCorruptionNotAllocation) {
  const auto frame = huge_count_frame();
  expect_huge_count_rejected<proto::DirentsResponse>(frame);
  expect_huge_count_rejected<proto::BatchCreateRequest>(frame);
  expect_huge_count_rejected<proto::BatchCreateResponse>(frame);
  expect_huge_count_rejected<proto::BatchPathRequest>(frame);
  expect_huge_count_rejected<proto::BatchStatResponse>(frame);
  expect_huge_count_rejected<proto::BatchRemoveResponse>(frame);
}

TEST(BatchProtoTest, ChunkIoHugeSliceCountRejected) {
  std::vector<std::uint8_t> buf;
  Encoder enc(&buf);
  enc.str("/f");
  enc.varint(0xffffffffull);  // slice count with an empty tail
  expect_huge_count_rejected<proto::ChunkIoRequest>(buf);
}

TEST(BatchProtoTest, TruncatedEntryTailIsCorruption) {
  proto::BatchCreateRequest req;
  req.entries.push_back({"/dir/abcdefgh", 0, 0644, 1});
  req.entries.push_back({"/dir/ijklmnop", 0, 0644, 2});
  auto buf = req.encode();
  buf.resize(buf.size() - 5);  // cut into the last entry
  auto r = proto::BatchCreateRequest::decode(
      {reinterpret_cast<const char*>(buf.data()), buf.size()});
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.code(), Errc::corruption);
}

TEST(BatchProtoTest, InvalidStatusByteIsCorruption) {
  std::vector<std::uint8_t> buf;
  Encoder enc(&buf);
  enc.varint(1);
  enc.u8(250);  // way past BatchStatus::io_error
  auto r = proto::BatchCreateResponse::decode(
      {reinterpret_cast<const char*>(buf.data()), buf.size()});
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.code(), Errc::corruption);
}

// ---------- live-cluster batch RPCs ----------

class BatchRpcTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = std::filesystem::temp_directory_path() /
            ("gekko_batch_" + std::to_string(::getpid()));
    std::filesystem::remove_all(root_);
    cluster::ClusterOptions opts;
    opts.nodes = 4;
    opts.root = root_;
    opts.daemon_options.kv_options.background_compaction = false;
    auto c = cluster::Cluster::start(opts);
    ASSERT_TRUE(c.is_ok());
    cluster_ = std::move(*c);
    mnt_ = cluster_->mount();
  }
  void TearDown() override {
    mnt_.reset();
    cluster_.reset();
    std::filesystem::remove_all(root_);
  }

  std::filesystem::path root_;
  std::unique_ptr<cluster::Cluster> cluster_;
  std::unique_ptr<fs::Mount> mnt_;
};

TEST_F(BatchRpcTest, CreateBatchPartialFailurePerEntry) {
  auto& client = mnt_->client();
  // Pre-create one path the batch will collide with.
  auto fd = mnt_->open("/d/b", fs::create | fs::wr_only);
  ASSERT_TRUE(fd.is_ok());
  ASSERT_TRUE(mnt_->close(*fd).is_ok());

  std::vector<Errc> out;
  ASSERT_TRUE(client
                  .create_batch({"/d/a", "/d/b", "/d/c", "/d/a"},
                                proto::FileType::regular, &out)
                  .is_ok());
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0], Errc::ok);
  EXPECT_EQ(out[1], Errc::exists);     // collided with the pre-created file
  EXPECT_EQ(out[2], Errc::ok);
  EXPECT_EQ(out[3], Errc::exists);     // duplicate inside the batch
  // The survivors are real files.
  EXPECT_TRUE(mnt_->stat("/d/a").is_ok());
  EXPECT_TRUE(mnt_->stat("/d/c").is_ok());
}

TEST_F(BatchRpcTest, StatBatchMixedHitsAndMisses) {
  auto& client = mnt_->client();
  std::vector<Errc> out;
  ASSERT_TRUE(client.create_batch({"/s/a", "/s/b"}, proto::FileType::regular,
                                  &out)
                  .is_ok());
  // Give /s/b some data so its metadata size is nonzero.
  auto fd = mnt_->open("/s/b", fs::wr_only);
  ASSERT_TRUE(fd.is_ok());
  const std::vector<std::uint8_t> data(1000, 0xab);
  ASSERT_TRUE(mnt_->pwrite(*fd, data, 0).is_ok());
  ASSERT_TRUE(mnt_->close(*fd).is_ok());

  std::vector<proto::Metadata> mds;
  ASSERT_TRUE(client.stat_batch({"/s/a", "/missing", "/s/b"}, &out, &mds)
                  .is_ok());
  ASSERT_EQ(out.size(), 3u);
  ASSERT_EQ(mds.size(), 3u);
  EXPECT_EQ(out[0], Errc::ok);
  EXPECT_EQ(out[1], Errc::not_found);
  EXPECT_EQ(out[2], Errc::ok);
  EXPECT_EQ(mds[0].size, 0u);
  EXPECT_EQ(mds[2].size, 1000u);
}

TEST_F(BatchRpcTest, RemoveBatchCleansDataAndReportsMisses) {
  auto& client = mnt_->client();
  std::vector<Errc> out;
  ASSERT_TRUE(client.create_batch({"/r/a", "/r/b"}, proto::FileType::regular,
                                  &out)
                  .is_ok());
  auto fd = mnt_->open("/r/a", fs::wr_only);
  ASSERT_TRUE(fd.is_ok());
  const std::vector<std::uint8_t> data(64 * 1024, 0xcd);
  ASSERT_TRUE(mnt_->pwrite(*fd, data, 0).is_ok());
  ASSERT_TRUE(mnt_->close(*fd).is_ok());

  ASSERT_TRUE(client.remove_batch({"/r/a", "/nope", "/r/b"}, &out).is_ok());
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], Errc::ok);
  EXPECT_EQ(out[1], Errc::not_found);
  EXPECT_EQ(out[2], Errc::ok);
  EXPECT_EQ(mnt_->stat("/r/a").code(), Errc::not_found);
  EXPECT_EQ(mnt_->stat("/r/b").code(), Errc::not_found);
  // Re-creating and reading back must see fresh (empty) data, i.e. the
  // old chunks really were cleaned up.
  ASSERT_TRUE(client.create_batch({"/r/a"}, proto::FileType::regular, &out)
                  .is_ok());
  auto md = mnt_->stat("/r/a");
  ASSERT_TRUE(md.is_ok());
  EXPECT_EQ(md->size, 0u);
}

TEST_F(BatchRpcTest, BatchedFilesVisibleInReaddirMerge) {
  auto& client = mnt_->client();
  ASSERT_TRUE(mnt_->mkdir("/list").is_ok());
  std::vector<std::string> paths;
  for (int i = 0; i < 40; ++i) {
    paths.push_back("/list/f" + std::to_string(i));
  }
  std::vector<Errc> out;
  ASSERT_TRUE(
      client.create_batch(paths, proto::FileType::regular, &out).is_ok());
  for (const Errc e : out) EXPECT_EQ(e, Errc::ok);

  // readdir fans out get_dirents to every daemon and merges: all 40
  // entries must come back exactly once despite being sharded.
  auto dirfd = mnt_->opendir("/list");
  ASSERT_TRUE(dirfd.is_ok());
  std::set<std::string> seen;
  for (;;) {
    auto e = mnt_->readdir(*dirfd);
    ASSERT_TRUE(e.is_ok());
    if (!e->has_value()) break;
    EXPECT_TRUE(seen.insert((**e).name).second) << (**e).name;
  }
  EXPECT_EQ(seen.size(), 40u);
}

// ---------- dirent-shard placement ----------

TEST(DirentShardTest, HotDirectorySpreadsAcrossDaemons) {
  // Siblings of one directory must land on many daemons (the seeded
  // per-entry hash decorrelates them from the shared parent prefix).
  proto::HashDistributor dist(4);
  std::vector<std::size_t> per_daemon(4, 0);
  for (int i = 0; i < 400; ++i) {
    ++per_daemon[dist.metadata_target("/hot/dir/file." + std::to_string(i))];
  }
  for (std::uint32_t d = 0; d < 4; ++d) {
    // Fair share is 100; require at least a third of it on every
    // daemon — a prefix-biased key would put ~everything on one.
    EXPECT_GT(per_daemon[d], 33u) << "daemon " << d;
  }
  // The shard key is the (parent, name) pair: the same names under a
  // different parent produce a different placement pattern.
  std::size_t moved = 0;
  for (int i = 0; i < 400; ++i) {
    const std::string name = "file." + std::to_string(i);
    if (dist.dirent_target("/hot/dir", name) !=
        dist.dirent_target("/cold/dir", name)) {
      ++moved;
    }
  }
  EXPECT_GT(moved, 200u);
}

}  // namespace
}  // namespace gekko
