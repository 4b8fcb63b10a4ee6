// Daemon-side tests: metadata backend semantics, the size-merge
// operator, dirent sharding, and RPC handlers through a real engine.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <thread>
#include <vector>

#include "common/lockdep.h"
#include "common/metrics.h"
#include "daemon/daemon.h"
#include "daemon/metadata_backend.h"
#include "daemon/metadata_merge.h"
#include "proto/messages.h"
#include "rpc/engine.h"

namespace gekko::daemon {
namespace {

// Run the suite with the runtime lock-order validator on: daemon/rpc
// paths take several locks per request, so inversions abort here.
const bool kLockdepOn = [] {
  gekko::lockdep::set_enabled(true);
  return true;
}();

std::filesystem::path fresh_dir(const char* tag) {
  auto dir = std::filesystem::temp_directory_path() /
             (std::string("gekko_daemon_") + tag + "_" +
              std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  return dir;
}

proto::Metadata regular_md(std::uint64_t size = 0) {
  proto::Metadata md;
  md.type = proto::FileType::regular;
  md.size = size;
  md.ctime_ns = md.mtime_ns = 1000;
  return md;
}

// ---------- merge operator ----------

TEST(MetadataMergeTest, GrowToKeepsMax) {
  MetadataMergeOperator op;
  const std::string base = regular_md(100).encode();
  std::string merged =
      op.merge("/f", &base, encode_size_operand(SizeOp::grow_to, 500, 2000));
  auto md = proto::Metadata::decode(merged);
  ASSERT_TRUE(md.is_ok());
  EXPECT_EQ(md->size, 500u);
  EXPECT_EQ(md->mtime_ns, 2000);

  merged =
      op.merge("/f", &merged, encode_size_operand(SizeOp::grow_to, 300, 1500));
  md = proto::Metadata::decode(merged);
  EXPECT_EQ(md->size, 500u);      // 300 < 500: no shrink
  EXPECT_EQ(md->mtime_ns, 2000);  // mtime keeps max too
}

TEST(MetadataMergeTest, SetToOverridesForTruncate) {
  MetadataMergeOperator op;
  const std::string base = regular_md(1000).encode();
  const std::string merged =
      op.merge("/f", &base, encode_size_operand(SizeOp::set_to, 10, 3000));
  auto md = proto::Metadata::decode(merged);
  EXPECT_EQ(md->size, 10u);
}

TEST(MetadataMergeTest, MissingBaseYieldsDefaultRecord) {
  MetadataMergeOperator op;
  const std::string merged =
      op.merge("/f", nullptr, encode_size_operand(SizeOp::grow_to, 42, 1));
  auto md = proto::Metadata::decode(merged);
  ASSERT_TRUE(md.is_ok());
  EXPECT_EQ(md->size, 42u);
}

// ---------- metadata backend ----------

class MetadataBackendTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fresh_dir("mdb");
    kv::Options opts;
    opts.background_compaction = false;
    auto mb = MetadataBackend::open(dir_, opts);
    ASSERT_TRUE(mb.is_ok());
    mb_ = std::move(*mb);
  }
  void TearDown() override {
    mb_.reset();
    std::filesystem::remove_all(dir_);
  }

  std::filesystem::path dir_;
  std::unique_ptr<MetadataBackend> mb_;
};

TEST_F(MetadataBackendTest, CreateGetRemoveCycle) {
  ASSERT_TRUE(mb_->create("/a", regular_md()).is_ok());
  EXPECT_EQ(mb_->create("/a", regular_md()).code(), Errc::exists);
  auto md = mb_->get("/a");
  ASSERT_TRUE(md.is_ok());
  EXPECT_EQ(md->size, 0u);

  auto removed = mb_->remove("/a");
  ASSERT_TRUE(removed.is_ok());
  EXPECT_EQ(mb_->get("/a").code(), Errc::not_found);
  EXPECT_EQ(mb_->remove("/a").code(), Errc::not_found);
}

TEST_F(MetadataBackendTest, UpdateSizeIsMonotonicMax) {
  ASSERT_TRUE(mb_->create("/f", regular_md()).is_ok());
  ASSERT_TRUE(mb_->update_size("/f", 100, 10).is_ok());
  ASSERT_TRUE(mb_->update_size("/f", 50, 20).is_ok());
  EXPECT_EQ(mb_->get("/f")->size, 100u);
  ASSERT_TRUE(mb_->set_size("/f", 10).is_ok());
  EXPECT_EQ(mb_->get("/f")->size, 10u);
}

// A writer's size update that lands after another rank's unlink must
// not bring the file back: stat, readdir and create all see it gone.
TEST_F(MetadataBackendTest, LateSizeUpdateDoesNotResurrectRemovedFile) {
  for (const bool flushed : {false, true}) {
    SCOPED_TRACE(flushed ? "record in an SST" : "record in the memtable");
    ASSERT_TRUE(mb_->create("/ghost", regular_md()).is_ok());
    if (flushed) {
      ASSERT_TRUE(mb_->db().flush().is_ok());
    }
    ASSERT_TRUE(mb_->remove("/ghost").is_ok());
    if (flushed) {
      ASSERT_TRUE(mb_->db().flush().is_ok());
    }

    EXPECT_TRUE(mb_->update_size("/ghost", 4096, 2000).is_ok());
    EXPECT_TRUE(mb_->set_size("/ghost", 10).is_ok());
    EXPECT_EQ(mb_->get("/ghost").code(), Errc::not_found);
    auto entries = mb_->dirents("/");
    ASSERT_TRUE(entries.is_ok());
    EXPECT_TRUE(entries->empty());
    EXPECT_EQ(mb_->remove("/ghost").code(), Errc::not_found);

    ASSERT_TRUE(mb_->create("/ghost", regular_md()).is_ok());
    auto md = mb_->get("/ghost");
    ASSERT_TRUE(md.is_ok());
    EXPECT_EQ(md->size, 0u);
    ASSERT_TRUE(mb_->remove("/ghost").is_ok());
  }
  // A path that never existed stays absent too.
  EXPECT_TRUE(mb_->update_size("/never", 1, 1).is_ok());
  EXPECT_EQ(mb_->get("/never").code(), Errc::not_found);
  EXPECT_EQ(*mb_->entry_count(), 0u);
}

TEST_F(MetadataBackendTest, RemoveReturnsFoldedRecord) {
  ASSERT_TRUE(mb_->create("/r", regular_md()).is_ok());
  ASSERT_TRUE(mb_->update_size("/r", 8192, 3000).is_ok());
  auto removed = mb_->remove("/r");
  ASSERT_TRUE(removed.is_ok());
  EXPECT_EQ(removed->size, 8192u);
  EXPECT_EQ(removed->mtime_ns, 3000);
  EXPECT_EQ(mb_->db().stats().gets, 0u);  // one locked lookup, no get
}

// Three writers fold size updates into one record while a reader stats
// it, with background flushes underneath (small memtable). Runs under
// the sanitize label: TSan and lockdep check the lookup merge() now
// does under the kv.db lock.
TEST(MetadataBackendConcurrencyTest, WritersMergeWhileReaderStats) {
  const auto dir = fresh_dir("conc");
  kv::Options opts;
  opts.memtable_budget = 8 * 1024;
  auto mb = MetadataBackend::open(dir, opts);
  ASSERT_TRUE(mb.is_ok());
  ASSERT_TRUE((*mb)->create("/shared", regular_md()).is_ok());

  constexpr std::uint64_t kWriters = 3;
  constexpr std::uint64_t kUpdates = 2000;
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> reads{0};
  std::thread reader([&] {
    std::uint64_t last = 0;
    while (!done.load()) {
      auto md = (*mb)->get("/shared");
      if (!md.is_ok()) {
        ADD_FAILURE() << md.status().to_string();
        return;
      }
      EXPECT_GE(md->size, last);  // grow_to folds are monotone
      last = md->size;
      reads.fetch_add(1);
    }
  });
  std::vector<std::thread> writers;
  for (std::uint64_t t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      for (std::uint64_t i = 1; i <= kUpdates; ++i) {
        const std::uint64_t size = (i * kWriters + t) * 4096;
        EXPECT_TRUE((*mb)->update_size("/shared", size,
                                       static_cast<std::int64_t>(size))
                        .is_ok());
      }
    });
  }
  for (auto& w : writers) w.join();
  done.store(true);
  reader.join();

  auto md = (*mb)->get("/shared");
  ASSERT_TRUE(md.is_ok());
  EXPECT_EQ(md->size, (kUpdates * kWriters + kWriters - 1) * 4096);
  const kv::DbStats stats = (*mb)->db().stats();
  EXPECT_EQ(stats.merges, kWriters * kUpdates);
  EXPECT_GE(stats.merge_folds, kWriters * kUpdates /
                                   (kv::kMaxSuccessiveMerges + 1));
  EXPECT_LE(stats.max_merge_operands, kv::kMaxSuccessiveMerges);
  EXPECT_GT(reads.load(), 0u);
  mb->reset();
  std::filesystem::remove_all(dir);
}

TEST_F(MetadataBackendTest, DirentsFilterDirectChildren) {
  proto::Metadata dir_md;
  dir_md.type = proto::FileType::directory;
  ASSERT_TRUE(mb_->create("/d", dir_md).is_ok());
  ASSERT_TRUE(mb_->create("/d/x", regular_md()).is_ok());
  ASSERT_TRUE(mb_->create("/d/y", dir_md).is_ok());
  ASSERT_TRUE(mb_->create("/d/y/deep", regular_md()).is_ok());
  ASSERT_TRUE(mb_->create("/dz", regular_md()).is_ok());  // sibling, not child

  auto entries = mb_->dirents("/d");
  ASSERT_TRUE(entries.is_ok());
  ASSERT_EQ(entries->size(), 2u);
  EXPECT_EQ((*entries)[0].name, "x");
  EXPECT_EQ((*entries)[0].type, proto::FileType::regular);
  EXPECT_EQ((*entries)[1].name, "y");
  EXPECT_EQ((*entries)[1].type, proto::FileType::directory);

  auto root_entries = mb_->dirents("/");
  ASSERT_TRUE(root_entries.is_ok());
  EXPECT_EQ(root_entries->size(), 2u);  // /d and /dz
}

TEST_F(MetadataBackendTest, EntryCount) {
  EXPECT_EQ(*mb_->entry_count(), 0u);
  for (int i = 0; i < 25; ++i) {
    ASSERT_TRUE(
        mb_->create("/n/" + std::to_string(i), regular_md()).is_ok());
  }
  EXPECT_EQ(*mb_->entry_count(), 25u);
}

// ---------- daemon RPC handlers over a real engine ----------

class DaemonRpcTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fresh_dir("rpc");
    DaemonOptions opts;
    opts.chunk_size = 4096;
    opts.kv_options.background_compaction = false;
    auto d = GekkoDaemon::start(fabric_, dir_, opts);
    ASSERT_TRUE(d.is_ok());
    daemon_ = std::move(*d);
    client_ = std::make_unique<rpc::Engine>(fabric_,
                                            rpc::EngineOptions{.name = "t"});
  }
  void TearDown() override {
    client_.reset();
    daemon_.reset();
    std::filesystem::remove_all(dir_);
  }

  Result<std::vector<std::uint8_t>> call(proto::RpcId id,
                                         std::vector<std::uint8_t> payload,
                                         net::BulkRegion bulk = {}) {
    return client_->forward(daemon_->endpoint(), proto::to_wire(id),
                            std::move(payload), bulk);
  }

  net::LoopbackFabric fabric_;
  std::filesystem::path dir_;
  std::unique_ptr<GekkoDaemon> daemon_;
  std::unique_ptr<rpc::Engine> client_;
};

TEST_F(DaemonRpcTest, CreateStatRemoveViaRpc) {
  proto::CreateRequest create;
  create.path = "/rpc-file";
  create.ctime_ns = 777;
  ASSERT_TRUE(call(proto::RpcId::create, create.encode()).is_ok());
  EXPECT_EQ(call(proto::RpcId::create, create.encode()).code(),
            Errc::exists);

  proto::PathRequest stat_req{"/rpc-file"};
  auto stat_resp = call(proto::RpcId::stat, stat_req.encode());
  ASSERT_TRUE(stat_resp.is_ok());
  auto decoded = proto::StatResponse::decode(std::string_view(
      reinterpret_cast<const char*>(stat_resp->data()), stat_resp->size()));
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded->metadata.ctime_ns, 777);

  auto remove_resp = call(proto::RpcId::remove_metadata, stat_req.encode());
  ASSERT_TRUE(remove_resp.is_ok());
  EXPECT_EQ(call(proto::RpcId::stat, stat_req.encode()).code(),
            Errc::not_found);
}

TEST_F(DaemonRpcTest, LateUpdateSizeAfterRemoveLeavesPathAbsent) {
  proto::CreateRequest create;
  create.path = "/ghost";
  ASSERT_TRUE(call(proto::RpcId::create, create.encode()).is_ok());
  const proto::PathRequest path_req{"/ghost"};
  ASSERT_TRUE(
      call(proto::RpcId::remove_metadata, path_req.encode()).is_ok());

  proto::UpdateSizeRequest late;
  late.path = "/ghost";
  late.observed_size = 4096;
  late.mtime_ns = 2000;
  EXPECT_TRUE(call(proto::RpcId::update_size, late.encode()).is_ok());

  EXPECT_EQ(call(proto::RpcId::stat, path_req.encode()).code(),
            Errc::not_found);
  auto listing =
      call(proto::RpcId::get_dirents, proto::DirentsRequest{"/"}.encode());
  ASSERT_TRUE(listing.is_ok());
  auto dirents = proto::DirentsResponse::decode(std::string_view(
      reinterpret_cast<const char*>(listing->data()), listing->size()));
  ASSERT_TRUE(dirents.is_ok());
  EXPECT_TRUE(dirents->entries.empty());
  EXPECT_TRUE(call(proto::RpcId::create, create.encode()).is_ok());
}

TEST_F(DaemonRpcTest, WriteThenReadChunksViaBulk) {
  std::vector<std::uint8_t> data(6000);  // crosses the 4096 chunk boundary
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i);
  }
  proto::ChunkIoRequest wr;
  wr.path = "/bulk";
  wr.slices = {{0, 0, 4096, 0}, {1, 0, 1904, 4096}};
  auto wresp = call(proto::RpcId::write_chunks, wr.encode(),
                    net::BulkRegion::expose_read(data));
  ASSERT_TRUE(wresp.is_ok()) << wresp.status().to_string();
  auto wdecoded = proto::ChunkIoResponse::decode(std::string_view(
      reinterpret_cast<const char*>(wresp->data()), wresp->size()));
  EXPECT_EQ(wdecoded->bytes, 6000u);

  std::vector<std::uint8_t> out(6000, 0);
  auto rresp = call(proto::RpcId::read_chunks, wr.encode(),
                    net::BulkRegion::expose_write(out));
  ASSERT_TRUE(rresp.is_ok());
  EXPECT_EQ(out, data);
}

TEST_F(DaemonRpcTest, ParallelSliceIoRoundTripsAndRecordsMetrics) {
  // Many-slice requests against a daemon with a real io pool: slices
  // fan out as independent tasks and every byte still lands in (and
  // reads back from) the right chunk. A private registry proves the
  // io-pool instrumentation fires.
  const auto dir = fresh_dir("pario");
  metrics::Registry registry;
  DaemonOptions opts;
  opts.chunk_size = 4096;
  opts.io_threads = 4;
  opts.kv_options.background_compaction = false;
  opts.registry = &registry;
  net::LoopbackFabric fabric;
  auto d = GekkoDaemon::start(fabric, dir, opts);
  ASSERT_TRUE(d.is_ok()) << d.status().to_string();
  rpc::Engine client(fabric, rpc::EngineOptions{.name = "par"});

  constexpr std::size_t kSlices = 24;
  std::vector<std::uint8_t> data(kSlices * 4096);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 17 + 3);
  }
  proto::ChunkIoRequest rq;
  rq.path = "/par";
  for (std::size_t i = 0; i < kSlices; ++i) {
    rq.slices.push_back({i, 0, 4096, i * 4096});
  }
  for (int round = 0; round < 3; ++round) {
    auto wresp =
        client.forward((*d)->endpoint(), proto::to_wire(proto::RpcId::write_chunks),
                       rq.encode(), net::BulkRegion::expose_read(data));
    ASSERT_TRUE(wresp.is_ok()) << wresp.status().to_string();
    auto wdec = proto::ChunkIoResponse::decode(std::string_view(
        reinterpret_cast<const char*>(wresp->data()), wresp->size()));
    ASSERT_TRUE(wdec.is_ok());
    EXPECT_EQ(wdec->bytes, data.size());
  }
  std::vector<std::uint8_t> out(data.size(), 0);
  auto rresp =
      client.forward((*d)->endpoint(), proto::to_wire(proto::RpcId::read_chunks),
                     rq.encode(), net::BulkRegion::expose_write(out));
  ASSERT_TRUE(rresp.is_ok()) << rresp.status().to_string();
  EXPECT_EQ(out, data);

  const auto snap = registry.snapshot();
  const auto q = snap.histograms.find("daemon.io.queue");
  const auto s = snap.histograms.find("daemon.io.service");
  ASSERT_NE(q, snap.histograms.end());
  ASSERT_NE(s, snap.histograms.end());
  // 4 requests x 24 slices, each slice one pool task.
  EXPECT_EQ(s->second.count, 4u * kSlices);
  EXPECT_EQ(q->second.count, 4u * kSlices);
  (*d)->shutdown();
  std::filesystem::remove_all(dir);
}

TEST_F(DaemonRpcTest, TruncateHandlersEnforceExistence) {
  proto::TruncateRequest tr;
  tr.path = "/absent";
  tr.new_size = 0;
  EXPECT_EQ(call(proto::RpcId::truncate_metadata, tr.encode()).code(),
            Errc::not_found);
  // truncate_data on an absent path is a no-op (chunks may simply not
  // exist on this daemon).
  EXPECT_TRUE(call(proto::RpcId::truncate_data, tr.encode()).is_ok());
}

TEST_F(DaemonRpcTest, DaemonStatCountsEntries) {
  for (int i = 0; i < 5; ++i) {
    proto::CreateRequest create;
    create.path = "/s/" + std::to_string(i);
    ASSERT_TRUE(call(proto::RpcId::create, create.encode()).is_ok());
  }
  auto resp = call(proto::RpcId::daemon_stat, {});
  ASSERT_TRUE(resp.is_ok());
  auto decoded = proto::DaemonStatResponse::decode(std::string_view(
      reinterpret_cast<const char*>(resp->data()), resp->size()));
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded->metadata_entries, 5u);
}

TEST_F(DaemonRpcTest, MalformedPayloadYieldsCorruption) {
  EXPECT_EQ(call(proto::RpcId::create, {0xff}).code(), Errc::corruption);
  EXPECT_EQ(call(proto::RpcId::write_chunks, {1, 2, 3}).code(),
            Errc::corruption);
}

}  // namespace
}  // namespace gekko::daemon
