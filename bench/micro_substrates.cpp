// MICRO — google-benchmark microbenchmarks for the substrates GekkoFS
// sits on: hashing/placement, wire codec, chunk math, the LSM KV store,
// chunk storage, and RPC round-trips over the in-process fabric.
#include <benchmark/benchmark.h>

#include <filesystem>
#include <string>
#include <vector>

#include "common/codec.h"
#include "common/crc32.h"
#include "common/hash.h"
#include "common/path.h"
#include "daemon/metadata_merge.h"
#include "kv/db.h"
#include "kv/merge.h"
#include "net/fabric.h"
#include "proto/chunking.h"
#include "proto/distributor.h"
#include "rpc/engine.h"
#include "storage/chunk_storage.h"

namespace {

using namespace gekko;

void BM_Xxhash64(benchmark::State& state) {
  const std::string data(static_cast<std::size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(xxhash64(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Xxhash64)->Arg(32)->Arg(256)->Arg(4096)->Arg(1 << 16);

void BM_Crc32c(benchmark::State& state) {
  const std::string data(static_cast<std::size_t>(state.range(0)), 'y');
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32c(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32c)->Arg(4096)->Arg(1 << 16);

void BM_PathNormalize(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        path::normalize("/scratch/job.123//rank0/./ckpt/../out.bin"));
  }
}
BENCHMARK(BM_PathNormalize);

void BM_DistributorPlacement(benchmark::State& state) {
  proto::HashDistributor dist(static_cast<std::uint32_t>(state.range(0)));
  std::uint64_t i = 0;
  for (auto _ : state) {
    const std::string path = "/a/file." + std::to_string(i++ & 1023);
    benchmark::DoNotOptimize(dist.metadata_target(path));
    benchmark::DoNotOptimize(dist.chunk_target(path, i & 127));
  }
}
BENCHMARK(BM_DistributorPlacement)->Arg(8)->Arg(512);

void BM_SplitExtent(benchmark::State& state) {
  const std::uint64_t len = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(proto::split_extent(123456, len, 512 * 1024));
  }
}
BENCHMARK(BM_SplitExtent)->Arg(8 << 10)->Arg(64 << 20);

void BM_CodecEncodeDecode(benchmark::State& state) {
  for (auto _ : state) {
    std::vector<std::uint8_t> buf;
    Encoder enc(&buf);
    enc.str("/some/path/to/a/file");
    enc.u64(0xdeadbeef);
    enc.varint(12345);
    Decoder dec(buf);
    benchmark::DoNotOptimize(dec.str());
    benchmark::DoNotOptimize(dec.u64());
    benchmark::DoNotOptimize(dec.varint());
  }
}
BENCHMARK(BM_CodecEncodeDecode);

// ---------- KV store ----------

struct KvFixture {
  std::filesystem::path dir;
  std::unique_ptr<kv::DB> db;

  explicit KvFixture(std::shared_ptr<const kv::MergeOperator> merge_op =
                         std::make_shared<kv::U64MaxMergeOperator>()) {
    dir = std::filesystem::temp_directory_path() /
          ("gekko_kvbench_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir);
    kv::Options opts;
    opts.background_compaction = true;
    opts.merge_operator = std::move(merge_op);
    db = std::move(*kv::DB::open(dir, opts));
  }
  ~KvFixture() {
    db.reset();
    std::filesystem::remove_all(dir);
  }
};

void BM_KvPut(benchmark::State& state) {
  KvFixture fx;
  std::uint64_t i = 0;
  const std::string value(64, 'v');
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fx.db->put("/bench/file." + std::to_string(i++), value));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_KvPut);

void BM_KvGetHit(benchmark::State& state) {
  KvFixture fx;
  const std::string value(64, 'v');
  for (int i = 0; i < 10000; ++i) {
    (void)fx.db->put("/bench/file." + std::to_string(i), value);
  }
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fx.db->get("/bench/file." + std::to_string(i++ % 10000)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_KvGetHit);

void BM_KvGetMissBloom(benchmark::State& state) {
  KvFixture fx;
  const std::string value(64, 'v');
  for (int i = 0; i < 10000; ++i) {
    (void)fx.db->put("/bench/file." + std::to_string(i), value);
  }
  (void)fx.db->flush();  // misses go through SST bloom filters
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fx.db->get("/absent/file." + std::to_string(i++)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_KvGetMissBloom);

void BM_KvMergeSizeUpdate(benchmark::State& state) {
  KvFixture fx;
  (void)fx.db->put("/shared", kv::U64MaxMergeOperator::encode(0));
  std::uint64_t size = 0;
  for (auto _ : state) {
    size += 8192;
    benchmark::DoNotOptimize(
        fx.db->merge("/shared", kv::U64MaxMergeOperator::encode(size)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_KvMergeSizeUpdate);

// The daemon's stat: a point get of one file's metadata record after N
// size updates (the metadata merge operator, as the daemon runs it).
// The merge-chain bound (kv::kMaxSuccessiveMerges) keeps the fold this
// get pays flat in N.
void BM_KvGetAfterSizeUpdates(benchmark::State& state) {
  KvFixture fx(std::make_shared<daemon::MetadataMergeOperator>());
  const std::string key = "/shared/file";
  proto::Metadata md;
  md.type = proto::FileType::regular;
  (void)fx.db->insert(key, md.encode());
  const auto n = static_cast<std::uint64_t>(state.range(0));
  for (std::uint64_t i = 1; i <= n; ++i) {
    (void)fx.db->merge(key, daemon::encode_size_operand(
                                daemon::SizeOp::grow_to, i * 8192, 0));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.db->get(key));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_KvGetAfterSizeUpdates)->Arg(0)->Arg(16)->Arg(3072);

// ---------- chunk storage ----------

void BM_ChunkWrite(benchmark::State& state) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("gekko_csbench_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  auto cs = storage::ChunkStorage::open(dir, 512 * 1024);
  const std::vector<std::uint8_t> data(
      static_cast<std::size_t>(state.range(0)), 0xab);
  std::uint64_t chunk = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cs->write_chunk("/bench/file", chunk++ % 64, 0, data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_ChunkWrite)->Arg(8 << 10)->Arg(512 << 10);

// ---------- RPC ----------

void BM_RpcRoundTrip(benchmark::State& state) {
  net::LoopbackFabric fabric;
  rpc::EngineOptions server_opts;
  server_opts.name = "bench-server";
  rpc::Engine server(fabric, server_opts);
  server.register_rpc(1, "echo", [](const net::Message& msg) {
    return Result<std::vector<std::uint8_t>>(msg.payload);
  });
  rpc::EngineOptions client_opts;
  client_opts.name = "bench-client";
  rpc::Engine client(fabric, client_opts);

  std::vector<std::uint8_t> payload(
      static_cast<std::size_t>(state.range(0)), 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        client.forward(server.endpoint(), 1, payload));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RpcRoundTrip)->Arg(64)->Arg(4096);

}  // namespace

BENCHMARK_MAIN();
