// Metadata engine at millions-of-files scale: batched metadata RPCs
// vs one-RPC-per-op, on the real stack (client -> RPC -> daemon ->
// LSM KV), emitting BENCH_metadata_scale.json.
//
// Two mdtest passes against a 4-daemon in-process cluster with
// background compaction ON and a deliberately small memtable budget so
// the create storm drives many flushes and L0->L1 compactions while
// the foreground keeps writing:
//
//   unbatched  classic mdtest: one create/stat/remove RPC per file
//   batched    bulk phases: create_many/stat_many/remove_many in
//              chunks of 128 (client shards each chunk per daemon and
//              fans out batch_create / batch_stat / batch_remove)
//
// Total files created across the passes reaches one million.
//
// Acceptance gates (gate_ok in the JSON, nonzero exit on failure):
//   - batched create ops/s >= 3x unbatched create ops/s
//   - sum of kv.stall.foreground_ms over all daemons == 0, i.e. no
//     writer ever hard-blocked on the compaction pipeline
//
//   metadata_scale [output.json]   (default: BENCH_metadata_scale.json)
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_util.h"
#include "cluster/cluster.h"
#include "kv/db.h"
#include "workload/mdtest.h"

using namespace gekko;
using namespace gekko::bench;

namespace {

constexpr std::uint32_t kDaemons = 4;
constexpr std::uint32_t kProcs = 8;
constexpr std::uint32_t kUnbatchedFiles = 25'000;   // x8 procs = 200k
constexpr std::uint32_t kBatchedFiles = 100'000;    // x8 procs = 800k
constexpr std::uint32_t kBatchSize = 256;

struct KvTotals {
  std::uint64_t stall_stops = 0;
  std::uint64_t stall_foreground_ms = 0;
  std::uint64_t stall_slowdowns = 0;
  std::uint64_t flushes = 0;
  std::uint64_t compactions = 0;
  std::uint64_t compact_bytes_in = 0;
  std::vector<std::uint64_t> puts_per_daemon;
};

KvTotals collect_kv(cluster::Cluster& c) {
  KvTotals t;
  for (std::uint32_t i = 0; i < c.node_count(); ++i) {
    const kv::DbStats s = c.daemon(i).metadata().db().stats();
    t.stall_stops += s.stall_stops;
    t.stall_foreground_ms += s.stall_foreground_ms;
    t.stall_slowdowns += s.stall_slowdowns;
    t.flushes += s.flushes;
    t.compactions += s.compactions;
    t.compact_bytes_in += s.compact_bytes_in;
    t.puts_per_daemon.push_back(s.puts);
  }
  return t;
}

void print_pass(const char* name, const workload::MdtestResult& r) {
  std::printf("%10s  create %10s/s (p50 %7.1f us, p99 %8.1f us)  "
              "stat %10s/s  remove %10s/s  errors=%llu\n",
              name, human_rate(r.create.ops_per_sec).c_str(), r.create.p50_us,
              r.create.p99_us, human_rate(r.stat.ops_per_sec).c_str(),
              human_rate(r.remove.ops_per_sec).c_str(),
              static_cast<unsigned long long>(r.create.errors +
                                              r.stat.errors +
                                              r.remove.errors));
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "BENCH_metadata_scale.json";
  print_header(
      "METADATA SCALE — batched metadata RPCs + stall-free compaction\n"
      "(4 daemons, 1M files total; gates: batched creates >= 3x\n"
      " unbatched, kv.stall.foreground_ms == 0 with background\n"
      " compaction on)");

  const auto root = std::filesystem::temp_directory_path() /
                    ("gekko_md_scale_" + std::to_string(::getpid()));
  std::filesystem::remove_all(root);

  // Each pass gets its own cold cluster so no mode inherits the
  // previous pass's compaction debt; kv totals are summed across all
  // passes (the stall gate must hold everywhere), while the per-daemon
  // put spread is reported from the big batched pass.
  KvTotals kvt;
  std::vector<std::uint64_t> batched_puts;
  const auto run_pass =
      [&](const char* name,
          const workload::MdtestConfig& md) -> Result<workload::MdtestResult> {
    cluster::ClusterOptions opts;
    opts.nodes = kDaemons;
    opts.root = root / name;
    opts.daemon_options.kv_options.background_compaction = true;
    // Small memtables: ~1M metadata records must ride through dozens of
    // flushes and L0->L1 compactions while creates keep arriving.
    opts.daemon_options.kv_options.memtable_budget = 1 * 1024 * 1024;
    auto c = cluster::Cluster::start(opts);
    if (!c.is_ok()) return c.status();
    auto mount = (*c)->mount();
    workload::GekkoAdapter fs(*mount);
    auto r = workload::run_mdtest(fs, md);
    if (!r.is_ok()) return r.status();
    const KvTotals pass_kv = collect_kv(**c);
    kvt.stall_stops += pass_kv.stall_stops;
    kvt.stall_foreground_ms += pass_kv.stall_foreground_ms;
    kvt.stall_slowdowns += pass_kv.stall_slowdowns;
    kvt.flushes += pass_kv.flushes;
    kvt.compactions += pass_kv.compactions;
    kvt.compact_bytes_in += pass_kv.compact_bytes_in;
    if (md.batch_size > 1) batched_puts = pass_kv.puts_per_daemon;
    print_pass(name, *r);
    return r;
  };

  workload::MdtestConfig md;
  md.procs = kProcs;

  // Pass 1: classic one-RPC-per-op mdtest.
  md.files_per_proc = kUnbatchedFiles;
  md.base_dir = "/md_unbatched";
  auto unbatched = run_pass("unbatched", md);
  if (!unbatched.is_ok()) {
    std::fprintf(stderr, "unbatched pass failed: %s\n",
                 unbatched.status().to_string().c_str());
    return 1;
  }

  // Pass 2: bulk-RPC mdtest — the tentpole measurement.
  md.files_per_proc = kBatchedFiles;
  md.base_dir = "/md_batched";
  md.batch_size = kBatchSize;
  auto batched = run_pass("batched", md);
  if (!batched.is_ok()) {
    std::fprintf(stderr, "batched pass failed: %s\n",
                 batched.status().to_string().c_str());
    return 1;
  }

  kvt.puts_per_daemon = batched_puts;
  const std::uint64_t total_files =
      static_cast<std::uint64_t>(kProcs) *
      (kUnbatchedFiles + kBatchedFiles);
  const double speedup =
      unbatched->create.ops_per_sec > 0
          ? batched->create.ops_per_sec / unbatched->create.ops_per_sec
          : 0.0;
  const std::uint64_t errors =
      unbatched->create.errors + unbatched->stat.errors +
      unbatched->remove.errors + batched->create.errors +
      batched->stat.errors + batched->remove.errors;
  const bool gate_ok = speedup >= 3.0 && kvt.stall_foreground_ms == 0 &&
                       errors == 0;

  std::printf("\ntotal files created: %llu\n",
              static_cast<unsigned long long>(total_files));
  std::printf("batched/unbatched create speedup: %.2fx (gate: >= 3.0)\n",
              speedup);
  std::printf("kv totals: flushes=%llu compactions=%llu "
              "stall_stops=%llu stall_foreground_ms=%llu "
              "stall_slowdowns=%llu\n",
              static_cast<unsigned long long>(kvt.flushes),
              static_cast<unsigned long long>(kvt.compactions),
              static_cast<unsigned long long>(kvt.stall_stops),
              static_cast<unsigned long long>(kvt.stall_foreground_ms),
              static_cast<unsigned long long>(kvt.stall_slowdowns));
  std::printf("kv puts per daemon:");
  for (const auto p : kvt.puts_per_daemon) {
    std::printf(" %llu", static_cast<unsigned long long>(p));
  }
  std::printf("\n");

  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  const auto phase_json = [&](const char* name,
                              const workload::PhaseResult& p,
                              const char* trail) {
    std::fprintf(f,
                 "    \"%s\": {\"ops_per_sec\": %.1f, \"p50_us\": %.1f, "
                 "\"p99_us\": %.1f, \"errors\": %llu}%s\n",
                 name, p.ops_per_sec, p.p50_us, p.p99_us,
                 static_cast<unsigned long long>(p.errors), trail);
  };
  std::fprintf(f,
               "{\n  \"bench\": \"metadata_scale\",\n  \"daemons\": %u,\n"
               "  \"procs\": %u,\n  \"batch_size\": %u,\n"
               "  \"total_files\": %llu,\n",
               kDaemons, kProcs, kBatchSize,
               static_cast<unsigned long long>(total_files));
  std::fprintf(f, "  \"unbatched\": {\n");
  phase_json("create", unbatched->create, ",");
  phase_json("stat", unbatched->stat, ",");
  phase_json("remove", unbatched->remove, "");
  std::fprintf(f, "  },\n  \"batched\": {\n");
  phase_json("create", batched->create, ",");
  phase_json("stat", batched->stat, ",");
  phase_json("remove", batched->remove, "");
  std::fprintf(f, "  },\n  \"kv\": {\n");
  std::fprintf(f,
               "    \"flushes\": %llu,\n    \"compactions\": %llu,\n"
               "    \"compact_bytes_in\": %llu,\n"
               "    \"stall_stops\": %llu,\n"
               "    \"stall_foreground_ms\": %llu,\n"
               "    \"stall_slowdowns\": %llu,\n    \"puts_per_daemon\": [",
               static_cast<unsigned long long>(kvt.flushes),
               static_cast<unsigned long long>(kvt.compactions),
               static_cast<unsigned long long>(kvt.compact_bytes_in),
               static_cast<unsigned long long>(kvt.stall_stops),
               static_cast<unsigned long long>(kvt.stall_foreground_ms),
               static_cast<unsigned long long>(kvt.stall_slowdowns));
  for (std::size_t i = 0; i < kvt.puts_per_daemon.size(); ++i) {
    std::fprintf(f, "%s%llu", i > 0 ? ", " : "",
                 static_cast<unsigned long long>(kvt.puts_per_daemon[i]));
  }
  std::fprintf(f,
               "]\n  },\n  \"create_speedup\": %.3f,\n"
               "  \"gate_min_speedup\": 3.0,\n"
               "  \"gate_stall_foreground_ms\": 0,\n"
               "  \"gate_ok\": %s\n}\n",
               speedup, gate_ok ? "true" : "false");
  std::fclose(f);
  std::printf("wrote %s (gate_ok=%s)\n", out_path,
              gate_ok ? "true" : "false");

  std::filesystem::remove_all(root);
  return gate_ok ? 0 : 1;
}
