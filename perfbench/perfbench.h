// Shared types of the end-to-end benchmark: the workload descriptors,
// the per-thread op log that times every fs::Mount call, and the
// metric map the benchmark prints.
#pragma once

#include <array>
#include <cstdint>
#include <filesystem>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/cluster.h"
#include "common/metrics.h"
#include "common/rng.h"

namespace perfbench {

/// Client threads driving the one fs::Mount (closed loop, one op in
/// flight per thread).
inline constexpr unsigned kThreads = 3;
inline constexpr std::uint32_t kDaemons = 2;
inline constexpr std::uint32_t kChunkSize = 512 * 1024;

/// The fs::Mount calls the workloads issue.
enum class Op : std::uint8_t { create, stat, remove, write, read };
inline constexpr std::size_t kOps = 5;
inline constexpr std::array<const char*, kOps> kOpNames = {
    "create", "stat", "remove", "write", "read"};

struct Workload {
  const char* name;
  gekko::cluster::ClusterTransport transport;
  /// Bytes per write/read call; 0 = metadata only.
  std::uint32_t transfer_bytes;
  /// Distinct files each cycle creates across all threads.
  std::uint32_t files_per_cycle;
  /// Writes each file receives per cycle, i.e. the size-update merge
  /// operands its metadata key carries when it is read back.
  std::uint32_t writes_per_file;
  /// Writes land on shuffled strided slots of one shared file instead
  /// of streaming each file front to back.
  bool shuffled;
  /// Cycles that share one set of files. 1: every cycle writes fresh
  /// files and is timed. More: the first cycle creates the files and is
  /// not timed, the others overwrite them in place, so the daemons'
  /// page cache is reused instead of freed and allocated again.
  std::uint32_t generation_cycles;
};

/// Size-update merge operands a file's key carries by its last read.
inline std::uint32_t merge_chain(const Workload& w) {
  return w.writes_per_file * w.generation_cycles;
}

const Workload* find_workload(std::string_view name);

/// One span around a call into a layer, kept in memory and written out
/// when the benchmark ends. `name` points at a string literal.
struct Span {
  const char* name;
  std::uint64_t id;
  std::uint32_t thread;
  std::uint64_t start_ns;
  std::uint64_t dur_ns;
};

/// Timed cycles are untraced, or (in a traced run, every other one)
/// traced: they keep a span per op. Untimed cycles (the warm-up, and
/// cycles that create a generation's files) are checked and counted.
enum Group { kUntraced = 0, kTraced = 1, kUntimed = -1 };

/// Everything one thread records; only that thread writes to it.
struct ThreadLog {
  std::uint32_t thread = 0;
  /// The current cycle's group; latencies are kept for timed cycles.
  int group = kUntimed;
  std::array<std::array<std::vector<std::uint64_t>, kOps>, 2> latency_ns;
  std::array<std::uint64_t, kOps> count{};
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t kv_user_bytes = 0;
  std::vector<Span> spans;

  /// Runs `call` (which returns whether the op succeeded) and records it.
  template <typename F>
  bool timed(Op op, F&& call) {
    const std::uint64_t t0 = gekko::metrics::now_ns();
    const bool ok = call();
    const std::uint64_t dt = gekko::metrics::now_ns() - t0;
    const auto i = static_cast<std::size_t>(op);
    if (group != kUntimed) latency_ns[group][i].push_back(dt);
    ++count[i];
    ++attempted;
    if (!ok) ++failed;
    if (group == kTraced) {
      spans.push_back(Span{kOpNames[i], (std::uint64_t{thread} << 40) |
                                            attempted,
                           thread, t0, dt});
    }
    return ok;
  }
};

/// What the timed cycles of one group measured.
struct Timings {
  /// Per cycle, ops per second of the write and of the read phase.
  std::vector<double> write_rates;
  std::vector<double> read_rates;
  /// Per cycle, CPU microseconds the whole process (client and daemons)
  /// spent per op of the write and of the read phase.
  std::vector<double> write_cpu_us;
  std::vector<double> read_cpu_us;
  std::array<std::vector<std::uint64_t>, kOps> latency_ns;
};

/// Result of one pass of a workload over one mounted cluster.
struct PassResult {
  std::array<Timings, 2> timings;  // by Group
  /// Every op of the pass, warm-up included.
  std::array<std::uint64_t, kOps> count{};
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t bytes_written = 0;
  /// Key and value bytes the pass handed the daemons' kv stores
  /// (creates, size-update operands, remove tombstones).
  std::uint64_t kv_user_bytes = 0;
  std::vector<Span> spans;
  /// Peak resident set of the process by the end of its first few
  /// timed cycles (the boots before the pass included).
  double peak_rss_mib = 0;
};

struct PassOptions {
  std::uint64_t seed = 0;
  /// Seeded bytes every write copies from (see make_payload).
  std::span<const std::uint8_t> payload;
  double seconds = 1.0;
  /// Alternate untraced and traced timed cycles, so that the tracing
  /// overhead is measured without the drift between two passes.
  bool trace = false;
  /// Self-test hook: flip one byte of the first verified read buffer.
  bool corrupt_one_read = false;
};

/// Seeded bytes every write copies from, large enough for any
/// workload's file; generated before any timing starts.
std::vector<std::uint8_t> make_payload(std::uint64_t seed);

PassResult run_pass(const Workload& w, gekko::fs::Mount& mount,
                    const PassOptions& options);

/// Base directory a workload's files live in ("/md", "/ior", ...).
std::string base_dir(const Workload& w);

struct Metric {
  double value;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

double percentile(std::vector<std::uint64_t> v, double q);
double median(std::vector<double> v);

/// Seeded Fisher-Yates shuffle.
template <typename T>
void shuffle(std::vector<T>& v, std::uint64_t seed) {
  gekko::Xoshiro256 rng(seed);
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.below(i)]);
  }
}

// ---- per-layer measurement (layers.cpp) -----------------------------

/// What the program's own counters, histograms and backend stats read
/// at one instant.
struct StackSample {
  gekko::metrics::Snapshot snapshot;
  std::map<std::string, gekko::LatencyHistogram> histograms;
  std::vector<gekko::kv::DbStats> kv;
  std::vector<gekko::storage::ChunkStorageStats> storage;
};
StackSample sample_stack(gekko::cluster::Cluster& cluster);

/// Client, rpc-in-stack, net, daemon, kv-in-stack, storage-in-stack and
/// task metrics from the deltas across the traced run's pass.
void add_stack_metrics(const Workload& w, const StackSample& before,
                       const StackSample& after, const PassResult& pass,
                       Metrics& out);

/// Layer drives: time the layer's public calls from benchmark code with
/// the workload's shape. Each returns the ops it attempted and failed.
struct DriveCount {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};
DriveCount drive_rpc(const Workload& w, const std::filesystem::path& dir,
                     double seconds, Metrics& out, std::vector<Span>& spans);
DriveCount drive_kv(const Workload& w, const std::filesystem::path& dir,
                    std::uint64_t seed, double seconds, Metrics& out,
                    std::vector<Span>& spans);
DriveCount drive_storage(const Workload& w, const std::filesystem::path& dir,
                         std::uint64_t seed,
                         std::span<const std::uint8_t> payload,
                         double seconds, Metrics& out,
                         std::vector<Span>& spans);

}  // namespace perfbench
