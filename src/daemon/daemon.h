// The GekkoFS daemon (paper §III.B.b): one per node, owning
//  1) a key-value store for metadata (MetadataBackend over gekko::kv),
//  2) an I/O persistence layer (ChunkStorage, one file per chunk),
//  3) an RPC communication layer (rpc::Engine over the fabric).
//
// Daemons are completely independent: no daemon-to-daemon
// communication, no shared state — each processes the operations for
// the keys/chunks that hash to it and responds to the client.
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>

#include "common/metrics_history.h"
#include "common/result.h"
#include "daemon/metadata_backend.h"
#include "net/http_exporter.h"
#include "kv/options.h"
#include "net/fabric.h"
#include "rpc/engine.h"
#include "storage/chunk_storage.h"
#include "storage/ssd_model.h"
#include "task/pool.h"

namespace gekko::proto {
struct ChunkIoRequest;
struct ChunkSlice;
}  // namespace gekko::proto

namespace gekko::daemon {

struct DaemonOptions {
  std::uint32_t chunk_size = 512 * 1024;  // paper §IV: 512 KiB
  std::size_t handler_threads = 2;
  /// Dedicated chunk-I/O pool ("iostreams", after Margo's xstream
  /// split): write_chunks/read_chunks fan each slice out as its own
  /// task, the paper's one-ULT-per-chunk-operation model (§III.B.b).
  /// 0 keeps the serial in-handler path.
  std::size_t io_threads = 4;
  /// Open-descriptor cache size for the chunk store (0 disables).
  std::size_t fd_cache_capacity = 256;
  /// Optional SSD performance model: when set, every chunk task also
  /// waits the modeled device service time (DESIGN §1 hardware
  /// substitution — lets the bench expose I/O parallelism on hosts
  /// whose page cache absorbs the real device latency).
  const storage::SsdModel* device_model = nullptr;
  kv::Options kv_options;
  rpc::EngineOptions rpc_options;
  /// Metric sink for this daemon (per-op service latencies, kv and
  /// storage internals). nullptr = metrics::Registry::global().
  metrics::Registry* registry = nullptr;
  /// Telemetry sampler period. Unset = GEKKO_SAMPLE_MS (default
  /// 1000 ms); 0 disables periodic sampling (the history stays empty
  /// except for the shutdown sample).
  std::optional<std::uint32_t> sample_interval_ms;
  /// Per-family sample-ring capacity (the metric_history window).
  std::size_t sample_retention = 128;
  /// Prometheus /metrics HTTP port: -1 = no exporter (default),
  /// 0 = ephemeral (read back via metrics_http_port()), >0 = fixed.
  int metrics_http_port = -1;
};

class GekkoDaemon {
 public:
  /// Boot a daemon: open KV + chunk store under `root`, register all
  /// RPC handlers on the fabric. Ready to serve when this returns
  /// (the paper's "<20 s for 512 nodes" bootstrap is this, per node).
  static Result<std::unique_ptr<GekkoDaemon>> start(
      net::Fabric& fabric, const std::filesystem::path& root,
      DaemonOptions options = {});

  ~GekkoDaemon();

  GekkoDaemon(const GekkoDaemon&) = delete;
  GekkoDaemon& operator=(const GekkoDaemon&) = delete;

  void shutdown();

  [[nodiscard]] net::EndpointId endpoint() const {
    return engine_->endpoint();
  }
  [[nodiscard]] std::uint32_t chunk_size() const noexcept {
    return options_.chunk_size;
  }
  [[nodiscard]] MetadataBackend& metadata() noexcept { return *metadata_; }
  [[nodiscard]] storage::ChunkStorage& data() noexcept { return *data_; }
  [[nodiscard]] rpc::Engine& engine() noexcept { return *engine_; }

  /// Refresh storage/kv gauges and serialize the registry snapshot.
  /// This is the payload of the daemon_stat telemetry RPC and of the
  /// gkfsd SIGUSR1/exit dumps.
  [[nodiscard]] std::string metrics_json();

  /// The telemetry sampler (always constructed; idle when the interval
  /// is 0). Its History backs the metric_history RPC.
  [[nodiscard]] metrics::Sampler& sampler() noexcept { return *sampler_; }
  /// Bound /metrics port, or -1 when the exporter is disabled.
  [[nodiscard]] int metrics_http_port() const noexcept {
    return http_ ? static_cast<int>(http_->port()) : -1;
  }

 private:
  GekkoDaemon(DaemonOptions options) : options_(std::move(options)) {}

  void register_handlers_();
  /// Republish point-in-time absolutes (storage counters, kv stats,
  /// block-cache hit/miss) as gauges so snapshots carry them.
  void publish_backend_metrics_();

  // One handler per RpcId; each runs where proto::rpc_dispatch_class()
  // says: inline on the fabric's delivery thread, or on the handler pool.
  Result<std::vector<std::uint8_t>> on_create_(const net::Message& msg);
  Result<std::vector<std::uint8_t>> on_stat_(const net::Message& msg);
  Result<std::vector<std::uint8_t>> on_remove_metadata_(
      const net::Message& msg);
  Result<std::vector<std::uint8_t>> on_remove_data_(const net::Message& msg);
  Result<std::vector<std::uint8_t>> on_update_size_(const net::Message& msg);
  Result<std::vector<std::uint8_t>> on_truncate_metadata_(
      const net::Message& msg);
  Result<std::vector<std::uint8_t>> on_truncate_data_(
      const net::Message& msg);
  Result<std::vector<std::uint8_t>> on_write_chunks_(const net::Message& msg);
  Result<std::vector<std::uint8_t>> on_read_chunks_(const net::Message& msg);
  /// Shared body of the two chunk handlers: validates slices, fans them
  /// out on io_pool_ (or runs serially when io_threads == 0 / single
  /// slice), joins, and aggregates bytes/first-error in slice order.
  Result<std::vector<std::uint8_t>> chunk_io_(const net::Message& msg,
                                              bool is_write);
  /// Per-request io/bulk time, accumulated across slice tasks (atomics:
  /// slices run on parallel io workers) and folded into the handler
  /// thread's slow-op stage pad after the join.
  struct IoStageNs {
    std::atomic<std::uint64_t> io{0};
    std::atomic<std::uint64_t> bulk{0};
  };
  /// One slice: bulk_pull→write_chunk or read_chunk→bulk_push through a
  /// grow-only thread-local bounce buffer.
  Status slice_io_(const proto::ChunkIoRequest& req,
                   const proto::ChunkSlice& slice, const net::Message& msg,
                   bool is_write, IoStageNs& stages);
  Result<std::vector<std::uint8_t>> on_get_dirents_(const net::Message& msg);
  /// Batched metadata ops: one message, many entries, per-entry status.
  Result<std::vector<std::uint8_t>> on_batch_create_(const net::Message& msg);
  Result<std::vector<std::uint8_t>> on_batch_stat_(const net::Message& msg);
  Result<std::vector<std::uint8_t>> on_batch_remove_(const net::Message& msg);
  Result<std::vector<std::uint8_t>> on_daemon_stat_(const net::Message& msg);
  /// Drain the span ring for the cross-node trace collector.
  Result<std::vector<std::uint8_t>> on_trace_dump_(const net::Message& msg);
  Result<std::vector<std::uint8_t>> on_flight_dump_(const net::Message& msg);
  /// Liveness probe: fixed-size response, no KV/storage touched.
  Result<std::vector<std::uint8_t>> on_heartbeat_(const net::Message& msg);
  /// Drain the sampler's ring history (optionally prefix-filtered).
  Result<std::vector<std::uint8_t>> on_metric_history_(
      const net::Message& msg);

  DaemonOptions options_;
  metrics::Registry* registry_ = nullptr;  // resolved in start()
  std::unique_ptr<MetadataBackend> metadata_;
  std::unique_ptr<storage::ChunkStorage> data_;
  std::unique_ptr<rpc::Engine> engine_;
  /// Chunk I/O workers. Handlers block on Eventuals while these run,
  /// so the pool is separate from the engine's handler pool (a shared
  /// pool would deadlock once every worker waits on its own slices).
  std::unique_ptr<task::Pool> io_pool_;
  metrics::Histogram* io_queue_ = nullptr;    // post → task start
  metrics::Histogram* io_service_ = nullptr;  // task body duration
  net::Fabric* fabric_ = nullptr;
  /// Periodic Registry → History pump (telemetry time series).
  std::unique_ptr<metrics::Sampler> sampler_;
  /// Prometheus /metrics endpoint (options_.metrics_http_port >= 0).
  std::unique_ptr<net::HttpExporter> http_;
  std::atomic<bool> stopped_{false};
};

}  // namespace gekko::daemon
