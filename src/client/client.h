// GekkoFS client forwarding layer (paper §III.B.a).
//
// The client resolves the responsible daemon for every operation
// locally (Distributor — no directory service), splits data requests
// into chunk-sized slices, exposes its buffers as bulk regions for
// one-sided transfer, and issues one RPC per involved daemon,
// concurrently. All operations are synchronous and uncached except the
// optional shared-file size-update cache (§IV.B).
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "client/size_cache.h"
#include "client/stat_cache.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "net/fabric.h"
#include "proto/distributor.h"
#include "proto/messages.h"
#include "rpc/engine.h"

namespace gekko::client {

struct ClientOptions {
  std::uint32_t chunk_size = 512 * 1024;  // must match the daemons
  proto::DistributionPolicy distribution = proto::DistributionPolicy::hash;
  /// Size-update write-back interval; 0 = synchronous (paper default).
  std::uint32_t size_cache_interval = 0;
  /// Metadata (stat) cache TTL; 0 = disabled (paper default). Paper
  /// future-work item #2; see client/stat_cache.h for the trade.
  std::chrono::milliseconds stat_cache_ttl{0};
  rpc::EngineOptions rpc_options;
  /// Metric sink (forwarding-layer counters, fan-out histograms).
  /// nullptr = metrics::Registry::global(). Also seeds the engine's
  /// registry unless rpc_options.registry is set explicitly.
  metrics::Registry* registry = nullptr;
};

struct ClientStats {
  std::uint64_t rpcs_sent = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t size_updates_sent = 0;
  std::uint64_t size_updates_absorbed = 0;
  std::uint64_t stat_cache_hits = 0;
  std::uint64_t stat_cache_misses = 0;
};

class Client {
 public:
  /// `daemons` lists the endpoint of every GekkoFS daemon, in daemon-id
  /// order; all clients must agree on this order (it seeds the hash
  /// distribution, like the hosts file a real GekkoFS deployment
  /// shares).
  Client(net::Fabric& fabric, std::vector<net::EndpointId> daemons,
         ClientOptions options = {});

  // -- metadata ------------------------------------------------------------
  Status create(std::string_view path, proto::FileType type,
                std::uint32_t mode = 0644);
  Result<proto::Metadata> stat(std::string_view path);
  /// Unlink: removes metadata, then chunk data if the file had any.
  Status remove(std::string_view path);
  Status truncate(std::string_view path, std::uint64_t new_size);
  /// Flush any cached size updates for `path` (close/fsync barrier).
  Status flush_size(std::string_view path);

  // -- bulk metadata -------------------------------------------------------
  // Explicit batch entry points (the mdtest batched phases): entries
  // are grouped by owning daemon, one batch RPC per daemon in flight
  // concurrently, outcomes scattered back IN REQUEST ORDER. The
  // returned Status reflects request-building only; per-entry results
  // (ok / exists / not_found / transport errors) land in `out`.

  Status create_batch(const std::vector<std::string>& paths,
                      proto::FileType type, std::vector<Errc>* out,
                      std::uint32_t mode = 0644);
  /// mds[i] valid iff (*out)[i] == Errc::ok.
  Status stat_batch(const std::vector<std::string>& paths,
                    std::vector<Errc>* out,
                    std::vector<proto::Metadata>* mds);
  Status remove_batch(const std::vector<std::string>& paths,
                      std::vector<Errc>* out);

  // -- data ----------------------------------------------------------------
  /// Returns bytes written (always all of `data` on success).
  Result<std::size_t> write(std::string_view path, std::uint64_t offset,
                            std::span<const std::uint8_t> data);
  /// Returns bytes read (trimmed at EOF).
  Result<std::size_t> read(std::string_view path, std::uint64_t offset,
                           std::span<std::uint8_t> out);

  // -- directories ----------------------------------------------------------
  /// Readdir broadcast: merged shards from every daemon. Eventually
  /// consistent: concurrent creates/removes may or may not appear.
  Result<std::vector<proto::Dirent>> readdir(std::string_view dir);
  /// Remove a directory; Errc::not_empty if any daemon reports children.
  Status rmdir(std::string_view path);

  // -- cluster -------------------------------------------------------------
  Result<std::vector<proto::DaemonStatResponse>> daemon_stats();
  /// Drain every daemon's trace ring (trace_dump broadcast). Feed the
  /// responses plus this process's own Tracer dump to a
  /// trace::Assembler to get cross-node causal trees.
  Result<std::vector<proto::TraceDumpResponse>> trace_dumps();
  /// Drain every daemon's flight-recorder rings (flight_dump
  /// broadcast) — the live half of the crash-forensics black box;
  /// gkfs-debug --live renders the result as a timeline.
  Result<std::vector<proto::FlightDumpResponse>> flight_dumps();
  /// One concurrent heartbeat round, one slot per daemon (daemon-id
  /// order). nullopt = that daemon missed (timeout/disconnect/garbage)
  /// — unlike daemon_stats(), one dead daemon does NOT fail the round;
  /// partial liveness is the entire point. `timeout` zero uses the
  /// engine's rpc_timeout.
  std::vector<std::optional<proto::HeartbeatResponse>> heartbeats(
      std::chrono::milliseconds timeout = std::chrono::milliseconds{0});
  /// Drain every daemon's metric_history rings (prefix-filtered
  /// server-side). Same partial-result contract as heartbeats().
  std::vector<std::optional<proto::MetricHistoryResponse>> metric_histories(
      std::string_view prefix = {},
      std::chrono::milliseconds timeout = std::chrono::milliseconds{0});

  [[nodiscard]] std::uint32_t daemon_count() const noexcept {
    return static_cast<std::uint32_t>(daemons_.size());
  }
  [[nodiscard]] std::uint32_t chunk_size() const noexcept {
    return options_.chunk_size;
  }
  [[nodiscard]] const proto::Distributor& distributor() const noexcept {
    return *distributor_;
  }
  [[nodiscard]] ClientStats stats() const;
  [[nodiscard]] rpc::Engine& engine() noexcept { return *engine_; }

 private:
  [[nodiscard]] net::EndpointId endpoint_of_(std::uint32_t daemon_id) const {
    return daemons_[daemon_id];
  }
  /// finish() a fan-out call; on a transient failure of an idempotent
  /// rpc, re-forward that single call (engine backoff policy applies).
  Result<std::vector<std::uint8_t>> finish_or_retry_(
      rpc::Engine::PendingCall& call, net::EndpointId ep,
      std::uint16_t rpc_id, std::vector<std::uint8_t> payload,
      net::BulkRegion bulk = {});
  Status send_size_update_(const std::string& path, std::uint64_t size);
  Status remove_data_everywhere_(std::string_view path);

  net::Fabric& fabric_;
  std::vector<net::EndpointId> daemons_;
  ClientOptions options_;
  metrics::Registry* registry_;  // resolved from options_, never null
  std::unique_ptr<proto::Distributor> distributor_;
  std::unique_ptr<rpc::Engine> engine_;
  SizeCache size_cache_;
  StatCache stat_cache_;
  mutable Mutex stats_mutex_{"client.stats", lockdep::rank::kClientStats};
  ClientStats stats_ GEKKO_GUARDED_BY(stats_mutex_);

  // Cached registry references (record path takes no lock).
  struct ClientMetrics {
    metrics::Counter* rpcs_sent;
    metrics::Counter* bytes_written;
    metrics::Counter* bytes_read;
    metrics::Counter* stat_cache_hits;
    metrics::Counter* stat_cache_misses;
    metrics::Counter* size_updates_sent;
    metrics::Counter* size_updates_absorbed;
    metrics::Histogram* write_fanout;  // daemons touched per write()
    metrics::Histogram* read_fanout;   // daemons touched per read()
  };
  ClientMetrics m_;
};

/// Wall-clock nanoseconds (client-stamped ctimes/mtimes).
std::int64_t now_ns();

}  // namespace gekko::client
