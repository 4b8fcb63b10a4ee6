// In-process GekkoFS deployment harness.
//
// Stands in for the job-startup script of a real deployment: boots one
// GekkoFS daemon per "node" over a shared fabric, hands out client
// mounts, and measures bootstrap time (the paper quotes < 20 s for 512
// nodes; we report per-daemon and total boot time at our scale).
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <vector>

#include "common/result.h"
#include "daemon/daemon.h"
#include "fs/mount.h"
#include "net/fabric.h"
#include "net/transport.h"

namespace gekko::cluster {

/// What the cluster's daemons and mounts talk over.
enum class ClusterTransport {
  loopback,  // one shared in-process LoopbackFabric (the default)
  uds,       // one stream fabric per daemon/mount over Unix sockets
  tcp,       // one stream fabric per daemon/mount over real TCP
};

struct ClusterOptions {
  std::uint32_t nodes = 4;
  std::filesystem::path root;  // one subdir per daemon is created
  daemon::DaemonOptions daemon_options;
  /// Hosted transports write a hostfile under root/"net" and give each
  /// daemon and each mount its own fabric instance — the whole stack
  /// runs over real sockets while staying in one process.
  ClusterTransport transport = ClusterTransport::loopback;
};

class Cluster {
 public:
  static Result<std::unique_ptr<Cluster>> start(ClusterOptions options);

  ~Cluster();
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Create a client mount; `client_options.chunk_size` is forced to
  /// the daemons' chunk size.
  std::unique_ptr<fs::Mount> mount(client::ClientOptions client_options = {});

  /// Stop one daemon (simulates node loss; its keys become unreachable).
  void stop_daemon(std::uint32_t daemon_id);

  /// Restart a previously stopped daemon over its persisted state.
  /// Loopback: the restarted daemon gets a NEW endpoint; existing
  /// mounts keep addressing the dead one (create fresh mounts after
  /// restart). Hosted transports: the daemon re-binds its hostfile
  /// address, so existing mounts recover by redialing.
  Status restart_daemon(std::uint32_t daemon_id);

  /// The shared in-process fabric (fault plans/injectors hang off it).
  /// Meaningful only for ClusterTransport::loopback; hosted transports
  /// give every daemon and mount its own fabric.
  [[nodiscard]] net::LoopbackFabric& fabric() noexcept { return fabric_; }
  [[nodiscard]] std::uint32_t node_count() const noexcept {
    return static_cast<std::uint32_t>(daemons_.size());
  }
  [[nodiscard]] std::vector<net::EndpointId> daemon_endpoints() const;
  [[nodiscard]] daemon::GekkoDaemon& daemon(std::uint32_t id) {
    return *daemons_[id];
  }
  [[nodiscard]] std::chrono::nanoseconds bootstrap_time() const noexcept {
    return bootstrap_time_;
  }

 private:
  explicit Cluster(ClusterOptions options) : options_(std::move(options)) {}

  Result<std::unique_ptr<net::HostedFabric>> make_daemon_fabric_(
      std::uint32_t daemon_id);

  ClusterOptions options_;
  net::LoopbackFabric fabric_;
  std::filesystem::path hostfile_;  // hosted transports only
  /// Hosted transports: daemon_fabrics_[i] carries daemon i, and each
  /// mount() gets its own client fabric (one endpoint per hosted
  /// fabric). Both are cluster-owned: mounts must not outlive the
  /// cluster, same contract as the loopback fabric_.
  std::vector<std::unique_ptr<net::HostedFabric>> daemon_fabrics_;
  std::vector<std::unique_ptr<net::HostedFabric>> client_fabrics_;
  std::vector<std::unique_ptr<daemon::GekkoDaemon>> daemons_;
  std::chrono::nanoseconds bootstrap_time_{0};
};

}  // namespace gekko::cluster
