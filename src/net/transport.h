// Transport selection for hostfile-based fabrics.
//
// A deployment picks its transport through the hostfile: each line is
// "<endpoint-id> <address>", where the address is either a Unix-domain
// socket path (starts with '/' or '.') or a TCP "host:port". All lines
// of one hostfile must use the same address family — daemons and
// clients sharing a hostfile must land on the same transport.
//
// make_fabric() constructs the one stream fabric (TcpFabric, an epoll
// engine) over the hostfile's address family; an explicit Transport
// only checks that the hostfile agrees. Everything above the transport
// — the rpc::Engine, redial/eviction/FaultInjector machinery, trace-id
// propagation — is keyed off net::Fabric and works unchanged on both.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "net/fabric.h"

namespace gekko::net {

/// A Fabric whose peers come from a hostfile: daemon ids are dense
/// [0, n) and enumerable without a directory service. TcpFabric
/// implements this for both address families.
class HostedFabric : public Fabric {
 public:
  /// Endpoint ids of all daemons listed in the hostfile, ascending.
  [[nodiscard]] virtual std::vector<EndpointId> daemon_ids() const = 0;
};

enum class Transport {
  autodetect,  // sniff from the hostfile's address syntax
  uds,         // Unix-domain sockets (AF_UNIX)
  tcp,         // TCP (AF_INET)
};

/// "auto" | "uds" | "tcp" (what gkfsd's --transport flag accepts).
Result<Transport> parse_transport(std::string_view name);
[[nodiscard]] const char* transport_name(Transport t) noexcept;

/// True if `address` reads as "host:port" (a numeric port after the
/// last ':', no '/' anywhere) rather than a filesystem socket path.
[[nodiscard]] bool looks_like_tcp_address(std::string_view address);

/// Parse hostfile content into id -> address. Rejects ids that are
/// garbage, out of range, or inside the client id-space, and lines
/// without an address. Blank lines and '#' comments are skipped.
Result<std::map<EndpointId, std::string>> parse_hostfile(
    const std::string& content);

struct MakeFabricOptions {
  /// Daemon role: serve on the hostfile entry for `self_id`.
  /// Client role (kInvalidEndpoint): connect-only.
  EndpointId self_id = kInvalidEndpoint;
  /// Upper bound for one wire frame, enforced on BOTH sides: the
  /// sender fails oversized frames with Errc::overflow before any
  /// bytes hit the wire (instead of silently killing the peer's
  /// connection), and the receiver drops connections that announce a
  /// larger frame. All processes sharing a hostfile must agree.
  std::uint32_t max_frame_bytes = 1u << 30;
  Transport transport = Transport::autodetect;
  /// Epoll event-loop threads multiplexing all connections (0 = 2).
  /// Two suffice for a node: loops are readiness dispatchers, the
  /// actual RPC work runs on the engine's handler pool.
  std::size_t event_loops = 0;
};

/// Read + parse the hostfile and construct the stream fabric over its
/// address family (TcpFabric::create). An explicit transport that
/// contradicts the hostfile's addresses fails with invalid_argument
/// naming the offending address.
Result<std::unique_ptr<HostedFabric>> make_fabric(
    const std::filesystem::path& hostfile, const MakeFabricOptions& options);

/// Write a hostfile for `n` daemons under `dir` and return its path.
/// Transport::uds lists socket paths `dir/gkfsd.<i>.sock`
/// (`dir/hosts.txt`); Transport::tcp lists 127.0.0.1 ports that are
/// free right now, each probed by binding port 0 (`dir/tcp_hosts.txt`).
/// The probed ports are released before this returns, so a well-timed
/// other process could steal one: fine for tests and single-node
/// benches, real deployments write their own hostfile.
Result<std::filesystem::path> write_hostfile(const std::filesystem::path& dir,
                                             std::uint32_t n,
                                             Transport transport);

}  // namespace gekko::net
