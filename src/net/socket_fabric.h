// Compatibility name for the UDS hostfile writer. The Unix-domain
// socket transport now runs on the stream fabric (tcp_fabric.h); this
// header exists only because perfbench/layers.cpp still includes it
// and calls SocketFabric::write_hostfile. New code calls
// net::write_hostfile (transport.h).
#pragma once

#include "net/transport.h"

namespace gekko::net::SocketFabric {

inline Result<std::filesystem::path> write_hostfile(
    const std::filesystem::path& dir, std::uint32_t n) {
  return net::write_hostfile(dir, n, Transport::uds);
}

}  // namespace gekko::net::SocketFabric
