// Endpoint addressing for the in-process fabric.
//
// Mercury addresses are opaque strings resolved per transport; here an
// address is a dense integer id handed out by the Fabric at registration
// time. Daemons occupy the low ids [0, n_daemons) so the client-side
// distributor can compute `hash % n_daemons` directly, exactly like
// GekkoFS resolves responsible daemons without a directory service.
#pragma once

#include <cstdint>
#include <limits>

namespace gekko::net {

using EndpointId = std::uint32_t;

inline constexpr EndpointId kInvalidEndpoint =
    std::numeric_limits<EndpointId>::max();

// Id-space split (stream transport)
// ---------------------------------
//   [0, kClientEndpointBase)              daemon ids: dense hostfile
//       ids, low so `hash % n_daemons` addresses them directly.
//   [kClientEndpointBase, kInvalidEndpoint)  client ids: bit 30 set,
//       low 30 bits derived from the process pid mixed with a
//       per-process random salt (pids alone are only 22–24 bits wide
//       and recycle, so two client processes could otherwise collide;
//       see wire::derive_client_endpoint_id() in frame_codec.cpp).
//   kInvalidEndpoint (all ones)           never a valid address.
//
// Daemons route replies by (requester id, seq), so a client-id
// collision would cross-deliver responses — the salt makes that
// probability ~2^-30 instead of certain under pid reuse.
inline constexpr EndpointId kClientEndpointBase = 0x40000000u;
inline constexpr EndpointId kClientEndpointMask = kClientEndpointBase - 1;

}  // namespace gekko::net
