// Where an rpc handler runs: the engine's one scheduling decision per
// request. Kept apart from engine.h so the protocol description
// (proto/messages.h) can classify every RpcId without the engine.
#pragma once

#include <cstdint>

namespace gekko::rpc {

enum class Dispatch : std::uint8_t {
  /// On the fabric's delivery thread, the moment the request arrives
  /// (an event-loop thread, or the sender's thread on loopback). For
  /// handlers that never wait on another thread that needs the
  /// fabric: a kv stall is fine, another fabric round trip never is.
  inline_delivery,
  /// Posted to the engine's handler pool: handlers that join other
  /// threads' work (chunk I/O) or run long (diagnostic dumps).
  pooled,
};

}  // namespace gekko::rpc
