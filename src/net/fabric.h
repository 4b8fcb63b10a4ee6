// Fabric interface + the in-process loopback implementation.
//
// A Fabric is what Mercury's transport layer is to GekkoFS: endpoints
// register a delivery callback, messages are handed to it reliably on
// the fabric's own delivery thread, and bulk regions support
// one-sided-style transfers. Two implementations:
//  - LoopbackFabric (here): all endpoints in one process; delivery
//    runs on the sender's thread and bulk ops are memcpys. Used by
//    tests, benches, and the in-process cluster.
//  - TcpFabric (tcp_fabric.h), the stream fabric: endpoints across
//    PROCESSES over Unix-domain or TCP sockets named in a hostfile,
//    for real `gkfsd` daemons. Bulk data is inlined into frames
//    (Mercury's send/recv fallback path when RDMA is unavailable).
//    Delivery runs on the fabric's event-loop threads.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/metrics.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "net/message.h"

namespace gekko::net {

/// Traffic counters, per endpoint and global.
struct TrafficStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_dropped = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t bulk_bytes_pulled = 0;
  std::uint64_t bulk_bytes_pushed = 0;
};

/// Fault plan evaluated on every send. Used by tests and failure-injection
/// benches. All fields default to "healthy network".
struct FaultPlan {
  /// Drop every message towards this endpoint (daemon crash).
  EndpointId blackhole = kInvalidEndpoint;
  /// Drop 1 in `drop_one_in` messages (0 = never).
  std::uint64_t drop_one_in = 0;
};

/// One-shot fault decision for a single send(). Fields combine: e.g.
/// kill_connection + drop simulates a daemon dying mid-RPC (the link is
/// severed AND the in-flight message is lost).
struct FaultAction {
  /// Message vanishes; the sender still observes success (a real lossy
  /// fabric cannot report loss either).
  bool drop = false;
  /// Deliver the message twice (retransmission race).
  bool duplicate = false;
  /// Sever the transport link the message would travel over BEFORE
  /// transmitting. The stream fabric shuts the connection down (the
  /// next send redials); the loopback fabric has no connections and
  /// treats this as dropping the message.
  bool kill_connection = false;
  /// Sleep this long on the sender's thread before transmitting.
  std::chrono::milliseconds delay{0};
};

/// Deterministic fault hook consulted on every send(). Richer than
/// FaultPlan: tests script per-message drops, delays, duplicates, and
/// connection kills — the lifecycle events libfabric surfaces to
/// Mercury, reproduced without a flaky network.
class FaultInjector {
 public:
  virtual ~FaultInjector() = default;
  virtual FaultAction on_send(EndpointId dest, const Message& msg) = 0;
};

/// Wraps a callable as an injector (test shorthand).
class CallbackFaultInjector final : public FaultInjector {
 public:
  using Fn = std::function<FaultAction(EndpointId, const Message&)>;
  explicit CallbackFaultInjector(Fn fn) : fn_(std::move(fn)) {}
  FaultAction on_send(EndpointId dest, const Message& msg) override {
    return fn_(dest, msg);
  }

 private:
  Fn fn_;
};

/// An endpoint's receive callback. The fabric calls it once per
/// message, on the fabric's delivery thread: the sender's thread for
/// LoopbackFabric, an event-loop thread for the stream fabric. It may
/// send (a reply goes out from the same thread) but must never wait on
/// another message's delivery, which may need this very thread.
///
/// A stream connection that dies fails every request that left on it:
/// the endpoint receives, for each such seq, a response whose payload
/// is the single byte Errc::disconnected (the rpc engine's error
/// framing), so callers learn at once instead of at their deadline.
using Deliver = std::function<void(Message)>;

/// An endpoint's delivery callback plus the count of calls into it
/// still running, so deregistration can wait them out. Thread-safe.
class DeliverySlot {
 public:
  explicit DeliverySlot(Deliver deliver) : deliver_(std::move(deliver)) {}

  /// Hand `msg` to the callback; false once closed.
  bool deliver(Message msg);
  /// Refuse further deliveries, then wait until every call in progress
  /// has returned. Must not be called from inside the callback.
  void close();

 private:
  Deliver deliver_;
  std::atomic<std::uint32_t> active_{0};
  std::atomic<bool> closed_{false};
};

/// Abstract transport. All methods are thread-safe.
class Fabric {
 public:
  virtual ~Fabric() = default;

  /// Register a new endpoint whose messages go to `deliver`; returns
  /// its id, or kInvalidEndpoint if the endpoint cannot be set up.
  virtual EndpointId register_endpoint(Deliver deliver) = 0;

  /// Deliver a message to `dest`.
  virtual Status send(EndpointId dest, Message msg) = 0;

  /// Remove an endpoint. Returns once every delivery callback already
  /// running for it has returned and no new one can start, so its owner
  /// may be destroyed right after.
  virtual void deregister(EndpointId id) = 0;

  /// One-sided-style transfer out of an exposed region.
  virtual Status bulk_pull(const BulkRegion& region, std::size_t offset,
                           std::span<std::uint8_t> out) = 0;

  /// One-sided-style transfer into an exposed writable region.
  virtual Status bulk_push(const BulkRegion& region, std::size_t offset,
                           std::span<const std::uint8_t> data) = 0;

  /// Abandon interest in the response to request `seq`: unregister any
  /// writable bulk region tied to it so a late response can no longer
  /// write into caller memory. Guarantees that once cancel() returns,
  /// no further transport-side write to that region happens (any write
  /// already in progress completes first). Unknown seqs are a no-op.
  virtual void cancel(std::uint64_t seq) { (void)seq; }

  /// Install (nullptr = clear) a fault hook consulted on every send.
  void set_fault_injector(std::shared_ptr<FaultInjector> injector);

  [[nodiscard]] virtual TrafficStats stats() const = 0;

 protected:
  Fabric();

  /// Healthy action when no injector is installed. Thread-safe.
  /// Non-trivial actions bump the `net.fault_injector.fires` counter.
  FaultAction consult_injector_(EndpointId dest, const Message& msg);

 private:
  mutable Mutex injector_mutex_{"net.fault_injector",
                                lockdep::rank::kFabricInjector};
  std::shared_ptr<FaultInjector> injector_ GEKKO_GUARDED_BY(injector_mutex_);
  metrics::Counter* fault_fires_;  // global registry, cached
};

/// All endpoints in one process; delivery is a direct call on the
/// sender's thread.
class LoopbackFabric final : public Fabric {
 public:
  LoopbackFabric();
  LoopbackFabric(const LoopbackFabric&) = delete;
  LoopbackFabric& operator=(const LoopbackFabric&) = delete;

  EndpointId register_endpoint(Deliver deliver) override;

  /// Dropped-by-fault messages report success (like a real lossy
  /// fabric — the sender can't tell).
  Status send(EndpointId dest, Message msg) override;

  void deregister(EndpointId id) override;

  void set_fault_plan(FaultPlan plan);
  [[nodiscard]] FaultPlan fault_plan() const;

  Status bulk_pull(const BulkRegion& region, std::size_t offset,
                   std::span<std::uint8_t> out) override;
  Status bulk_push(const BulkRegion& region, std::size_t offset,
                   std::span<const std::uint8_t> data) override;

  [[nodiscard]] TrafficStats stats() const override;
  [[nodiscard]] std::size_t endpoint_count() const;

 private:
  mutable Mutex mutex_{"net.loopback", lockdep::rank::kLoopback};
  std::vector<std::shared_ptr<DeliverySlot>> endpoints_
      GEKKO_GUARDED_BY(mutex_);  // index == EndpointId
  FaultPlan fault_plan_ GEKKO_GUARDED_BY(mutex_){};
  std::uint64_t send_counter_ GEKKO_GUARDED_BY(mutex_) = 0;
  TrafficStats stats_ GEKKO_GUARDED_BY(mutex_){};
  std::atomic<std::uint64_t> bulk_pulled_{0};
  std::atomic<std::uint64_t> bulk_pushed_{0};
  // Registry mirrors of TrafficStats (global registry, cached).
  struct LoopbackMetrics {
    metrics::Counter* messages;
    metrics::Counter* bytes;
    metrics::Counter* drops;
    metrics::Counter* bulk_pulled_bytes;
    metrics::Counter* bulk_pushed_bytes;
  };
  LoopbackMetrics m_;
};

}  // namespace gekko::net
