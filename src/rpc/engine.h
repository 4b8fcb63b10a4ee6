// RPC engine standing in for Mercury+Margo.
//
// Each GekkoFS daemon and each client owns an Engine. The engine:
//  - registers an endpoint on the shared Fabric with a delivery
//    callback, which the fabric calls on its own delivery thread (an
//    event-loop thread, or the sender's thread on loopback),
//  - runs each request's handler where its dispatch class says: inline
//    on that delivery thread (Margo's progress ULT running a handler
//    in place), or posted to the handler Pool (Margo handler
//    xstreams),
//  - completes the caller's Eventual straight from the delivery thread
//    when a response arrives, and implements blocking forward() with
//    sequence-matched responses and timeouts (margo_forward +
//    margo_wait).
//
// Handlers receive the raw request (including any exposed bulk region)
// and return a serialized response payload or an error code, which is
// delivered to the caller as the first byte of the response.
#pragma once

// relaxed-ok: sequence/handled/retry counters and the caller-metrics
// slot pointers are independent scalars; slot fill is protected by
// metrics_mutex_ and the pointed-to metrics are themselves atomic.
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "net/fabric.h"
#include "rpc/dispatch.h"
#include "task/future.h"
#include "task/pool.h"

namespace gekko::rpc {

/// A handler consumes the request and produces a response payload.
/// It runs where its Dispatch class says. It may perform bulk transfers
/// through the engine's fabric against msg.bulk.
using Handler =
    std::function<Result<std::vector<std::uint8_t>>(const net::Message&)>;

struct EngineOptions {
  /// Handler pool width (Margo: number of handler xstreams).
  std::size_t handler_threads = 2;
  /// Per-attempt forward() deadline (margo_forward_timed analog).
  std::chrono::milliseconds rpc_timeout{5000};
  /// Total attempts for retryable RPCs (1 = never retry). Only rpc ids
  /// the `retryable` predicate approves are ever re-sent, and only
  /// after a transient outcome (timed_out / disconnected / again) —
  /// a retried create or remove could double-apply, a retried stat
  /// cannot.
  std::uint32_t max_attempts = 1;
  /// First retry backoff; doubles per attempt (with jitter) up to
  /// `retry_backoff_max`.
  std::chrono::milliseconds retry_backoff{10};
  std::chrono::milliseconds retry_backoff_max{1000};
  /// Idempotency predicate over rpc ids. Unset = nothing retries.
  std::function<bool(std::uint16_t)> retryable;
  std::string name = "engine";
  /// Metric sink. nullptr = the process-wide Registry::global().
  /// Tests pass their own registry to isolate counters.
  metrics::Registry* registry = nullptr;
  /// Span sink for request tracing. nullptr = Tracer::global().
  metrics::Tracer* tracer = nullptr;
  /// Human name for an rpc id, used in caller-side metric names
  /// (`rpc.caller.<name>.sent` etc.). Unset = "id<N>". The handler
  /// side gets its names from register_rpc().
  std::function<std::string(std::uint16_t)> rpc_name;
  /// Bind the endpoint in the constructor but hold back dispatch until
  /// start(). Servers that register_rpc() after construction use this
  /// to close the accept-before-handlers window: without it a client
  /// that connects the moment the listener appears can have a valid
  /// request bounced with not_supported. Early requests are parked in
  /// the engine and dispatched, in arrival order, by start().
  bool start_paused = false;
};

class Engine {
 public:
  Engine(net::Fabric& fabric, EngineOptions options = {});
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Register a handler for an RPC id. Must happen before requests for
  /// that id arrive; re-registration replaces. Lookups on the request
  /// path take no lock: a registration publishes a new immutable table.
  void register_rpc(std::uint16_t rpc_id, std::string name, Dispatch dispatch,
                    Handler handler);
  /// Same, pooled.
  void register_rpc(std::uint16_t rpc_id, std::string name, Handler handler) {
    register_rpc(rpc_id, std::move(name), Dispatch::pooled,
                 std::move(handler));
  }

  /// Begin dispatching when constructed with start_paused: dispatches
  /// the requests parked so far, then lets new ones through. Call once
  /// from the constructing thread after registration; no-op when the
  /// engine already runs or has shut down.
  void start();

  /// Send a request and block for the response payload.
  /// Errc::timed_out if no response within the deadline;
  /// Errc::disconnected if the destination is gone.
  ///
  /// If the options allow retries and `retryable(rpc_id)` holds,
  /// transient outcomes are retried with exponential backoff + jitter
  /// (fresh seq per attempt). `timeout` overrides the per-attempt
  /// deadline; zero means options.rpc_timeout.
  Result<std::vector<std::uint8_t>> forward(
      net::EndpointId dest, std::uint16_t rpc_id,
      std::vector<std::uint8_t> payload, net::BulkRegion bulk = {},
      std::chrono::milliseconds timeout = std::chrono::milliseconds{0});

  /// Per-rpc-id caller-side metrics (cached registry references).
  struct CallerMetrics;

  /// In-flight request handle (margo_request analog). Obtain with
  /// begin_forward(), complete with finish(). Movable, not copyable
  /// across finishes — finish() must be called exactly once.
  struct PendingCall {
    std::uint64_t seq = 0;
    task::Eventual<Result<std::vector<std::uint8_t>>> eventual;
    Status send_status = Status::ok();
    /// Trace id stamped on the request (and echoed by the response).
    /// Inherited from the calling thread's trace::current() when one is
    /// active (so a client op's fan-out shares one trace); fresh
    /// otherwise. Retries reuse it (attempt tags the re-sends).
    std::uint64_t trace_id = 0;
    /// This call's caller-span id; shipped as Message::parent_span so
    /// serving-side spans parent under it.
    std::uint64_t span_id = 0;
    /// Span the caller span itself parents under (the client op span),
    /// 0 for a root.
    std::uint64_t parent_span_id = 0;
    /// Retry generation (0 = first send).
    std::uint32_t attempt = 0;
    std::uint16_t rpc_id = 0;
    std::uint64_t start_ns = 0;
    /// Non-null while the call is accountable: begin_forward() bumps
    /// inflight, finish() settles latency/outcome and nulls this so a
    /// call is never double-counted.
    CallerMetrics* metrics = nullptr;
  };

  /// Fire a request without blocking; lets a client issue one RPC per
  /// daemon concurrently (wide-striped writes/reads, readdir broadcast).
  PendingCall begin_forward(net::EndpointId dest, std::uint16_t rpc_id,
                            std::vector<std::uint8_t> payload,
                            net::BulkRegion bulk = {});

  /// Wait for a pending call (engine timeout applies). On timeout the
  /// call is cancelled on the fabric: any writable bulk region tied to
  /// it is unregistered BEFORE returning, so a late response can never
  /// scribble into a buffer the caller has already reclaimed.
  Result<std::vector<std::uint8_t>> finish(PendingCall& call);
  /// Same, with a per-call deadline.
  Result<std::vector<std::uint8_t>> finish(PendingCall& call,
                                           std::chrono::milliseconds timeout);

  /// Deregister the endpoint (waits out running deliveries), drain the
  /// handler pool and fail every call still pending. Idempotent.
  void shutdown();

  [[nodiscard]] net::EndpointId endpoint() const noexcept { return self_; }
  [[nodiscard]] net::Fabric& fabric() noexcept { return fabric_; }
  [[nodiscard]] const std::string& name() const noexcept {
    return options_.name;
  }
  [[nodiscard]] std::uint64_t requests_handled() const noexcept {
    return handled_.load(std::memory_order_relaxed);
  }
  /// Re-sends performed by forward() after transient failures.
  [[nodiscard]] std::uint64_t retries() const noexcept {
    return retries_.load(std::memory_order_relaxed);
  }
  /// True if the configured policy may re-send this rpc id.
  [[nodiscard]] bool is_retryable(std::uint16_t rpc_id) const {
    return options_.max_attempts > 1 && options_.retryable &&
           options_.retryable(rpc_id);
  }

  /// The metric sink this engine records into (options.registry, or
  /// the global registry when unset).
  [[nodiscard]] metrics::Registry& registry() noexcept { return *registry_; }
  /// The span sink (options.tracer, or Tracer::global() when unset).
  [[nodiscard]] metrics::Tracer& tracer() noexcept { return *tracer_; }

  struct CallerMetrics {
    metrics::Counter* sent;
    metrics::Counter* ok;
    metrics::Counter* errors;
    metrics::Counter* retries;
    metrics::Counter* timeouts;
    metrics::Histogram* latency;  // send → outcome, nanoseconds
    metrics::Gauge* inflight;
  };

 private:
  struct HandlerMetrics {
    metrics::Counter* handled;
    metrics::Counter* errors;
    metrics::Histogram* latency;  // handler service time, ns
    metrics::Histogram* queue;    // delivery → handler start, ns
    metrics::Gauge* inflight;
  };

  /// One registered rpc. Immutable once published; lives as long as
  /// the engine, so the request path uses it by pointer.
  struct RpcEntry {
    std::string name;
    Dispatch dispatch = Dispatch::pooled;
    Handler handler;
    HandlerMetrics metrics{};
  };
  /// Published handler table, indexed by rpc id (nullptr = none).
  /// Replaced whole by register_rpc(); never mutated once published.
  using RpcTable = std::vector<const RpcEntry*>;
  [[nodiscard]] std::chrono::milliseconds jittered_(
      std::chrono::milliseconds base, std::uint64_t seed) const;
  /// begin_forward with explicit trace lineage: `trace_id` 0 mints a
  /// fresh one; non-zero continues an existing trace (retries, fan-out
  /// under a client op span).
  PendingCall begin_forward_traced_(net::EndpointId dest,
                                    std::uint16_t rpc_id,
                                    std::vector<std::uint8_t> payload,
                                    net::BulkRegion bulk,
                                    std::uint64_t trace_id,
                                    std::uint64_t parent_span_id,
                                    std::uint32_t attempt);
  /// The fabric's Deliver callback.
  void deliver_(net::Message msg);
  void dispatch_request_(net::Message msg);
  /// Run `entry`'s handler on this thread and send the response.
  void serve_(const RpcEntry& entry, const net::Message& msg,
              std::uint64_t t_delivered);
  void reply_(const net::Message& request, std::vector<std::uint8_t> payload);
  void complete_response_(net::Message msg);
  CallerMetrics* caller_metrics_for_(std::uint16_t rpc_id);
  [[nodiscard]] std::string rpc_name_(std::uint16_t rpc_id) const;

  net::Fabric& fabric_;
  EngineOptions options_;
  metrics::Registry* registry_;  // resolved from options_, never null
  metrics::Tracer* tracer_;      // resolved from options_, never null
  net::EndpointId self_;
  task::Pool handler_pool_;

  /// Serializes registration; the request path reads table_ lock-free.
  Mutex rpc_mutex_{"rpc.engine.table", lockdep::rank::kEngineRpcTable};
  std::atomic<const RpcTable*> table_{nullptr};
  /// Every entry and table ever published, kept until destruction so a
  /// lookup racing a registration never reads a freed one.
  std::vector<std::unique_ptr<RpcEntry>> entries_ GEKKO_GUARDED_BY(rpc_mutex_);
  std::vector<std::unique_ptr<RpcTable>> tables_ GEKKO_GUARDED_BY(rpc_mutex_);

  /// Requests that arrived before start() (start_paused), in order.
  Mutex park_mutex_{"rpc.engine.park", lockdep::rank::kEnginePark};
  std::vector<net::Message> parked_ GEKKO_GUARDED_BY(park_mutex_);
  /// False while paused. Set under park_mutex_; read lock-free first.
  std::atomic<bool> started_{false};

  /// Caller metrics per rpc id: lock-free lookup via an atomic slot
  /// array (ids beyond the table share the last slot, labelled by the
  /// first id that lands there). Slots are created lazily under
  /// metrics_mutex_ — once, per id, per engine.
  static constexpr std::size_t kCallerSlots = 64;
  Mutex metrics_mutex_{"rpc.engine.metrics", lockdep::rank::kEngineMetrics};
  /// Slots are read lock-free; filled (once per id) under
  /// metrics_mutex_, which also guards the ownership vector.
  std::array<std::atomic<CallerMetrics*>, kCallerSlots> caller_slots_{};
  std::vector<std::unique_ptr<CallerMetrics>> caller_owned_
      GEKKO_GUARDED_BY(metrics_mutex_);

  // Aggregates across all rpc ids (what gkfs-top reads).
  metrics::Counter* agg_sent_;
  metrics::Counter* agg_handled_;
  metrics::Counter* agg_retries_;
  metrics::Counter* agg_timeouts_;

  Mutex pending_mutex_{"rpc.engine.pending", lockdep::rank::kEnginePending};
  std::unordered_map<std::uint64_t,
                     task::Eventual<Result<std::vector<std::uint8_t>>>>
      pending_ GEKKO_GUARDED_BY(pending_mutex_);
  std::atomic<std::uint64_t> next_seq_{1};
  std::atomic<std::uint64_t> handled_{0};
  std::atomic<std::uint64_t> retries_{0};
  std::atomic<bool> stopped_{false};
};

/// Response payload framing: [status u8][body...]. Helpers shared by
/// client and daemon sides.
inline std::vector<std::uint8_t> frame_ok(std::vector<std::uint8_t> body) {
  std::vector<std::uint8_t> out;
  out.reserve(body.size() + 1);
  out.push_back(static_cast<std::uint8_t>(Errc::ok));
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

inline std::vector<std::uint8_t> frame_error(Errc code) {
  return {static_cast<std::uint8_t>(code)};
}

}  // namespace gekko::rpc
