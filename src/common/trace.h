// gekko::trace — distributed request tracing over the metrics::Tracer
// substrate.
//
// The per-node Tracer (metrics.h) is a lock-free ring of spans; this
// layer gives those spans CAUSALITY and makes them assemble across
// processes:
//  - SpanContext: a (trace_id, span_id) pair carried in a thread-local
//    so every layer a request passes through on this thread can attach
//    child spans without plumbing arguments. The RPC engine ships the
//    context to the serving side in net::Message (trace_id +
//    parent_span), so daemon-side spans parent under the caller span.
//  - Assembler: merges span dumps from many nodes into causal trees
//    per trace id, adopting orphans (ring wrap / drops lose interior
//    spans; the surviving ones must still render).
//  - Chrome Trace Event exporter: one pid per node, one tid per
//    thread, complete ("X") events plus flow ("s"/"f") arrows for RPC
//    edges — loadable in about://tracing / Perfetto.
//  - Slow-op watchdog: any traced op exceeding GEKKO_SLOW_OP_MS logs a
//    single-line per-stage breakdown (queue/service/io/bulk/...) via
//    GEKKO_LOG, with no collector running.
//
// Span id propagation rules (DESIGN.md §12): ids are process-unique
// random-ish 64-bit values; 0 means "none". A span's parent_span_id
// points at the span that caused it, possibly on another node. The
// context is per-thread; work handed to another thread (daemon io
// slices) must capture the context by value and re-install it with
// ContextGuard.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/result.h"

namespace gekko::trace {

/// Sentinel for "node id not assigned yet" (node 0 is a valid daemon).
inline constexpr std::uint32_t kUnknownNode = 0xffffffffu;

// ---------- span context (thread-local propagation) ----------

struct SpanContext {
  std::uint64_t trace_id = 0;  ///< 0 = no active trace on this thread
  std::uint64_t span_id = 0;   ///< span new children should parent under

  [[nodiscard]] bool active() const noexcept { return trace_id != 0; }
};

/// The calling thread's current context ({0,0} when none).
[[nodiscard]] SpanContext current() noexcept;
void set_current(SpanContext ctx) noexcept;

/// RAII: install `ctx` for this scope, restore the previous context on
/// exit. Safe to nest (client.read → client.stat → rpc).
class ContextGuard {
 public:
  explicit ContextGuard(SpanContext ctx) noexcept : prev_(current()) {
    set_current(ctx);
  }
  ~ContextGuard() { set_current(prev_); }
  ContextGuard(const ContextGuard&) = delete;
  ContextGuard& operator=(const ContextGuard&) = delete;

 private:
  SpanContext prev_;
};

/// Fresh non-zero ids (process-unique, mixed so ids from different
/// nodes do not collide in an assembled trace).
[[nodiscard]] std::uint64_t new_trace_id() noexcept;
[[nodiscard]] std::uint64_t new_span_id() noexcept;

/// RAII child span: records [construction, destruction) into `tracer`
/// under the thread's current context; a complete no-op when no trace
/// is active (storage/kv touch points off the traced path cost two
/// thread-local reads). `name` must be a string literal (the
/// TraceSpan::name contract — gekko-lint checks ScopedSpan sites too).
class ScopedSpan {
 public:
  ScopedSpan(metrics::Tracer& tracer, const char* name,
             std::uint16_t rpc_id = 0) noexcept
      : tracer_(tracer),
        name_(name),
        rpc_id_(rpc_id),
        ctx_(current()),
        t0_(ctx_.active() ? metrics::now_ns() : 0) {}
  ~ScopedSpan() {
    if (ctx_.active()) {
      tracer_.record(name_, ctx_.trace_id, new_span_id(), ctx_.span_id,  // span-name-ok: forwards the literal ctor argument, checked at ScopedSpan call sites
                     rpc_id_, 0, t0_, metrics::now_ns() - t0_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  metrics::Tracer& tracer_;
  const char* name_;
  std::uint16_t rpc_id_;
  SpanContext ctx_;
  std::uint64_t t0_;
};

// ---------- node identity ----------

/// The id spans recorded by this process carry (the fabric endpoint:
/// daemon id, or the client's high-half endpoint id).
[[nodiscard]] std::uint32_t node_id() noexcept;
void set_node_id(std::uint32_t id) noexcept;
/// First caller wins — the engine calls this at registration so the
/// process's primary endpoint names the node.
void set_node_id_if_unset(std::uint32_t id) noexcept;

// ---------- sampling ----------

/// Master switch for DEEP tracing (client root spans and the
/// storage/kv/io-slice child spans). The engine's three per-RPC spans
/// are always-on telemetry and unaffected. Default: on; env
/// GEKKO_TRACE=0 disables at process start.
[[nodiscard]] bool enabled() noexcept;
void set_enabled(bool on) noexcept;

// ---------- slow-op watchdog ----------

/// Threshold in ns above which a traced op logs its per-stage
/// breakdown. From env GEKKO_SLOW_OP_MS (default 200 ms, a p99-style
/// bound for a local-SSD chunk op); 0 disables the watchdog.
[[nodiscard]] std::uint64_t slow_op_threshold_ns() noexcept;
void set_slow_op_threshold_ms(std::uint64_t ms) noexcept;

/// Per-thread stage scratchpad: layers on the serving path deposit
/// stage durations ("queue", "io", "bulk", ...) while an op runs; the
/// watchdog folds them into its single breakdown line. `stage` must be
/// a string literal (same lifetime contract as span names). At most 8
/// stages are kept; extras are dropped.
void stages_reset() noexcept;
void stage_add(const char* stage, std::uint64_t ns) noexcept;
[[nodiscard]] std::vector<std::pair<const char*, std::uint64_t>>
stages_snapshot();

struct StagePad {
  std::array<std::pair<const char*, std::uint64_t>, 8> stages;
  std::size_t count = 0;
};

/// Saves the calling thread's stage pad and clears it; the destructor
/// puts the saved stages back. The rpc engine wraps every handler in
/// one, so a handler run inline on a client's own thread (loopback
/// delivery) leaves the client's stages as they were.
class StageScope {
 public:
  StageScope() noexcept;
  ~StageScope();
  StageScope(const StageScope&) = delete;
  StageScope& operator=(const StageScope&) = delete;

 private:
  StagePad saved_;
};

/// Emit the single-line breakdown:
///   slow-op <layer>.<op> trace=0x<id> total=12.4ms queue=0.1ms ...
/// `extra_stages` are appended after the thread's deposited stages.
void log_slow_op(
    const char* layer, std::string_view op, std::uint64_t trace_id,
    std::uint64_t total_ns,
    std::initializer_list<std::pair<const char*, std::uint64_t>>
        extra_stages = {});

// ---------- assembled spans ----------

/// Owning span, the unit the Assembler and the wire codec work with
/// (metrics::TraceSpan borrows its name; a dump that crosses a process
/// boundary must own it).
struct Span {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span_id = 0;
  std::uint32_t node_id = kUnknownNode;
  std::string name;
  std::uint16_t rpc_id = 0;
  std::uint32_t attempt = 0;
  std::uint32_t thread = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t duration_ns = 0;

  [[nodiscard]] std::uint64_t end_ns() const noexcept {
    return start_ns + duration_ns;
  }
};

[[nodiscard]] Span to_span(const metrics::TraceSpan& s);

/// One assembled causal tree: every surviving span of one trace id,
/// indexed, with child lists and root set. Spans whose parent was lost
/// (ring wrap, drops) are adopted as roots — a partial trace still
/// renders instead of vanishing.
struct TraceTree {
  std::uint64_t trace_id = 0;
  std::vector<Span> spans;
  std::vector<std::vector<std::size_t>> children;  ///< parallel to spans
  std::vector<std::size_t> roots;                  ///< indices into spans
  std::uint64_t start_ns = 0;  ///< earliest span start
  std::uint64_t end_ns = 0;    ///< latest span end

  [[nodiscard]] std::uint64_t duration_ns() const noexcept {
    return end_ns - start_ns;
  }
};

/// Merges span dumps (from this process and from daemons' trace_dump
/// responses) into TraceTrees. Duplicate span ids within a trace are
/// kept once (duplicate RPC delivery, double dumps); spans with
/// trace_id 0 are ignored.
class Assembler {
 public:
  void add(Span span);
  /// `clock_offset_ns` is added to each span's start: on a multi-host
  /// deployment, pass (collector_now - node_capture_ns) to normalize
  /// per-node steady-clock epochs. Same-host processes share
  /// CLOCK_MONOTONIC, so 0 is correct there.
  void add_spans(const std::vector<Span>& spans,
                 std::int64_t clock_offset_ns = 0);
  void add_spans(const std::vector<metrics::TraceSpan>& spans,
                 std::int64_t clock_offset_ns = 0);

  /// All assembled trees, oldest first.
  [[nodiscard]] std::vector<TraceTree> assemble() const;
  /// The k slowest trees by end-to-end (envelope) duration, slowest
  /// first.
  [[nodiscard]] std::vector<TraceTree> slowest(std::size_t k) const;

  [[nodiscard]] std::size_t span_count() const noexcept { return count_; }

 private:
  // trace id -> spans (dedup by span id at add()).
  std::map<std::uint64_t, std::vector<Span>> by_trace_;
  std::size_t count_ = 0;
};

// ---------- Chrome Trace Event export ----------

/// Serialize trees to Chrome Trace Event JSON ({"traceEvents":[...]}):
/// one "X" (complete) event per span with pid = node id and tid =
/// recording thread, "M" process_name metadata per node, and "s"/"f"
/// flow arrows for every parent→child edge that crosses nodes (the RPC
/// wire hops). Timestamps are microseconds (Chrome's unit).
[[nodiscard]] std::string to_chrome_json(const std::vector<TraceTree>& trees);

/// Minimal parse of the exporter's output (tests, tooling sanity):
/// flat event objects with string/number fields; nested "args" objects
/// are skipped. Not a general JSON parser.
struct ChromeEvent {
  std::string name;
  std::string cat;
  std::string ph;
  std::string id;  ///< flow id, empty when absent
  std::int64_t pid = -1;
  std::int64_t tid = -1;
  double ts = 0;
  double dur = 0;
};
Result<std::vector<ChromeEvent>> parse_chrome_json(std::string_view json);

// ---------- rendering ----------

/// Human name for a wire rpc id in printouts; empty string falls back
/// to "id<N>". (The proto layer's rpc_name slots in here; trace cannot
/// depend on proto.)
using RpcNameFn = std::function<std::string(std::uint16_t)>;

/// Indented per-stage rendering of one tree:
///   trace 0x9f2… total=12.41ms spans=9
///     client.write                      node=c0000001 +0.00ms 12.41ms
///       rpc.caller write_chunks         node=c0000001 +0.02ms 11.90ms
///         rpc.service write_chunks      node=1        +0.31ms 10.80ms
///           daemon.io.slice ...
[[nodiscard]] std::string format_trace(const TraceTree& tree,
                                       const RpcNameFn& rpc_name = nullptr);

}  // namespace gekko::trace
