// relaxed-ok: see engine.h — counters and metrics slot pointers only.
// table_ and started_ publish with release/acquire.
#include "rpc/engine.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "common/flight_recorder.h"
#include "common/hash.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/thread_annotations.h"
#include "common/trace.h"

namespace gekko::rpc {
namespace {

/// Outcomes worth re-sending an idempotent rpc for: the request may
/// never have reached the daemon, or the daemon may be back already.
bool transient(Errc code) {
  return code == Errc::timed_out || code == Errc::disconnected ||
         code == Errc::again;
}

}  // namespace

Engine::Engine(net::Fabric& fabric, EngineOptions options)
    : fabric_(fabric),
      options_(std::move(options)),
      registry_(options_.registry ? options_.registry
                                  : &metrics::Registry::global()),
      tracer_(options_.tracer ? options_.tracer : &metrics::Tracer::global()),
      self_(net::kInvalidEndpoint),
      handler_pool_(options_.handler_threads, options_.name + "-handlers"),
      agg_sent_(&registry_->counter("rpc.requests_sent")),
      agg_handled_(&registry_->counter("rpc.requests_handled")),
      agg_retries_(&registry_->counter("rpc.retries")),
      agg_timeouts_(&registry_->counter("rpc.timeouts")) {
  // Requests the fabric delivers before the constructor finishes are
  // parked (started_ is still false) and dispatched by start() below,
  // after self_ is set.
  self_ = fabric_.register_endpoint(
      [this](net::Message msg) { deliver_(std::move(msg)); });
  // The process's first engine names the node for trace spans (a
  // daemon's daemon id, a client's salted endpoint id).
  tracer_->set_node_id_if_unset(static_cast<std::uint32_t>(self_));
  if (!options_.start_paused) start();
}

void Engine::start() {
  if (stopped_.load()) return;
  // Dispatch in arrival order: requests that come in while a batch is
  // being served park behind it, and started_ flips only once the
  // parking lot is empty.
  for (;;) {
    std::vector<net::Message> batch;
    {
      LockGuard lock(park_mutex_);
      if (parked_.empty()) {
        started_.store(true, std::memory_order_release);
        return;
      }
      batch.swap(parked_);
    }
    for (net::Message& msg : batch) dispatch_request_(std::move(msg));
  }
}

Engine::~Engine() { shutdown(); }

void Engine::shutdown() {
  bool expected = false;
  if (!stopped_.compare_exchange_strong(expected, true)) return;
  // Returns once no delivery callback runs or can start.
  fabric_.deregister(self_);
  handler_pool_.shutdown();
  {
    LockGuard lock(park_mutex_);
    parked_.clear();
  }
  // Fail any still-pending forwards.
  LockGuard lock(pending_mutex_);
  for (auto& [seq, eventual] : pending_) {
    eventual.set(Status{Errc::disconnected, "engine shutdown"});
  }
  pending_.clear();
}

void Engine::register_rpc(std::uint16_t rpc_id, std::string name,
                          Dispatch dispatch, Handler handler) {
  auto entry = std::make_unique<RpcEntry>();
  const std::string base = "rpc.handler." + name + ".";
  entry->metrics.handled = &registry_->counter(base + "handled");
  entry->metrics.errors = &registry_->counter(base + "errors");
  entry->metrics.latency = &registry_->histogram(base + "latency");
  entry->metrics.queue = &registry_->histogram(base + "queue");
  entry->metrics.inflight = &registry_->gauge(base + "inflight");
  entry->name = std::move(name);
  entry->dispatch = dispatch;
  entry->handler = std::move(handler);

  LockGuard lock(rpc_mutex_);
  const RpcTable* current = table_.load(std::memory_order_acquire);
  auto next = std::make_unique<RpcTable>(current != nullptr ? *current
                                                            : RpcTable{});
  if (next->size() <= rpc_id) next->resize(std::size_t{rpc_id} + 1, nullptr);
  (*next)[rpc_id] = entry.get();
  entries_.push_back(std::move(entry));
  table_.store(next.get(), std::memory_order_release);
  tables_.push_back(std::move(next));
}

std::string Engine::rpc_name_(std::uint16_t rpc_id) const {
  if (options_.rpc_name) {
    std::string name = options_.rpc_name(rpc_id);
    if (!name.empty()) return name;
  }
  return "id" + std::to_string(rpc_id);
}

Engine::CallerMetrics* Engine::caller_metrics_for_(std::uint16_t rpc_id) {
  const std::size_t slot =
      std::min<std::size_t>(rpc_id, kCallerSlots - 1);
  CallerMetrics* m = caller_slots_[slot].load(std::memory_order_acquire);
  if (m != nullptr) return m;
  LockGuard lock(metrics_mutex_);
  m = caller_slots_[slot].load(std::memory_order_relaxed);
  if (m != nullptr) return m;
  const std::string base = "rpc.caller." + rpc_name_(rpc_id) + ".";
  auto owned = std::make_unique<CallerMetrics>();
  owned->sent = &registry_->counter(base + "sent");
  owned->ok = &registry_->counter(base + "ok");
  owned->errors = &registry_->counter(base + "errors");
  owned->retries = &registry_->counter(base + "retries");
  owned->timeouts = &registry_->counter(base + "timeouts");
  owned->latency = &registry_->histogram(base + "latency");
  owned->inflight = &registry_->gauge(base + "inflight");
  m = owned.get();
  caller_owned_.push_back(std::move(owned));
  caller_slots_[slot].store(m, std::memory_order_release);
  return m;
}

Result<std::vector<std::uint8_t>> Engine::forward(
    net::EndpointId dest, std::uint16_t rpc_id,
    std::vector<std::uint8_t> payload, net::BulkRegion bulk,
    std::chrono::milliseconds timeout) {
  const auto per_attempt =
      timeout.count() > 0 ? timeout : options_.rpc_timeout;
  const std::uint32_t attempts =
      (options_.max_attempts > 1 && options_.retryable &&
       options_.retryable(rpc_id))
          ? options_.max_attempts
          : 1;
  std::chrono::milliseconds backoff = options_.retry_backoff;
  // All attempts of one logical call share one trace id (from the
  // caller's context if a client op span is active, else minted by the
  // first begin); each re-send is a fresh caller span tagged attempt=N
  // so assembled trees show the retries instead of orphan traces.
  const trace::SpanContext ctx = trace::current();
  std::uint64_t trace_id = ctx.trace_id;
  for (std::uint32_t attempt = 0;; ++attempt) {
    const bool last = attempt + 1 >= attempts;
    std::vector<std::uint8_t> body;
    if (last) {
      body = std::move(payload);
    } else {
      body = payload;  // keep a copy while retries remain
    }
    PendingCall call = begin_forward_traced_(dest, rpc_id, std::move(body),
                                             bulk, trace_id, ctx.span_id,
                                             attempt);
    trace_id = call.trace_id;
    auto result = finish(call, per_attempt);
    if (result.is_ok() || last || !transient(result.code())) return result;
    retries_.fetch_add(1, std::memory_order_relaxed);
    agg_retries_->inc();
    caller_metrics_for_(rpc_id)->retries->inc();
    flight::record_traced(flight::Subsys::engine, flight::ev::engine_retry,
                          call.trace_id, attempt + 1, rpc_id);
    GEKKO_WARN("rpc") << options_.name << ": rpc " << rpc_id << " to "
                      << dest << " " << errc_name(result.code())
                      << ", retry " << (attempt + 1) << "/" << (attempts - 1)
                      << " after backoff";
    std::this_thread::sleep_for(jittered_(backoff, call.seq));  // blocking-ok: retry backoff runs on the blocked caller's thread, never on delivery/handler threads
    backoff = std::min(backoff * 2, options_.retry_backoff_max);
  }
}

std::chrono::milliseconds Engine::jittered_(std::chrono::milliseconds base,
                                            std::uint64_t seed) const {
  if (base.count() <= 0) return base;
  // Deterministic jitter in [base/2, base]: decorrelates a burst of
  // clients retrying against the same recovering daemon, while keeping
  // test runs replayable.
  SplitMix64 sm(seed ^ (static_cast<std::uint64_t>(self_) << 32));
  const auto half = base.count() / 2;
  const auto span = static_cast<std::uint64_t>(base.count() - half + 1);
  return std::chrono::milliseconds(
      half + static_cast<std::int64_t>(sm.next() % span));
}

Engine::PendingCall Engine::begin_forward(net::EndpointId dest,
                                          std::uint16_t rpc_id,
                                          std::vector<std::uint8_t> payload,
                                          net::BulkRegion bulk) {
  // Continue the calling thread's trace when one is active (client op
  // fan-out: every per-daemon call shares the op's trace id and
  // parents under its span).
  const trace::SpanContext ctx = trace::current();
  return begin_forward_traced_(dest, rpc_id, std::move(payload),
                               std::move(bulk), ctx.trace_id, ctx.span_id,
                               /*attempt=*/0);
}

Engine::PendingCall Engine::begin_forward_traced_(
    net::EndpointId dest, std::uint16_t rpc_id,
    std::vector<std::uint8_t> payload, net::BulkRegion bulk,
    std::uint64_t trace_id, std::uint64_t parent_span_id,
    std::uint32_t attempt) {
  PendingCall call;
  call.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  call.rpc_id = rpc_id;
  if (trace_id != 0) {
    call.trace_id = trace_id;
  } else {
    // Fresh trace: unique per call (seq is engine-unique, self_ makes
    // it process-unique on a shared fabric). Forced non-zero: 0 =
    // untraced.
    call.trace_id =
        mix64((static_cast<std::uint64_t>(self_) << 32) ^ call.seq);
    if (call.trace_id == 0) call.trace_id = 1;
  }
  call.span_id = trace::new_span_id();
  call.parent_span_id = parent_span_id;
  call.attempt = attempt;
  call.start_ns = metrics::now_ns();
  call.metrics = caller_metrics_for_(rpc_id);
  call.metrics->sent->inc();
  call.metrics->inflight->add(1);
  agg_sent_->inc();
  {
    LockGuard lock(pending_mutex_);
    pending_.emplace(call.seq, call.eventual);
  }
  // Crash-visible shadow of pending_: the fatal-signal handler walks
  // this table where it cannot take pending_mutex_.
  flight::inflight_begin(call.seq, rpc_id, dest, call.trace_id);

  net::Message msg;
  msg.kind = net::MessageKind::request;
  msg.rpc_id = rpc_id;
  msg.seq = call.seq;
  msg.trace_id = call.trace_id;
  msg.parent_span = call.span_id;  // serving-side spans parent here
  msg.source = self_;
  msg.payload = std::move(payload);
  msg.bulk = bulk;

  if (Status st = fabric_.send(dest, std::move(msg)); !st.is_ok()) {
    LockGuard lock(pending_mutex_);
    pending_.erase(call.seq);
    flight::inflight_end(call.seq);
    call.send_status = st;
    call.metrics->inflight->sub(1);
    call.metrics->errors->inc();
    call.metrics = nullptr;  // settled here; finish() must not re-count
  }
  return call;
}

Result<std::vector<std::uint8_t>> Engine::finish(PendingCall& call) {
  return finish(call, options_.rpc_timeout);
}

Result<std::vector<std::uint8_t>> Engine::finish(
    PendingCall& call, std::chrono::milliseconds timeout) {
  if (!call.send_status.is_ok()) return call.send_status;
  auto result = call.eventual.wait_for(timeout);
  {
    LockGuard lock(pending_mutex_);
    pending_.erase(call.seq);
  }
  flight::inflight_end(call.seq);
  // Settle caller-side accounting exactly once (metrics is nulled
  // below; a double finish() records nothing further).
  CallerMetrics* cm = call.metrics;
  call.metrics = nullptr;
  if (cm != nullptr) {
    const std::uint64_t dur = metrics::now_ns() - call.start_ns;
    cm->inflight->sub(1);
    cm->latency->record(dur);
    tracer_->record("rpc.caller", call.trace_id, call.span_id,
                    call.parent_span_id, call.rpc_id, call.attempt,
                    call.start_ns, dur);
    if (!result.has_value()) {
      cm->timeouts->inc();
      cm->errors->inc();
      agg_timeouts_->inc();
    } else if (result->is_ok()) {
      cm->ok->inc();
    } else {
      cm->errors->inc();
    }
  }
  if (!result.has_value()) {
    flight::record_traced(flight::Subsys::engine, flight::ev::engine_timeout,
                          call.trace_id, call.seq, call.rpc_id);
    // Deadline passed: revoke the transport's claim on any writable
    // bulk region BEFORE returning, so a late response cannot scribble
    // into a buffer the caller is about to reuse.
    fabric_.cancel(call.seq);
    return Status{Errc::timed_out,
                  "rpc seq " + std::to_string(call.seq) + " timed out"};
  }
  return std::move(*result);
}

void Engine::deliver_(net::Message msg) {
  if (msg.kind == net::MessageKind::response) {
    complete_response_(std::move(msg));
    return;
  }
  if (!started_.load(std::memory_order_acquire)) {
    LockGuard lock(park_mutex_);
    if (!started_.load(std::memory_order_acquire)) {
      parked_.push_back(std::move(msg));
      return;
    }
  }
  dispatch_request_(std::move(msg));
}

void Engine::dispatch_request_(net::Message msg) {
  // Delivery thread: the message's trace, not this thread's context.
  flight::record_traced(flight::Subsys::engine, flight::ev::engine_dispatch,
                        msg.trace_id, msg.seq, msg.rpc_id);
  const RpcTable* table = table_.load(std::memory_order_acquire);
  const RpcEntry* entry = table != nullptr && msg.rpc_id < table->size()
                              ? (*table)[msg.rpc_id]
                              : nullptr;
  if (entry == nullptr) {
    GEKKO_WARN("rpc") << options_.name << ": no handler for rpc id "
                      << msg.rpc_id;
    reply_(msg, frame_error(Errc::not_supported));
    return;
  }

  const std::uint64_t t_delivered = metrics::now_ns();
  if (entry->dispatch == Dispatch::inline_delivery) {
    serve_(*entry, msg, t_delivered);
    return;
  }
  auto shared_msg = std::make_shared<net::Message>(std::move(msg));
  const bool posted =
      handler_pool_.post([this, entry, shared_msg, t_delivered] {
        serve_(*entry, *shared_msg, t_delivered);
      });
  if (!posted) reply_(*shared_msg, frame_error(Errc::disconnected));
}

void Engine::serve_(const RpcEntry& entry, const net::Message& msg,
                    std::uint64_t t_delivered) {
  const HandlerMetrics& hm = entry.metrics;
  // Attribute queueing (delivery → handler start) and service time
  // separately: a slow op whose queue span dominates is starved for
  // handler threads, not slow to serve. Inline handlers queue ~0.
  const std::uint64_t t_start = metrics::now_ns();
  hm.queue->record(t_start - t_delivered);
  hm.inflight->add(1);
  // The service span is minted before the handler runs so the
  // handler's own child spans (io slices, storage, WAL) can parent
  // under it via the thread-local context. Handlers that fan work to
  // other threads deposit per-stage times for the watchdog line. Both
  // the context and the stage pad are restored afterwards: on loopback
  // an inline handler runs on the sending client's own thread.
  const std::uint64_t service_span = trace::new_span_id();
  const trace::StageScope stages;
  trace::stage_add("queue", t_start - t_delivered);
  Result<std::vector<std::uint8_t>> result = [&] {
    trace::ContextGuard guard(
        trace::enabled() ? trace::SpanContext{msg.trace_id, service_span}
                         : trace::SpanContext{});
    return entry.handler(msg);
  }();
  const std::uint64_t t_done = metrics::now_ns();
  hm.inflight->sub(1);
  hm.latency->record(t_done - t_start);
  hm.handled->inc();
  if (!result.is_ok()) hm.errors->inc();
  tracer_->record("rpc.queue", msg.trace_id, trace::new_span_id(),
                  msg.parent_span, msg.rpc_id, 0, t_delivered,
                  t_start - t_delivered);
  tracer_->record("rpc.service", msg.trace_id, service_span, msg.parent_span,
                  msg.rpc_id, 0, t_start, t_done - t_start);
  // Serving-side slow-op watchdog: one line with the queue/service
  // split plus whatever stages the handler deposited (io, bulk).
  const std::uint64_t threshold = trace::slow_op_threshold_ns();
  if (threshold != 0 && t_done - t_delivered > threshold) {
    trace::log_slow_op(options_.name.c_str(),
                       entry.name.empty() ? rpc_name_(msg.rpc_id)
                                          : entry.name,
                       msg.trace_id, t_done - t_delivered,
                       {{"service", t_done - t_start}});
  }
  handled_.fetch_add(1, std::memory_order_relaxed);
  agg_handled_->inc();
  reply_(msg, result.is_ok() ? frame_ok(std::move(*result))
                             : frame_error(result.code()));
}

void Engine::reply_(const net::Message& request,
                    std::vector<std::uint8_t> payload) {
  net::Message resp;
  resp.kind = net::MessageKind::response;
  resp.seq = request.seq;
  resp.trace_id = request.trace_id;
  resp.source = self_;
  resp.payload = std::move(payload);
  // status-ignored-ok: best-effort reply; a lost one times the caller out
  (void)fabric_.send(request.source, std::move(resp));
}

void Engine::complete_response_(net::Message msg) {
  task::Eventual<Result<std::vector<std::uint8_t>>> eventual;
  {
    LockGuard lock(pending_mutex_);
    auto it = pending_.find(msg.seq);
    if (it == pending_.end()) return;  // late response after timeout
    eventual = it->second;
    pending_.erase(it);
  }
  if (msg.payload.empty()) {
    eventual.set(Status{Errc::corruption, "empty response frame"});
    return;
  }
  const auto code = static_cast<Errc>(msg.payload[0]);
  if (code != Errc::ok) {
    eventual.set(Status{code});
    return;
  }
  msg.payload.erase(msg.payload.begin());
  eventual.set(std::move(msg.payload));
}

}  // namespace gekko::rpc
