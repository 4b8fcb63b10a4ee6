#include "client/client.h"
#include "common/thread_annotations.h"

#include <algorithm>
#include <chrono>
#include <map>

#include "common/flight_recorder.h"
#include "common/logging.h"
#include "common/trace.h"
#include "proto/chunking.h"

namespace gekko::client {

using proto::RpcId;

namespace {

// RAII root span + watchdog for one client entry point. Inherits the
// thread's context when a trace is already active (rmdir → stat →
// readdir nest under one trace); otherwise starts a fresh trace when
// deep tracing is enabled, so every forward() issued inside the scope
// carries this op's trace id. The slow-op line fires for top-level ops
// only (nested ops show up inside their root's trace) and keeps
// working with tracing sampled off — the watchdog needs no collector.
class OpTrace {
 public:
  OpTrace(metrics::Tracer& tracer, const char* span_name,
          const char* op) noexcept
      : tracer_(tracer),
        span_name_(span_name),
        op_(op),
        prev_(trace::current()),
        t0_(metrics::now_ns()) {
    std::uint64_t trace_id = prev_.trace_id;
    if (trace_id == 0 && trace::enabled()) trace_id = trace::new_trace_id();
    if (trace_id != 0) {
      span_id_ = trace::new_span_id();
      trace::set_current({trace_id, span_id_});
    }
    // Flight-recorder entry marker: works with tracing sampled off
    // (trace_id 0) so a postmortem always names the op in progress.
    flight::record_traced(flight::Subsys::client, flight::ev::client_op,
                          trace_id, flight::tag(op));
  }
  ~OpTrace() {
    const std::uint64_t dur = metrics::now_ns() - t0_;
    const trace::SpanContext ctx = trace::current();
    if (span_id_ != 0) {
      tracer_.record(span_name_, ctx.trace_id, span_id_, prev_.span_id,  // span-name-ok: forwards the literal ctor argument, checked at OpTrace call sites
                     0, 0, t0_, dur);
      trace::set_current(prev_);
    }
    const std::uint64_t threshold = trace::slow_op_threshold_ns();
    if (threshold != 0 && dur > threshold && !prev_.active()) {
      trace::log_slow_op("client", op_, ctx.trace_id, dur);
    }
  }
  OpTrace(const OpTrace&) = delete;
  OpTrace& operator=(const OpTrace&) = delete;

 private:
  metrics::Tracer& tracer_;
  const char* span_name_;
  const char* op_;
  trace::SpanContext prev_;
  std::uint64_t t0_;
  std::uint64_t span_id_ = 0;
};

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

Client::Client(net::Fabric& fabric, std::vector<net::EndpointId> daemons,
               ClientOptions options)
    : fabric_(fabric),
      daemons_(std::move(daemons)),
      options_(std::move(options)),
      registry_(options_.registry != nullptr ? options_.registry
                                             : &metrics::Registry::global()),
      distributor_(proto::make_distributor(
          options_.distribution,
          static_cast<std::uint32_t>(daemons_.size()))),
      size_cache_(options_.size_cache_interval),
      stat_cache_(options_.stat_cache_ttl) {
  m_.rpcs_sent = &registry_->counter("client.rpcs_sent");
  m_.bytes_written = &registry_->counter("client.bytes_written");
  m_.bytes_read = &registry_->counter("client.bytes_read");
  m_.stat_cache_hits = &registry_->counter("client.stat_cache.hits");
  m_.stat_cache_misses = &registry_->counter("client.stat_cache.misses");
  m_.size_updates_sent = &registry_->counter("client.size_updates.sent");
  m_.size_updates_absorbed =
      &registry_->counter("client.size_updates.absorbed");
  m_.write_fanout = &registry_->histogram("client.write.fanout");
  m_.read_fanout = &registry_->histogram("client.read.fanout");

  rpc::EngineOptions rpc_opts = options_.rpc_options;
  if (rpc_opts.name == "engine") rpc_opts.name = "gkfs-client";
  if (rpc_opts.registry == nullptr) rpc_opts.registry = registry_;
  if (!rpc_opts.rpc_name) rpc_opts.rpc_name = proto::rpc_name;
  // The client engine only *sends*; one handler thread suffices for the
  // (none) incoming requests, and the fabric's delivery thread completes
  // responses.
  rpc_opts.handler_threads = 1;
  // Failure semantics at the forwarding layer: idempotent reads retry
  // through the engine after transient outcomes (a daemon hiccup or
  // restart); mutating rpcs never do — a replayed create/remove could
  // double-apply. The per-id classification lives in ONE place,
  // proto::rpc_retry_class() (messages.h), where gekko-protocheck
  // enforces that every RpcId is classified explicitly. Non-retryable
  // failures surface as the POSIX error errc_to_errno maps them to
  // (disconnected → ECONNRESET, internal → EIO, ...). Callers can
  // override both knobs via rpc_options.
  if (!rpc_opts.retryable) {
    rpc_opts.retryable = [](std::uint16_t id) {
      return proto::rpc_retryable(id);
    };
    if (rpc_opts.max_attempts <= 1) rpc_opts.max_attempts = 3;
  }
  engine_ = std::make_unique<rpc::Engine>(fabric_, rpc_opts);
}

Result<std::vector<std::uint8_t>> Client::finish_or_retry_(
    rpc::Engine::PendingCall& call, net::EndpointId ep, std::uint16_t rpc_id,
    std::vector<std::uint8_t> payload, net::BulkRegion bulk) {
  auto r = engine_->finish(call);
  if (r.is_ok()) return r;
  const Errc code = r.code();
  if (code != Errc::timed_out && code != Errc::disconnected &&
      code != Errc::again) {
    return r;
  }
  if (!engine_->is_retryable(rpc_id)) return r;
  // Fan-out calls bypass forward()'s retry loop; re-forward this one
  // call synchronously (the engine applies its own backoff policy).
  m_.rpcs_sent->inc();
  {
    LockGuard lock(stats_mutex_);
    ++stats_.rpcs_sent;
  }
  return engine_->forward(ep, rpc_id, std::move(payload), bulk);
}

// ---------- metadata ----------

Status Client::create(std::string_view path, proto::FileType type,
                      std::uint32_t mode) {
  OpTrace op(engine_->tracer(), "client.create", "create");
  const std::uint32_t target = distributor_->metadata_target(path);
  proto::CreateRequest req;
  req.path = std::string(path);
  req.type = static_cast<std::uint8_t>(type);
  req.mode = mode;
  req.ctime_ns = now_ns();
  auto resp = engine_->forward(endpoint_of_(target),
                               proto::to_wire(RpcId::create), req.encode());
  m_.rpcs_sent->inc();
  {
    LockGuard lock(stats_mutex_);
    ++stats_.rpcs_sent;
  }
  return resp.status();
}

Result<proto::Metadata> Client::stat(std::string_view path) {
  OpTrace op(engine_->tracer(), "client.stat", "stat");
  const std::string key{path};
  if (auto cached = stat_cache_.lookup(key)) {
    m_.stat_cache_hits->inc();
    return *cached;
  }
  m_.stat_cache_misses->inc();
  const std::uint32_t target = distributor_->metadata_target(path);
  proto::PathRequest req{std::string(path)};
  auto resp = engine_->forward(endpoint_of_(target),
                               proto::to_wire(RpcId::stat), req.encode());
  m_.rpcs_sent->inc();
  {
    LockGuard lock(stats_mutex_);
    ++stats_.rpcs_sent;
  }
  if (!resp) return resp.status();
  auto decoded = proto::StatResponse::decode(
      std::string_view(reinterpret_cast<const char*>(resp->data()),
                       resp->size()));
  if (!decoded) return decoded.status();
  stat_cache_.store(key, decoded->metadata);
  return decoded->metadata;
}

Status Client::remove(std::string_view path) {
  OpTrace op(engine_->tracer(), "client.remove", "remove");
  size_cache_.forget(std::string(path));
  stat_cache_.invalidate(std::string(path));
  const std::uint32_t target = distributor_->metadata_target(path);
  proto::PathRequest req{std::string(path)};
  auto resp =
      engine_->forward(endpoint_of_(target),
                       proto::to_wire(RpcId::remove_metadata), req.encode());
  m_.rpcs_sent->inc();
  {
    LockGuard lock(stats_mutex_);
    ++stats_.rpcs_sent;
  }
  if (!resp) return resp.status();
  auto decoded = proto::StatResponse::decode(
      std::string_view(reinterpret_cast<const char*>(resp->data()),
                       resp->size()));
  if (!decoded) return decoded.status();

  // Zero-byte files (the dominant mdtest case) need no data cleanup:
  // one RPC per remove, which is what makes Fig. 2c scale.
  if (decoded->metadata.size == 0 ||
      decoded->metadata.is_directory()) {
    return Status::ok();
  }
  return remove_data_everywhere_(path);
}

Status Client::remove_data_everywhere_(std::string_view path) {
  proto::PathRequest req{std::string(path)};
  std::vector<rpc::Engine::PendingCall> calls;
  calls.reserve(daemons_.size());
  for (const net::EndpointId ep : daemons_) {
    calls.push_back(engine_->begin_forward(
        ep, proto::to_wire(RpcId::remove_data), req.encode()));
  }
  m_.rpcs_sent->inc(daemons_.size());
  {
    LockGuard lock(stats_mutex_);
    stats_.rpcs_sent += daemons_.size();
  }
  Status first_error = Status::ok();
  for (auto& call : calls) {
    auto r = engine_->finish(call);
    if (!r && first_error.is_ok()) first_error = r.status();
  }
  return first_error;
}

// ---------- bulk metadata ----------

namespace {
std::string_view as_view(const std::vector<std::uint8_t>& bytes) {
  return std::string_view(reinterpret_cast<const char*>(bytes.data()),
                          bytes.size());
}
}  // namespace

Status Client::create_batch(const std::vector<std::string>& paths,
                            proto::FileType type, std::vector<Errc>* out,
                            std::uint32_t mode) {
  OpTrace op(engine_->tracer(), "client.create_batch", "create_batch");
  out->assign(paths.size(), Errc::ok);
  if (paths.empty()) return Status::ok();

  const std::int64_t ctime = now_ns();
  std::map<std::uint32_t, proto::BatchCreateRequest> per_daemon;
  std::map<std::uint32_t, std::vector<std::size_t>> origin;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    const std::uint32_t target = distributor_->metadata_target(paths[i]);
    proto::BatchCreateRequest::Entry e;
    e.path = paths[i];
    e.type = static_cast<std::uint8_t>(type);
    e.mode = mode;
    e.ctime_ns = ctime;
    per_daemon[target].entries.push_back(std::move(e));
    origin[target].push_back(i);
  }

  std::vector<rpc::Engine::PendingCall> calls;
  std::vector<std::uint32_t> call_daemon;
  calls.reserve(per_daemon.size());
  for (const auto& [daemon_id, req] : per_daemon) {
    call_daemon.push_back(daemon_id);
    calls.push_back(engine_->begin_forward(endpoint_of_(daemon_id),
                                           proto::to_wire(RpcId::batch_create),
                                           req.encode()));
  }
  m_.rpcs_sent->inc(per_daemon.size());
  {
    LockGuard lock(stats_mutex_);
    stats_.rpcs_sent += per_daemon.size();
  }

  for (std::size_t c = 0; c < calls.size(); ++c) {
    const std::vector<std::size_t>& idx = origin[call_daemon[c]];
    auto r = engine_->finish(calls[c]);
    if (!r) {
      // Transport failure: every entry routed to this daemon fails with
      // the transport's code; other daemons' entries are unaffected.
      for (const std::size_t i : idx) (*out)[i] = r.code();
      continue;
    }
    auto resp = proto::BatchCreateResponse::decode(as_view(*r));
    if (!resp || resp->statuses.size() != idx.size()) {
      for (const std::size_t i : idx) (*out)[i] = Errc::corruption;
      continue;
    }
    for (std::size_t j = 0; j < idx.size(); ++j) {
      (*out)[idx[j]] = proto::batch_status_to_errc(resp->statuses[j]);
    }
  }
  return Status::ok();
}

Status Client::stat_batch(const std::vector<std::string>& paths,
                          std::vector<Errc>* out,
                          std::vector<proto::Metadata>* mds) {
  OpTrace op(engine_->tracer(), "client.stat_batch", "stat_batch");
  out->assign(paths.size(), Errc::ok);
  mds->assign(paths.size(), proto::Metadata{});
  if (paths.empty()) return Status::ok();

  std::map<std::uint32_t, proto::BatchPathRequest> per_daemon;
  std::map<std::uint32_t, std::vector<std::size_t>> origin;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    const std::uint32_t target = distributor_->metadata_target(paths[i]);
    per_daemon[target].paths.push_back(paths[i]);
    origin[target].push_back(i);
  }

  std::vector<rpc::Engine::PendingCall> calls;
  std::vector<std::uint32_t> call_daemon;
  std::vector<std::vector<std::uint8_t>> call_reqs;
  calls.reserve(per_daemon.size());
  for (const auto& [daemon_id, req] : per_daemon) {
    call_daemon.push_back(daemon_id);
    call_reqs.push_back(req.encode());
    calls.push_back(engine_->begin_forward(endpoint_of_(daemon_id),
                                           proto::to_wire(RpcId::batch_stat),
                                           call_reqs.back()));
  }
  m_.rpcs_sent->inc(per_daemon.size());
  {
    LockGuard lock(stats_mutex_);
    stats_.rpcs_sent += per_daemon.size();
  }

  for (std::size_t c = 0; c < calls.size(); ++c) {
    const std::vector<std::size_t>& idx = origin[call_daemon[c]];
    auto r = finish_or_retry_(calls[c], endpoint_of_(call_daemon[c]),
                              proto::to_wire(RpcId::batch_stat),
                              std::move(call_reqs[c]));
    if (!r) {
      for (const std::size_t i : idx) (*out)[i] = r.code();
      continue;
    }
    auto resp = proto::BatchStatResponse::decode(as_view(*r));
    if (!resp || resp->entries.size() != idx.size()) {
      for (const std::size_t i : idx) (*out)[i] = Errc::corruption;
      continue;
    }
    for (std::size_t j = 0; j < idx.size(); ++j) {
      auto& e = resp->entries[j];
      (*out)[idx[j]] = proto::batch_status_to_errc(e.status);
      if (e.status == proto::BatchStatus::ok) {
        (*mds)[idx[j]] = std::move(e.metadata);
      }
    }
  }
  return Status::ok();
}

Status Client::remove_batch(const std::vector<std::string>& paths,
                            std::vector<Errc>* out) {
  OpTrace op(engine_->tracer(), "client.remove_batch", "remove_batch");
  out->assign(paths.size(), Errc::ok);
  if (paths.empty()) return Status::ok();
  for (const auto& p : paths) {
    size_cache_.forget(p);
    stat_cache_.invalidate(p);
  }

  std::map<std::uint32_t, proto::BatchPathRequest> per_daemon;
  std::map<std::uint32_t, std::vector<std::size_t>> origin;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    const std::uint32_t target = distributor_->metadata_target(paths[i]);
    per_daemon[target].paths.push_back(paths[i]);
    origin[target].push_back(i);
  }

  std::vector<rpc::Engine::PendingCall> calls;
  std::vector<std::uint32_t> call_daemon;
  calls.reserve(per_daemon.size());
  for (const auto& [daemon_id, req] : per_daemon) {
    call_daemon.push_back(daemon_id);
    calls.push_back(engine_->begin_forward(endpoint_of_(daemon_id),
                                           proto::to_wire(RpcId::batch_remove),
                                           req.encode()));
  }
  m_.rpcs_sent->inc(per_daemon.size());
  {
    LockGuard lock(stats_mutex_);
    stats_.rpcs_sent += per_daemon.size();
  }

  // Files that had data still need chunk cleanup (rare under mdtest:
  // its files are empty, so removes stay one batch RPC per daemon).
  std::vector<std::size_t> need_cleanup;
  for (std::size_t c = 0; c < calls.size(); ++c) {
    const std::vector<std::size_t>& idx = origin[call_daemon[c]];
    auto r = engine_->finish(calls[c]);
    if (!r) {
      for (const std::size_t i : idx) (*out)[i] = r.code();
      continue;
    }
    auto resp = proto::BatchRemoveResponse::decode(as_view(*r));
    if (!resp || resp->entries.size() != idx.size()) {
      for (const std::size_t i : idx) (*out)[i] = Errc::corruption;
      continue;
    }
    for (std::size_t j = 0; j < idx.size(); ++j) {
      const auto& e = resp->entries[j];
      (*out)[idx[j]] = proto::batch_status_to_errc(e.status);
      if (e.status == proto::BatchStatus::ok && e.old_size > 0 &&
          e.was_directory == 0) {
        need_cleanup.push_back(idx[j]);
      }
    }
  }
  for (const std::size_t i : need_cleanup) {
    Status st = remove_data_everywhere_(paths[i]);
    if (!st.is_ok()) (*out)[i] = st.code();
  }
  return Status::ok();
}

Status Client::truncate(std::string_view path, std::uint64_t new_size) {
  OpTrace op(engine_->tracer(), "client.truncate", "truncate");
  stat_cache_.invalidate(std::string(path));
  proto::TruncateRequest req;
  req.path = std::string(path);
  req.new_size = new_size;

  const std::uint32_t target = distributor_->metadata_target(path);
  auto resp = engine_->forward(endpoint_of_(target),
                               proto::to_wire(RpcId::truncate_metadata),
                               req.encode());
  m_.rpcs_sent->inc();
  {
    LockGuard lock(stats_mutex_);
    ++stats_.rpcs_sent;
  }
  GEKKO_RETURN_IF_ERROR(resp.status());

  // Chunk cleanup on every daemon that may hold chunks past the cut.
  std::vector<rpc::Engine::PendingCall> calls;
  calls.reserve(daemons_.size());
  for (const net::EndpointId ep : daemons_) {
    calls.push_back(engine_->begin_forward(
        ep, proto::to_wire(RpcId::truncate_data), req.encode()));
  }
  m_.rpcs_sent->inc(daemons_.size());
  {
    LockGuard lock(stats_mutex_);
    stats_.rpcs_sent += daemons_.size();
  }
  Status first_error = Status::ok();
  for (auto& call : calls) {
    auto r = engine_->finish(call);
    if (!r && first_error.is_ok()) first_error = r.status();
  }
  return first_error;
}

Status Client::send_size_update_(const std::string& path,
                                 std::uint64_t size) {
  proto::UpdateSizeRequest req;
  req.path = path;
  req.observed_size = size;
  req.mtime_ns = now_ns();
  const std::uint32_t target = distributor_->metadata_target(path);
  auto resp =
      engine_->forward(endpoint_of_(target),
                       proto::to_wire(RpcId::update_size), req.encode());
  m_.rpcs_sent->inc();
  m_.size_updates_sent->inc();
  {
    LockGuard lock(stats_mutex_);
    ++stats_.rpcs_sent;
    ++stats_.size_updates_sent;
  }
  return resp.status();
}

Status Client::flush_size(std::string_view path) {
  const std::string key{path};
  if (auto pending = size_cache_.flush(key)) {
    return send_size_update_(key, *pending);
  }
  return Status::ok();
}

// ---------- data ----------

Result<std::size_t> Client::write(std::string_view path, std::uint64_t offset,
                                  std::span<const std::uint8_t> data) {
  if (data.empty()) return std::size_t{0};
  OpTrace op(engine_->tracer(), "client.write", "write");

  // Split into chunk slices, then group per target daemon.
  const auto extents =
      proto::split_extent(offset, data.size(), options_.chunk_size);
  std::map<std::uint32_t, proto::ChunkIoRequest> per_daemon;
  for (const auto& e : extents) {
    const std::uint32_t target = distributor_->chunk_target(path, e.chunk_id);
    auto& req = per_daemon[target];
    if (req.path.empty()) req.path = std::string(path);
    req.slices.push_back(proto::ChunkSlice{e.chunk_id, e.offset_in_chunk,
                                           e.length, e.buffer_offset});
  }

  // Expose the write buffer once; every daemon pulls its slices.
  const net::BulkRegion bulk = net::BulkRegion::expose_read(data);
  m_.write_fanout->record(per_daemon.size());

  std::vector<rpc::Engine::PendingCall> calls;
  calls.reserve(per_daemon.size());
  for (const auto& [daemon_id, req] : per_daemon) {
    calls.push_back(engine_->begin_forward(endpoint_of_(daemon_id),
                                           proto::to_wire(RpcId::write_chunks),
                                           req.encode(), bulk));
  }
  m_.rpcs_sent->inc(per_daemon.size());
  {
    LockGuard lock(stats_mutex_);
    stats_.rpcs_sent += per_daemon.size();
  }

  std::uint64_t written = 0;
  Status first_error = Status::ok();
  for (auto& call : calls) {
    auto r = engine_->finish(call);
    if (!r) {
      if (first_error.is_ok()) first_error = r.status();
      continue;
    }
    auto decoded = proto::ChunkIoResponse::decode(
        std::string_view(reinterpret_cast<const char*>(r->data()),
                         r->size()));
    if (!decoded) {
      if (first_error.is_ok()) first_error = decoded.status();
      continue;
    }
    written += decoded->bytes;
  }
  GEKKO_RETURN_IF_ERROR(first_error);

  // Size update to the metadata owner — synchronous by default, or
  // absorbed by the write-back cache (paper §IV.B).
  const std::string key{path};
  const std::uint64_t observed = offset + data.size();
  stat_cache_.on_local_write(key, observed);
  if (auto to_send = size_cache_.observe(key, observed)) {
    GEKKO_RETURN_IF_ERROR(send_size_update_(key, *to_send));
  } else {
    m_.size_updates_absorbed->inc();
    LockGuard lock(stats_mutex_);
    ++stats_.size_updates_absorbed;
  }

  m_.bytes_written->inc(written);
  {
    LockGuard lock(stats_mutex_);
    stats_.bytes_written += written;
  }
  return static_cast<std::size_t>(written);
}

Result<std::size_t> Client::read(std::string_view path, std::uint64_t offset,
                                 std::span<std::uint8_t> out) {
  if (out.empty()) return std::size_t{0};
  OpTrace op(engine_->tracer(), "client.read", "read");

  // The file size bounds the read (EOF). One stat to the metadata owner.
  auto md = stat(path);
  if (!md) return md.status();
  if (offset >= md->size) return std::size_t{0};
  const std::uint64_t readable =
      std::min<std::uint64_t>(out.size(), md->size - offset);

  const auto extents =
      proto::split_extent(offset, readable, options_.chunk_size);
  std::map<std::uint32_t, proto::ChunkIoRequest> per_daemon;
  for (const auto& e : extents) {
    const std::uint32_t target = distributor_->chunk_target(path, e.chunk_id);
    auto& req = per_daemon[target];
    if (req.path.empty()) req.path = std::string(path);
    req.slices.push_back(proto::ChunkSlice{e.chunk_id, e.offset_in_chunk,
                                           e.length, e.buffer_offset});
  }

  const net::BulkRegion bulk =
      net::BulkRegion::expose_write(out.subspan(0, readable));
  m_.read_fanout->record(per_daemon.size());

  std::vector<rpc::Engine::PendingCall> calls;
  std::vector<net::EndpointId> call_eps;
  std::vector<std::vector<std::uint8_t>> call_reqs;
  calls.reserve(per_daemon.size());
  for (const auto& [daemon_id, req] : per_daemon) {
    call_eps.push_back(endpoint_of_(daemon_id));
    call_reqs.push_back(req.encode());
    calls.push_back(engine_->begin_forward(call_eps.back(),
                                           proto::to_wire(RpcId::read_chunks),
                                           call_reqs.back(), bulk));
  }
  m_.rpcs_sent->inc(per_daemon.size());
  {
    LockGuard lock(stats_mutex_);
    stats_.rpcs_sent += per_daemon.size();
  }

  std::uint64_t transferred = 0;
  Status first_error = Status::ok();
  for (std::size_t i = 0; i < calls.size(); ++i) {
    auto& call = calls[i];
    auto r = finish_or_retry_(call, call_eps[i],
                              proto::to_wire(RpcId::read_chunks),
                              std::move(call_reqs[i]), bulk);
    if (!r) {
      if (first_error.is_ok()) first_error = r.status();
      continue;
    }
    auto decoded = proto::ChunkIoResponse::decode(
        std::string_view(reinterpret_cast<const char*>(r->data()),
                         r->size()));
    if (!decoded) {
      if (first_error.is_ok()) first_error = decoded.status();
      continue;
    }
    transferred += decoded->bytes;
  }
  GEKKO_RETURN_IF_ERROR(first_error);

  m_.bytes_read->inc(transferred);
  {
    LockGuard lock(stats_mutex_);
    stats_.bytes_read += transferred;
  }
  return static_cast<std::size_t>(readable);
}

// ---------- directories ----------

Result<std::vector<proto::Dirent>> Client::readdir(std::string_view dir) {
  OpTrace op(engine_->tracer(), "client.readdir", "readdir");
  proto::DirentsRequest req{std::string(dir)};
  std::vector<rpc::Engine::PendingCall> calls;
  calls.reserve(daemons_.size());
  for (const net::EndpointId ep : daemons_) {
    calls.push_back(engine_->begin_forward(
        ep, proto::to_wire(RpcId::get_dirents), req.encode()));
  }
  m_.rpcs_sent->inc(daemons_.size());
  {
    LockGuard lock(stats_mutex_);
    stats_.rpcs_sent += daemons_.size();
  }

  std::vector<proto::Dirent> merged;
  for (std::size_t i = 0; i < calls.size(); ++i) {
    auto& call = calls[i];
    auto r = finish_or_retry_(call, daemons_[i],
                              proto::to_wire(RpcId::get_dirents),
                              req.encode());
    if (!r) return r.status();
    auto decoded = proto::DirentsResponse::decode(
        std::string_view(reinterpret_cast<const char*>(r->data()),
                         r->size()));
    if (!decoded) return decoded.status();
    merged.insert(merged.end(), decoded->entries.begin(),
                  decoded->entries.end());
  }
  std::sort(merged.begin(), merged.end(),
            [](const proto::Dirent& a, const proto::Dirent& b) {
              return a.name < b.name;
            });
  return merged;
}

Status Client::rmdir(std::string_view path) {
  OpTrace op(engine_->tracer(), "client.rmdir", "rmdir");
  auto md = stat(path);
  if (!md) return md.status();
  if (!md->is_directory()) return Errc::not_directory;
  auto entries = readdir(path);
  if (!entries) return entries.status();
  if (!entries->empty()) return Errc::not_empty;
  return remove(path);
}

// ---------- cluster ----------

Result<std::vector<proto::DaemonStatResponse>> Client::daemon_stats() {
  std::vector<rpc::Engine::PendingCall> calls;
  calls.reserve(daemons_.size());
  for (const net::EndpointId ep : daemons_) {
    calls.push_back(engine_->begin_forward(
        ep, proto::to_wire(RpcId::daemon_stat), {}));
  }
  std::vector<proto::DaemonStatResponse> out;
  for (auto& call : calls) {
    auto r = engine_->finish(call);
    if (!r) return r.status();
    auto decoded = proto::DaemonStatResponse::decode(
        std::string_view(reinterpret_cast<const char*>(r->data()),
                         r->size()));
    if (!decoded) return decoded.status();
    out.push_back(*decoded);
  }
  return out;
}

Result<std::vector<proto::TraceDumpResponse>> Client::trace_dumps() {
  std::vector<rpc::Engine::PendingCall> calls;
  calls.reserve(daemons_.size());
  for (const net::EndpointId ep : daemons_) {
    calls.push_back(engine_->begin_forward(
        ep, proto::to_wire(RpcId::trace_dump), {}));
  }
  std::vector<proto::TraceDumpResponse> out;
  for (auto& call : calls) {
    auto r = engine_->finish(call);
    if (!r) return r.status();
    auto decoded = proto::TraceDumpResponse::decode(
        std::string_view(reinterpret_cast<const char*>(r->data()),
                         r->size()));
    if (!decoded) return decoded.status();
    out.push_back(std::move(*decoded));
  }
  return out;
}

Result<std::vector<proto::FlightDumpResponse>> Client::flight_dumps() {
  std::vector<rpc::Engine::PendingCall> calls;
  calls.reserve(daemons_.size());
  for (const net::EndpointId ep : daemons_) {
    calls.push_back(engine_->begin_forward(
        ep, proto::to_wire(RpcId::flight_dump), {}));
  }
  std::vector<proto::FlightDumpResponse> out;
  for (auto& call : calls) {
    auto r = engine_->finish(call);
    if (!r) return r.status();
    auto decoded = proto::FlightDumpResponse::decode(
        std::string_view(reinterpret_cast<const char*>(r->data()),
                         r->size()));
    if (!decoded) return decoded.status();
    out.push_back(std::move(*decoded));
  }
  return out;
}

std::vector<std::optional<proto::HeartbeatResponse>> Client::heartbeats(
    std::chrono::milliseconds timeout) {
  std::vector<rpc::Engine::PendingCall> calls;
  calls.reserve(daemons_.size());
  for (const net::EndpointId ep : daemons_) {
    calls.push_back(
        engine_->begin_forward(ep, proto::to_wire(RpcId::heartbeat), {}));
  }
  std::vector<std::optional<proto::HeartbeatResponse>> out;
  out.reserve(calls.size());
  for (auto& call : calls) {
    auto r = timeout.count() > 0 ? engine_->finish(call, timeout)
                                 : engine_->finish(call);
    if (!r) {
      out.push_back(std::nullopt);
      continue;
    }
    auto decoded = proto::HeartbeatResponse::decode(std::string_view(
        reinterpret_cast<const char*>(r->data()), r->size()));
    out.push_back(decoded.is_ok()
                      ? std::optional<proto::HeartbeatResponse>(*decoded)
                      : std::nullopt);
  }
  return out;
}

std::vector<std::optional<proto::MetricHistoryResponse>>
Client::metric_histories(std::string_view prefix,
                         std::chrono::milliseconds timeout) {
  proto::MetricHistoryRequest req{std::string(prefix)};
  std::vector<rpc::Engine::PendingCall> calls;
  calls.reserve(daemons_.size());
  for (const net::EndpointId ep : daemons_) {
    calls.push_back(engine_->begin_forward(
        ep, proto::to_wire(RpcId::metric_history), req.encode()));
  }
  std::vector<std::optional<proto::MetricHistoryResponse>> out;
  out.reserve(calls.size());
  for (auto& call : calls) {
    auto r = timeout.count() > 0 ? engine_->finish(call, timeout)
                                 : engine_->finish(call);
    if (!r) {
      out.push_back(std::nullopt);
      continue;
    }
    auto decoded = proto::MetricHistoryResponse::decode(std::string_view(
        reinterpret_cast<const char*>(r->data()), r->size()));
    out.push_back(decoded.is_ok() ? std::optional<proto::MetricHistoryResponse>(
                                        std::move(*decoded))
                                  : std::nullopt);
  }
  return out;
}

ClientStats Client::stats() const {
  ClientStats s;
  {
    LockGuard lock(stats_mutex_);
    s = stats_;
  }
  // Read the cache counters after dropping stats_mutex_: the stat
  // cache's lock ranks BEFORE client.stats (DESIGN §11.1), so calling
  // into it while holding stats_mutex_ was a lock-order violation
  // (caught by lockdep in cache_test's integration case).
  s.stat_cache_hits = stat_cache_.hits();
  s.stat_cache_misses = stat_cache_.misses();
  return s;
}

}  // namespace gekko::client
