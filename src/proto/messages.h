// GekkoFS RPC protocol: ids and request/response codecs.
//
// Every client-to-daemon interaction in the paper maps to one id here:
// metadata ops (create/stat/remove/update-size/truncate), chunked data
// ops (write/read via bulk regions), and the readdir broadcast.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/codec.h"
#include "common/flight_recorder.h"
#include "common/result.h"
#include "common/trace.h"
#include "proto/metadata.h"
#include "rpc/dispatch.h"

namespace gekko::proto {

enum class RpcId : std::uint16_t {
  create = 1,
  stat = 2,
  remove_metadata = 3,
  remove_data = 4,
  update_size = 5,
  truncate_metadata = 6,
  truncate_data = 7,
  write_chunks = 8,
  read_chunks = 9,
  get_dirents = 10,
  daemon_stat = 11,
  trace_dump = 12,
  heartbeat = 13,
  metric_history = 14,
  batch_create = 15,
  batch_stat = 16,
  batch_remove = 17,
  flight_dump = 18,
};

inline constexpr std::uint16_t to_wire(RpcId id) {
  return static_cast<std::uint16_t>(id);
}

/// Human name for a wire rpc id — metric names, traces, tooling.
/// Unknown ids return "" (the caller falls back to a numeric label).
inline std::string rpc_name(std::uint16_t id) {
  switch (static_cast<RpcId>(id)) {
    case RpcId::create: return "create";
    case RpcId::stat: return "stat";
    case RpcId::remove_metadata: return "remove_metadata";
    case RpcId::remove_data: return "remove_data";
    case RpcId::update_size: return "update_size";
    case RpcId::truncate_metadata: return "truncate_metadata";
    case RpcId::truncate_data: return "truncate_data";
    case RpcId::write_chunks: return "write_chunks";
    case RpcId::read_chunks: return "read_chunks";
    case RpcId::get_dirents: return "get_dirents";
    case RpcId::daemon_stat: return "daemon_stat";
    case RpcId::trace_dump: return "trace_dump";
    case RpcId::heartbeat: return "heartbeat";
    case RpcId::metric_history: return "metric_history";
    case RpcId::batch_create: return "batch_create";
    case RpcId::batch_stat: return "batch_stat";
    case RpcId::batch_remove: return "batch_remove";
    case RpcId::flight_dump: return "flight_dump";
  }
  return "";
}

/// Retry classification for the RPC engine's idempotency policy.
/// Every RpcId MUST be classified explicitly in rpc_retry_class() —
/// gekko-protocheck fails the lint gate for any enumerator missing
/// from the switch, so a new RPC cannot ship with an implicit
/// (accidental) retry policy.
///  - idempotent:     replaying the request cannot change the outcome;
///    the client engine may re-send it after a transient failure
///    (timeout / disconnect / again).
///  - non_idempotent: a replay could double-apply (create, remove,
///    write, truncate) or clobber a concurrent update; never re-sent.
///  - probe:          idempotent on the wire but deliberately never
///    retried — heartbeat/metric_history probes exist to MEASURE
///    liveness, and a transport-level retry would mask exactly the
///    miss they are probing for.
enum class RpcRetryClass : std::uint8_t {
  idempotent,
  non_idempotent,
  probe,
};

inline constexpr RpcRetryClass rpc_retry_class(RpcId id) {
  switch (id) {
    case RpcId::create: return RpcRetryClass::non_idempotent;
    case RpcId::stat: return RpcRetryClass::idempotent;
    case RpcId::remove_metadata: return RpcRetryClass::non_idempotent;
    case RpcId::remove_data: return RpcRetryClass::non_idempotent;
    // update_size folds max(size, observed) — semantically replayable,
    // but a late replay can resurrect a size a concurrent truncate
    // already cut, so the policy treats it as non-idempotent.
    case RpcId::update_size: return RpcRetryClass::non_idempotent;
    case RpcId::truncate_metadata: return RpcRetryClass::non_idempotent;
    case RpcId::truncate_data: return RpcRetryClass::non_idempotent;
    case RpcId::write_chunks: return RpcRetryClass::non_idempotent;
    case RpcId::read_chunks: return RpcRetryClass::idempotent;
    case RpcId::get_dirents: return RpcRetryClass::idempotent;
    case RpcId::daemon_stat: return RpcRetryClass::idempotent;
    case RpcId::trace_dump: return RpcRetryClass::idempotent;
    case RpcId::heartbeat: return RpcRetryClass::probe;
    case RpcId::metric_history: return RpcRetryClass::probe;
    case RpcId::batch_create: return RpcRetryClass::non_idempotent;
    case RpcId::batch_stat: return RpcRetryClass::idempotent;
    case RpcId::batch_remove: return RpcRetryClass::non_idempotent;
    // Draining a forensic event ring mutates nothing; a replayed dump
    // just captures a slightly later window.
    case RpcId::flight_dump: return RpcRetryClass::idempotent;
  }
  // Unknown wire ids (a newer peer) must never be blind-retried.
  return RpcRetryClass::non_idempotent;
}

/// Default client retry predicate: only idempotent rpcs re-send.
inline constexpr bool rpc_retryable(std::uint16_t id) {
  return rpc_retry_class(static_cast<RpcId>(id)) ==
         RpcRetryClass::idempotent;
}

/// Dispatch classification for the daemon's engine (rpc/dispatch.h).
/// Every RpcId MUST be classified explicitly in rpc_dispatch_class();
/// gekko-protocheck fails the lint gate otherwise, as for the retry
/// class.
///  - inline_delivery: runs on the fabric's delivery thread. Only for
///    handlers whose waits never need the fabric: the metadata ops
///    (their one wait is a kv write stall, which the kv's own flush
///    thread clears) and the heartbeat.
///  - pooled: posted to the handler pool. Chunk I/O joins io-pool
///    tasks; remove_data and truncate_data walk chunk files; the
///    diagnostic dumps serialize whole rings and registries.
inline constexpr rpc::Dispatch rpc_dispatch_class(RpcId id) {
  switch (id) {
    case RpcId::create: return rpc::Dispatch::inline_delivery;
    case RpcId::stat: return rpc::Dispatch::inline_delivery;
    case RpcId::remove_metadata: return rpc::Dispatch::inline_delivery;
    case RpcId::remove_data: return rpc::Dispatch::pooled;
    case RpcId::update_size: return rpc::Dispatch::inline_delivery;
    case RpcId::truncate_metadata: return rpc::Dispatch::inline_delivery;
    case RpcId::truncate_data: return rpc::Dispatch::pooled;
    case RpcId::write_chunks: return rpc::Dispatch::pooled;
    case RpcId::read_chunks: return rpc::Dispatch::pooled;
    case RpcId::get_dirents: return rpc::Dispatch::inline_delivery;
    case RpcId::daemon_stat: return rpc::Dispatch::pooled;
    case RpcId::trace_dump: return rpc::Dispatch::pooled;
    case RpcId::heartbeat: return rpc::Dispatch::inline_delivery;
    case RpcId::metric_history: return rpc::Dispatch::pooled;
    case RpcId::batch_create: return rpc::Dispatch::inline_delivery;
    case RpcId::batch_stat: return rpc::Dispatch::inline_delivery;
    case RpcId::batch_remove: return rpc::Dispatch::inline_delivery;
    case RpcId::flight_dump: return rpc::Dispatch::pooled;
  }
  // Unknown ids have no handler; pooled is the conservative default.
  return rpc::Dispatch::pooled;
}

/// Preallocation guard for wire-decoded repeated fields. `count` comes
/// off the wire and is attacker-controlled; every entry consumes at
/// least `min_entry_bytes` of what is left in the buffer, so any count
/// beyond remaining/min can never decode successfully — reject it
/// before reserve() turns it into a multi-gigabyte allocation.
inline bool count_fits(std::uint64_t count, const Decoder& dec,
                       std::size_t min_entry_bytes) {
  return count <= dec.remaining() / min_entry_bytes;
}

// ---------- metadata ops ----------

struct CreateRequest {
  std::string path;
  std::uint8_t type = 0;  // FileType
  std::uint32_t mode = 0644;
  std::int64_t ctime_ns = 0;  // stamped by the client (no daemon clock dep)

  [[nodiscard]] std::vector<std::uint8_t> encode() const {
    std::vector<std::uint8_t> buf;
    Encoder enc(&buf);
    enc.str(path);
    enc.u8(type);
    enc.u32(mode);
    enc.i64(ctime_ns);
    return buf;
  }
  static Result<CreateRequest> decode(std::string_view bytes) {
    Decoder dec(bytes);
    CreateRequest r;
    auto path = dec.str();
    auto type = dec.u8();
    auto mode = dec.u32();
    auto ctime = dec.i64();
    if (!path || !type || !mode || !ctime) return Errc::corruption;
    r.path = std::string(*path);
    r.type = *type;
    r.mode = *mode;
    r.ctime_ns = *ctime;
    return r;
  }
};

struct PathRequest {  // stat, remove_metadata, remove_data
  std::string path;

  [[nodiscard]] std::vector<std::uint8_t> encode() const {
    std::vector<std::uint8_t> buf;
    Encoder enc(&buf);
    enc.str(path);
    return buf;
  }
  static Result<PathRequest> decode(std::string_view bytes) {
    Decoder dec(bytes);
    auto path = dec.str();
    if (!path) return Errc::corruption;
    return PathRequest{std::string(*path)};
  }
};

struct StatResponse {
  Metadata metadata;

  [[nodiscard]] std::vector<std::uint8_t> encode() const {
    std::vector<std::uint8_t> buf;
    Encoder enc(&buf);
    enc.str(metadata.encode());
    return buf;
  }
  static Result<StatResponse> decode(std::string_view bytes) {
    Decoder dec(bytes);
    auto md_bytes = dec.str();
    if (!md_bytes) return Errc::corruption;
    auto md = Metadata::decode(*md_bytes);
    if (!md) return md.status();
    return StatResponse{*md};
  }
};

/// Fold `size = max(size, observed_size)` into the file's metadata on
/// the daemon that owns it; `append` semantics add instead.
struct UpdateSizeRequest {
  std::string path;
  std::uint64_t observed_size = 0;
  std::int64_t mtime_ns = 0;

  [[nodiscard]] std::vector<std::uint8_t> encode() const {
    std::vector<std::uint8_t> buf;
    Encoder enc(&buf);
    enc.str(path);
    enc.u64(observed_size);
    enc.i64(mtime_ns);
    return buf;
  }
  static Result<UpdateSizeRequest> decode(std::string_view bytes) {
    Decoder dec(bytes);
    UpdateSizeRequest r;
    auto path = dec.str();
    auto size = dec.u64();
    auto mtime = dec.i64();
    if (!path || !size || !mtime) return Errc::corruption;
    r.path = std::string(*path);
    r.observed_size = *size;
    r.mtime_ns = *mtime;
    return r;
  }
};

struct TruncateRequest {
  std::string path;
  std::uint64_t new_size = 0;

  [[nodiscard]] std::vector<std::uint8_t> encode() const {
    std::vector<std::uint8_t> buf;
    Encoder enc(&buf);
    enc.str(path);
    enc.u64(new_size);
    return buf;
  }
  static Result<TruncateRequest> decode(std::string_view bytes) {
    Decoder dec(bytes);
    TruncateRequest r;
    auto path = dec.str();
    auto size = dec.u64();
    if (!path || !size) return Errc::corruption;
    r.path = std::string(*path);
    r.new_size = *size;
    return r;
  }
};

// ---------- data ops ----------

/// One contiguous range within one chunk, plus where its bytes live in
/// the exposed bulk region.
struct ChunkSlice {
  std::uint64_t chunk_id = 0;
  std::uint32_t offset_in_chunk = 0;
  std::uint32_t length = 0;
  std::uint64_t bulk_offset = 0;
};

struct ChunkIoRequest {  // write_chunks / read_chunks
  std::string path;
  std::vector<ChunkSlice> slices;

  [[nodiscard]] std::vector<std::uint8_t> encode() const {
    std::vector<std::uint8_t> buf;
    Encoder enc(&buf);
    enc.str(path);
    enc.varint(slices.size());
    for (const auto& s : slices) {
      enc.u64(s.chunk_id);
      enc.u32(s.offset_in_chunk);
      enc.u32(s.length);
      enc.u64(s.bulk_offset);
    }
    return buf;
  }
  static Result<ChunkIoRequest> decode(std::string_view bytes) {
    Decoder dec(bytes);
    ChunkIoRequest r;
    auto path = dec.str();
    auto count = dec.varint();
    if (!path || !count) return Errc::corruption;
    // Each slice is 24 fixed bytes; a count that cannot fit in the
    // remaining buffer is a malformed frame, not a big request.
    if (!count_fits(*count, dec, 24)) return Errc::corruption;
    r.path = std::string(*path);
    r.slices.reserve(static_cast<std::size_t>(*count));
    for (std::uint64_t i = 0; i < *count; ++i) {
      ChunkSlice s;
      auto id = dec.u64();
      auto off = dec.u32();
      auto len = dec.u32();
      auto bulk = dec.u64();
      if (!id || !off || !len || !bulk) return Errc::corruption;
      s.chunk_id = *id;
      s.offset_in_chunk = *off;
      s.length = *len;
      s.bulk_offset = *bulk;
      r.slices.push_back(s);
    }
    return r;
  }
};

struct ChunkIoResponse {
  std::uint64_t bytes = 0;  // transferred by this daemon

  [[nodiscard]] std::vector<std::uint8_t> encode() const {
    std::vector<std::uint8_t> buf;
    Encoder enc(&buf);
    enc.u64(bytes);
    return buf;
  }
  static Result<ChunkIoResponse> decode(std::string_view raw) {
    Decoder dec(raw);
    auto bytes = dec.u64();
    if (!bytes) return Errc::corruption;
    return ChunkIoResponse{*bytes};
  }
};

// ---------- readdir broadcast ----------

struct DirentsRequest {
  std::string dir_path;  // normalized; daemon prefix-scans "<dir>/"

  [[nodiscard]] std::vector<std::uint8_t> encode() const {
    std::vector<std::uint8_t> buf;
    Encoder enc(&buf);
    enc.str(dir_path);
    return buf;
  }
  static Result<DirentsRequest> decode(std::string_view bytes) {
    Decoder dec(bytes);
    auto p = dec.str();
    if (!p) return Errc::corruption;
    return DirentsRequest{std::string(*p)};
  }
};

struct DirentsResponse {
  std::vector<Dirent> entries;

  [[nodiscard]] std::vector<std::uint8_t> encode() const {
    std::vector<std::uint8_t> buf;
    Encoder enc(&buf);
    enc.varint(entries.size());
    for (const auto& e : entries) {
      enc.str(e.name);
      enc.u8(static_cast<std::uint8_t>(e.type));
    }
    return buf;
  }
  static Result<DirentsResponse> decode(std::string_view bytes) {
    Decoder dec(bytes);
    DirentsResponse r;
    auto count = dec.varint();
    if (!count) return Errc::corruption;
    // >= 2 bytes per entry (1-byte length prefix + 1-byte type).
    if (!count_fits(*count, dec, 2)) return Errc::corruption;
    r.entries.reserve(static_cast<std::size_t>(*count));
    for (std::uint64_t i = 0; i < *count; ++i) {
      auto name = dec.str();
      auto type = dec.u8();
      if (!name || !type || *type > 1) return Errc::corruption;
      r.entries.push_back(
          Dirent{std::string(*name), static_cast<FileType>(*type)});
    }
    return r;
  }
};

// ---------- daemon stats (df-style) ----------

struct DaemonStatResponse {
  std::uint64_t metadata_entries = 0;
  std::uint64_t chunks_written = 0;
  std::uint64_t chunks_read = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t bytes_read = 0;
  /// metrics::Snapshot::to_json() of the daemon's registry — per-RPC
  /// latency digests (p50/p99), retry/timeout counters, kv/storage
  /// internals. Parse with metrics::Snapshot::from_json() (gkfs-top).
  std::string metrics_json;

  [[nodiscard]] std::vector<std::uint8_t> encode() const {
    std::vector<std::uint8_t> buf;
    Encoder enc(&buf);
    enc.u64(metadata_entries);
    enc.u64(chunks_written);
    enc.u64(chunks_read);
    enc.u64(bytes_written);
    enc.u64(bytes_read);
    enc.str(metrics_json);
    return buf;
  }
  static Result<DaemonStatResponse> decode(std::string_view bytes) {
    Decoder dec(bytes);
    DaemonStatResponse r;
    auto a = dec.u64();
    auto b = dec.u64();
    auto c = dec.u64();
    auto d = dec.u64();
    auto e = dec.u64();
    auto j = dec.str();
    if (!a || !b || !c || !d || !e || !j) return Errc::corruption;
    r.metadata_entries = *a;
    r.chunks_written = *b;
    r.chunks_read = *c;
    r.bytes_written = *d;
    r.bytes_read = *e;
    r.metrics_json = std::string(*j);
    return r;
  }
};

// ---------- trace collection ----------

/// One daemon's span ring, drained for cross-node assembly. The
/// request has no payload. recorded/capacity let the collector report
/// ring-wrap loss (recorded > capacity ⇒ oldest spans overwritten).
/// capture_ns is the daemon's steady clock at dump time: a collector
/// on another HOST derives the per-node clock offset from it before
/// merging (same-host processes share CLOCK_MONOTONIC, offset 0).
struct TraceDumpResponse {
  std::uint32_t node_id = 0;
  std::uint64_t capture_ns = 0;
  std::uint64_t recorded = 0;
  std::uint64_t capacity = 0;
  std::vector<trace::Span> spans;

  [[nodiscard]] std::vector<std::uint8_t> encode() const {
    std::vector<std::uint8_t> buf;
    Encoder enc(&buf);
    enc.u32(node_id);
    enc.u64(capture_ns);
    enc.u64(recorded);
    enc.u64(capacity);
    enc.varint(spans.size());
    for (const trace::Span& s : spans) {
      enc.u64(s.trace_id);
      enc.u64(s.span_id);
      enc.u64(s.parent_span_id);
      enc.u32(s.node_id);
      enc.str(s.name);
      enc.u16(s.rpc_id);
      enc.u32(s.attempt);
      enc.u32(s.thread);
      enc.u64(s.start_ns);
      enc.u64(s.duration_ns);
    }
    return buf;
  }
  static Result<TraceDumpResponse> decode(std::string_view bytes) {
    Decoder dec(bytes);
    TraceDumpResponse r;
    auto node = dec.u32();
    auto capture = dec.u64();
    auto recorded = dec.u64();
    auto capacity = dec.u64();
    auto count = dec.varint();
    if (!node || !capture || !recorded || !capacity || !count) {
      return Errc::corruption;
    }
    r.node_id = *node;
    r.capture_ns = *capture;
    r.recorded = *recorded;
    r.capacity = *capacity;
    // Fixed span fields are 54 bytes + a 1-byte name length prefix.
    if (!count_fits(*count, dec, 55)) return Errc::corruption;
    r.spans.reserve(static_cast<std::size_t>(*count));
    for (std::uint64_t i = 0; i < *count; ++i) {
      trace::Span s;
      auto trace_id = dec.u64();
      auto span_id = dec.u64();
      auto parent = dec.u64();
      auto span_node = dec.u32();
      auto name = dec.str();
      auto rpc = dec.u16();
      auto attempt = dec.u32();
      auto thread = dec.u32();
      auto start = dec.u64();
      auto dur = dec.u64();
      if (!trace_id || !span_id || !parent || !span_node || !name || !rpc ||
          !attempt || !thread || !start || !dur) {
        return Errc::corruption;
      }
      s.trace_id = *trace_id;
      s.span_id = *span_id;
      s.parent_span_id = *parent;
      s.node_id = *span_node;
      s.name = std::string(*name);
      s.rpc_id = *rpc;
      s.attempt = *attempt;
      s.thread = *thread;
      s.start_ns = *start;
      s.duration_ns = *dur;
      r.spans.push_back(std::move(s));
    }
    return r;
  }
};

/// One daemon's flight-recorder state, for Client::flight_dumps() and
/// gkfs-debug. The request has no payload. Events are the merged
/// per-thread ring contents (oldest first); recorded/capacity carry
/// the same ring-wrap accounting contract as TraceDumpResponse, and
/// capture_ns the same per-node clock-offset contract. Each event is
/// the fixed 32-byte record of flight::Event, encoded field-by-field.
struct FlightDumpResponse {
  std::uint32_t node_id = 0;
  std::uint64_t capture_ns = 0;
  std::uint64_t recorded = 0;
  std::uint64_t capacity = 0;
  std::vector<flight::Event> events;

  [[nodiscard]] std::vector<std::uint8_t> encode() const {
    std::vector<std::uint8_t> buf;
    Encoder enc(&buf);
    enc.u32(node_id);
    enc.u64(capture_ns);
    enc.u64(recorded);
    enc.u64(capacity);
    enc.varint(events.size());
    for (const flight::Event& e : events) {
      enc.u64(e.ts_ns);
      enc.u64(e.trace_id);
      enc.u64(e.a0);
      enc.u32(e.a1);
      enc.u16(e.thread);
      enc.u8(e.subsys);
      enc.u8(e.code);
    }
    return buf;
  }
  static Result<FlightDumpResponse> decode(std::string_view bytes) {
    Decoder dec(bytes);
    FlightDumpResponse r;
    auto node = dec.u32();
    auto capture = dec.u64();
    auto recorded = dec.u64();
    auto capacity = dec.u64();
    auto count = dec.varint();
    if (!node || !capture || !recorded || !capacity || !count) {
      return Errc::corruption;
    }
    r.node_id = *node;
    r.capture_ns = *capture;
    r.recorded = *recorded;
    r.capacity = *capacity;
    // An encoded event is exactly its 32-byte in-memory record.
    if (!count_fits(*count, dec, 32)) return Errc::corruption;
    r.events.reserve(static_cast<std::size_t>(*count));
    for (std::uint64_t i = 0; i < *count; ++i) {
      flight::Event e;
      auto ts = dec.u64();
      auto trace_id = dec.u64();
      auto a0 = dec.u64();
      auto a1 = dec.u32();
      auto thread = dec.u16();
      auto subsys = dec.u8();
      auto code = dec.u8();
      if (!ts || !trace_id || !a0 || !a1 || !thread || !subsys || !code) {
        return Errc::corruption;
      }
      e.ts_ns = *ts;
      e.trace_id = *trace_id;
      e.a0 = *a0;
      e.a1 = *a1;
      e.thread = *thread;
      e.subsys = *subsys;
      e.code = *code;
      r.events.push_back(e);
    }
    return r;
  }
};

// ---------- liveness & telemetry history ----------

/// heartbeat: the cheapest possible round trip. The request has no
/// payload; the response is small and fixed-size so probe latency
/// measures the network + engine, not serialization. requests_handled
/// lets a monitor distinguish "idle but alive" from "wedged" across
/// consecutive probes.
struct HeartbeatResponse {
  std::uint32_t node_id = 0;
  /// Daemon steady clock at response time (same contract as
  /// TraceDumpResponse::capture_ns).
  std::uint64_t capture_ns = 0;
  /// Total RPC requests this daemon has served.
  std::uint64_t requests_handled = 0;

  [[nodiscard]] std::vector<std::uint8_t> encode() const {
    std::vector<std::uint8_t> buf;
    Encoder enc(&buf);
    enc.u32(node_id);
    enc.u64(capture_ns);
    enc.u64(requests_handled);
    return buf;
  }
  static Result<HeartbeatResponse> decode(std::string_view bytes) {
    Decoder dec(bytes);
    HeartbeatResponse r;
    auto node = dec.u32();
    auto capture = dec.u64();
    auto handled = dec.u64();
    if (!node || !capture || !handled) return Errc::corruption;
    r.node_id = *node;
    r.capture_ns = *capture;
    r.requests_handled = *handled;
    return r;
  }
};

/// metric_history: drain a daemon's in-memory sample rings (the
/// Sampler's History). `prefix` filters families server-side so a
/// monitor interested in `rpc.` rates does not ship kv internals.
struct MetricHistoryRequest {
  std::string prefix;  // "" = every family

  [[nodiscard]] std::vector<std::uint8_t> encode() const {
    std::vector<std::uint8_t> buf;
    Encoder enc(&buf);
    enc.str(prefix);
    return buf;
  }
  static Result<MetricHistoryRequest> decode(std::string_view bytes) {
    Decoder dec(bytes);
    auto p = dec.str();
    if (!p) return Errc::corruption;
    return MetricHistoryRequest{std::string(*p)};
  }
};

/// One family's ring: recorded/capacity wrap accounting (mirrors
/// TraceDumpResponse — recorded > capacity ⇒ oldest samples were
/// overwritten) plus the resident (capture_ns, value) points, oldest
/// first. Values are signed: counters and histogram-derived series are
/// non-negative, gauges go negative legitimately.
struct MetricFamilyHistory {
  std::string name;
  std::uint64_t recorded = 0;
  std::uint64_t capacity = 0;
  std::vector<std::pair<std::uint64_t, std::int64_t>> samples;
};

struct MetricHistoryResponse {
  std::uint32_t node_id = 0;
  std::uint64_t captured_ns = 0;  // daemon steady clock at drain time
  std::uint32_t interval_ms = 0;  // sampler period (0 = sampler off)
  std::vector<MetricFamilyHistory> families;

  [[nodiscard]] std::vector<std::uint8_t> encode() const {
    std::vector<std::uint8_t> buf;
    Encoder enc(&buf);
    enc.u32(node_id);
    enc.u64(captured_ns);
    enc.u32(interval_ms);
    enc.varint(families.size());
    for (const auto& f : families) {
      enc.str(f.name);
      enc.u64(f.recorded);
      enc.u64(f.capacity);
      enc.varint(f.samples.size());
      for (const auto& [ns, value] : f.samples) {
        enc.u64(ns);
        enc.i64(value);
      }
    }
    return buf;
  }
  static Result<MetricHistoryResponse> decode(std::string_view bytes) {
    Decoder dec(bytes);
    MetricHistoryResponse r;
    auto node = dec.u32();
    auto captured = dec.u64();
    auto interval = dec.u32();
    auto count = dec.varint();
    if (!node || !captured || !interval || !count) return Errc::corruption;
    r.node_id = *node;
    r.captured_ns = *captured;
    r.interval_ms = *interval;
    // >= 18 bytes per family (1-byte name prefix + two u64 + 1-byte
    // sample-count varint).
    if (!count_fits(*count, dec, 18)) return Errc::corruption;
    r.families.reserve(static_cast<std::size_t>(*count));
    for (std::uint64_t i = 0; i < *count; ++i) {
      MetricFamilyHistory f;
      auto name = dec.str();
      auto recorded = dec.u64();
      auto capacity = dec.u64();
      auto samples = dec.varint();
      if (!name || !recorded || !capacity || !samples) return Errc::corruption;
      f.name = std::string(*name);
      f.recorded = *recorded;
      f.capacity = *capacity;
      if (!count_fits(*samples, dec, 16)) return Errc::corruption;
      f.samples.reserve(static_cast<std::size_t>(*samples));
      for (std::uint64_t j = 0; j < *samples; ++j) {
        auto ns = dec.u64();
        auto value = dec.i64();
        if (!ns || !value) return Errc::corruption;
        f.samples.emplace_back(*ns, *value);
      }
      r.families.push_back(std::move(f));
    }
    return r;
  }
};

// ---------- batched metadata ops ----------
//
// One RPC carries many create/stat/remove entries; the response carries
// one status per entry IN REQUEST ORDER, so a transport-level failure is
// the only all-or-nothing outcome — per-entry errors (exists, not_found,
// ...) never poison their batch-mates.

/// Per-entry outcome on the wire. Values are stable (serialized as one
/// byte). The gekko-lint `batch-status` rule checks every enumerator
/// appears in BOTH conversion functions below, so the encode (daemon)
/// and decode (client) sides cannot drift apart silently.
enum class BatchStatus : std::uint8_t {
  ok = 0,
  exists = 1,
  not_found = 2,
  is_directory = 3,
  invalid_argument = 4,
  io_error = 5,  // also the catch-all; must stay the max value
};

inline bool batch_status_valid(std::uint8_t v) {
  return v <= static_cast<std::uint8_t>(BatchStatus::io_error);
}

/// Encode site: daemon folds a per-entry Errc into the wire status.
inline BatchStatus batch_status_from_errc(Errc e) {
  switch (e) {
    case Errc::ok: return BatchStatus::ok;
    case Errc::exists: return BatchStatus::exists;
    case Errc::not_found: return BatchStatus::not_found;
    case Errc::is_directory: return BatchStatus::is_directory;
    case Errc::invalid_argument: return BatchStatus::invalid_argument;
    default: return BatchStatus::io_error;
  }
}

/// Decode site: client maps the wire status back onto the Errc domain.
inline Errc batch_status_to_errc(BatchStatus s) {
  switch (s) {
    case BatchStatus::ok: return Errc::ok;
    case BatchStatus::exists: return Errc::exists;
    case BatchStatus::not_found: return Errc::not_found;
    case BatchStatus::is_directory: return Errc::is_directory;
    case BatchStatus::invalid_argument: return Errc::invalid_argument;
    case BatchStatus::io_error: return Errc::io_error;
  }
  return Errc::io_error;
}

struct BatchCreateRequest {
  struct Entry {
    std::string path;
    std::uint8_t type = 0;  // FileType
    std::uint32_t mode = 0644;
    std::int64_t ctime_ns = 0;
  };
  std::vector<Entry> entries;

  [[nodiscard]] std::vector<std::uint8_t> encode() const {
    std::vector<std::uint8_t> buf;
    Encoder enc(&buf);
    enc.varint(entries.size());
    for (const auto& e : entries) {
      enc.str(e.path);
      enc.u8(e.type);
      enc.u32(e.mode);
      enc.i64(e.ctime_ns);
    }
    return buf;
  }
  static Result<BatchCreateRequest> decode(std::string_view bytes) {
    Decoder dec(bytes);
    BatchCreateRequest r;
    auto count = dec.varint();
    if (!count) return Errc::corruption;
    // >= 14 bytes per entry (1-byte path prefix + u8 + u32 + i64).
    if (!count_fits(*count, dec, 14)) return Errc::corruption;
    r.entries.reserve(static_cast<std::size_t>(*count));
    for (std::uint64_t i = 0; i < *count; ++i) {
      Entry e;
      auto path = dec.str();
      auto type = dec.u8();
      auto mode = dec.u32();
      auto ctime = dec.i64();
      if (!path || !type || !mode || !ctime) return Errc::corruption;
      e.path = std::string(*path);
      e.type = *type;
      e.mode = *mode;
      e.ctime_ns = *ctime;
      r.entries.push_back(std::move(e));
    }
    return r;
  }
};

/// batch_create response: one status per request entry, request order.
struct BatchCreateResponse {
  std::vector<BatchStatus> statuses;

  [[nodiscard]] std::vector<std::uint8_t> encode() const {
    std::vector<std::uint8_t> buf;
    Encoder enc(&buf);
    enc.varint(statuses.size());
    for (const BatchStatus s : statuses) {
      enc.u8(static_cast<std::uint8_t>(s));
    }
    return buf;
  }
  static Result<BatchCreateResponse> decode(std::string_view bytes) {
    Decoder dec(bytes);
    BatchCreateResponse r;
    auto count = dec.varint();
    if (!count) return Errc::corruption;
    if (!count_fits(*count, dec, 1)) return Errc::corruption;
    r.statuses.reserve(static_cast<std::size_t>(*count));
    for (std::uint64_t i = 0; i < *count; ++i) {
      auto s = dec.u8();
      if (!s || !batch_status_valid(*s)) return Errc::corruption;
      r.statuses.push_back(static_cast<BatchStatus>(*s));
    }
    return r;
  }
};

/// batch_stat / batch_remove request: just the paths.
struct BatchPathRequest {
  std::vector<std::string> paths;

  [[nodiscard]] std::vector<std::uint8_t> encode() const {
    std::vector<std::uint8_t> buf;
    Encoder enc(&buf);
    enc.varint(paths.size());
    for (const auto& p : paths) enc.str(p);
    return buf;
  }
  static Result<BatchPathRequest> decode(std::string_view bytes) {
    Decoder dec(bytes);
    BatchPathRequest r;
    auto count = dec.varint();
    if (!count) return Errc::corruption;
    if (!count_fits(*count, dec, 1)) return Errc::corruption;
    r.paths.reserve(static_cast<std::size_t>(*count));
    for (std::uint64_t i = 0; i < *count; ++i) {
      auto p = dec.str();
      if (!p) return Errc::corruption;
      r.paths.emplace_back(*p);
    }
    return r;
  }
};

/// batch_stat response: metadata is present iff status == ok.
struct BatchStatResponse {
  struct Entry {
    BatchStatus status = BatchStatus::io_error;
    Metadata metadata;  // valid iff status == ok
  };
  std::vector<Entry> entries;

  [[nodiscard]] std::vector<std::uint8_t> encode() const {
    std::vector<std::uint8_t> buf;
    Encoder enc(&buf);
    enc.varint(entries.size());
    for (const auto& e : entries) {
      enc.u8(static_cast<std::uint8_t>(e.status));
      if (e.status == BatchStatus::ok) enc.str(e.metadata.encode());
    }
    return buf;
  }
  static Result<BatchStatResponse> decode(std::string_view bytes) {
    Decoder dec(bytes);
    BatchStatResponse r;
    auto count = dec.varint();
    if (!count) return Errc::corruption;
    if (!count_fits(*count, dec, 1)) return Errc::corruption;
    r.entries.reserve(static_cast<std::size_t>(*count));
    for (std::uint64_t i = 0; i < *count; ++i) {
      Entry e;
      auto s = dec.u8();
      if (!s || !batch_status_valid(*s)) return Errc::corruption;
      e.status = static_cast<BatchStatus>(*s);
      if (e.status == BatchStatus::ok) {
        auto md_bytes = dec.str();
        if (!md_bytes) return Errc::corruption;
        auto md = Metadata::decode(*md_bytes);
        if (!md) return md.status();
        e.metadata = *md;
      }
      r.entries.push_back(std::move(e));
    }
    return r;
  }
};

/// batch_remove response: old_size/was_directory drive the client's
/// chunk cleanup fan-out (only files that had data need remove_data).
struct BatchRemoveResponse {
  struct Entry {
    BatchStatus status = BatchStatus::io_error;
    std::uint64_t old_size = 0;
    std::uint8_t was_directory = 0;
  };
  std::vector<Entry> entries;

  [[nodiscard]] std::vector<std::uint8_t> encode() const {
    std::vector<std::uint8_t> buf;
    Encoder enc(&buf);
    enc.varint(entries.size());
    for (const auto& e : entries) {
      enc.u8(static_cast<std::uint8_t>(e.status));
      enc.u64(e.old_size);
      enc.u8(e.was_directory);
    }
    return buf;
  }
  static Result<BatchRemoveResponse> decode(std::string_view bytes) {
    Decoder dec(bytes);
    BatchRemoveResponse r;
    auto count = dec.varint();
    if (!count) return Errc::corruption;
    if (!count_fits(*count, dec, 10)) return Errc::corruption;
    r.entries.reserve(static_cast<std::size_t>(*count));
    for (std::uint64_t i = 0; i < *count; ++i) {
      Entry e;
      auto s = dec.u8();
      auto size = dec.u64();
      auto dir = dec.u8();
      if (!s || !batch_status_valid(*s) || !size || !dir || *dir > 1) {
        return Errc::corruption;
      }
      e.status = static_cast<BatchStatus>(*s);
      e.old_size = *size;
      e.was_directory = *dir;
      r.entries.push_back(e);
    }
    return r;
  }
};

}  // namespace gekko::proto
