// Wire-frame codec of the stream fabric (TcpFabric, over Unix-domain
// or TCP sockets). One frame on the wire is:
//
//   [u32 frame_len][kind u8][rpc_id u16][seq u64][source u32]
//   [trace_id u64][parent_span u64][payload str][bulk_mode u8]
//   [bulk section...]
//
// frame_len counts everything AFTER the 4-byte length prefix. The
// minimum frame (empty payload, no bulk) is kMinFrameBytes = 33.
// Bulk sections by mode:
//   kBulkNone          (nothing)
//   kBulkReadData      [bytes str] — request carrying an exposed read
//                      region inline (Mercury send/recv fallback).
//   kBulkWritableSize  [size u64] — request announcing a writable
//                      region; the server adopts a zeroed buffer of
//                      that size and pushes into it.
//   kBulkResponseData  [count varint] then count * ([off u64]
//                      [bytes str]) — response carrying the dirty
//                      ranges of one of the requester's pending
//                      writable regions.
//
// Encoding is zero-copy: only header/metadata bytes are materialized
// in the scratch buffer; bulk payload is recorded as external
// segments gathered by sendmsg (or flattened into a send queue for
// buffered transports). The byte stream is identical either way.
//
// Decoding is defensive: every length and offset comes off the wire
// from a peer that may be buggy, truncated mid-frame, or hostile.
// Violations surface as Errc::corruption and the transport MUST kill
// the connection — a frame boundary can no longer be trusted.
#pragma once

#include <sys/uio.h>

#include <cstdint>
#include <span>
#include <vector>

#include "common/result.h"
#include "net/message.h"

namespace gekko::net::wire {

inline constexpr std::uint8_t kBulkNone = 0;
inline constexpr std::uint8_t kBulkReadData = 1;
inline constexpr std::uint8_t kBulkWritableSize = 2;
inline constexpr std::uint8_t kBulkResponseData = 3;

/// kind + rpc_id + seq + source + trace_id + parent_span + empty
/// payload str + bulk_mode = 1+2+8+4+8+8+1+1.
inline constexpr std::uint32_t kMinFrameBytes = 33;
/// The u32 frame-length prefix preceding every frame.
inline constexpr std::size_t kLenPrefixBytes = 4;

/// Overflow-safe bounds check for a [offset, offset+len) range against
/// a region of `size` bytes. Written as subtraction so a hostile u64
/// offset near 2^64 cannot wrap `offset + len` around and pass.
[[nodiscard]] inline bool range_in_bounds(std::uint64_t offset,
                                          std::uint64_t len,
                                          std::uint64_t size) noexcept {
  return offset <= size && len <= size - offset;
}

/// An encoded frame: scratch header bytes plus zero-copy external
/// segments (bulk payload gathered straight from the exposed region).
/// The external pointers alias caller memory — the frame must be
/// written (or flattened) before that memory is reclaimed, which the
/// send paths guarantee by holding the message alive across the send.
struct EncodedFrame {
  struct Ext {
    std::size_t after;  // splice point: scratch offset this precedes
    const std::uint8_t* ptr;
    std::size_t len;
  };

  std::vector<std::uint8_t> scratch;
  std::vector<Ext> ext;
  std::size_t frame_len = 0;  // scratch + ext bytes, excl. len prefix
  std::uint8_t len_buf[kLenPrefixBytes] = {0, 0, 0, 0};

  [[nodiscard]] std::size_t wire_bytes() const noexcept {
    return kLenPrefixBytes + frame_len;
  }
  /// External (gathered, not copied) segment count — the
  /// <family>.writev_segments metric counts these.
  [[nodiscard]] std::size_t segment_count() const noexcept {
    return ext.size();
  }

  /// Append the full wire image (length prefix + interleaved scratch /
  /// external segments) as iovecs. Pointers reference this object —
  /// it must outlive the write.
  void append_iov(std::vector<iovec>* iov) const;

  /// Copy the full wire image onto `out` (buffered transports queue
  /// frames this way; appending to a non-empty queue is exactly the
  /// write coalescing the event loop flushes in one sendmsg).
  void flatten_into(std::vector<std::uint8_t>* out) const;
};

/// Encode `msg` from endpoint `self`. `bulk_out`, when non-null, is a
/// served writable region whose dirty ranges ride back with this
/// response (kBulkResponseData). Fails with Errc::overflow if the
/// total frame exceeds `max_frame_bytes` — the sender must fail
/// loudly, not trip the receiver's limit and kill the connection.
Result<EncodedFrame> encode_frame(const Message& msg,
                                  const BulkRegion* bulk_out,
                                  EndpointId self,
                                  std::uint32_t max_frame_bytes);

/// One dirty range of a kBulkResponseData frame; `data` views into the
/// decoded frame buffer (valid only while that buffer lives).
struct ResponseRange {
  std::uint64_t offset = 0;
  const std::uint8_t* data = nullptr;
  std::size_t len = 0;
};

struct DecodedFrame {
  Message msg;
  std::uint8_t bulk_mode = kBulkNone;
  /// kBulkResponseData only: parsed ranges for the requester's pending
  /// writable region keyed by msg.seq. The transport applies them
  /// under its bulk lock via apply_response_ranges().
  std::vector<ResponseRange> ranges;
};

/// Decode one complete frame body (the bytes after the length prefix).
/// Returns Errc::corruption on any malformed, truncated, or
/// limit-violating content; the caller must treat that as fatal for
/// the connection.
Status decode_frame(std::span<const std::uint8_t> frame,
                    std::uint32_t max_frame_bytes, DecodedFrame* out);

/// Copy decoded response ranges into the pending writable region.
/// Bounds are re-checked overflow-safely against the ACTUAL region
/// size; any out-of-range range returns Errc::corruption without
/// writing a byte of it (the transport kills the connection — a peer
/// that aims outside the region it was handed is corrupt or hostile).
/// Caller holds whatever lock guards the region registry.
Status apply_response_ranges(const BulkRegion& region,
                             const std::vector<ResponseRange>& ranges);

/// Client endpoint ids live in the high half of the id space (see
/// address.h). The pid is mixed with a per-process random salt: bare
/// pids fit in ~22 bits and recycle, so two client processes (or one
/// client restarted) could otherwise claim the same id and have the
/// daemon cross-route their replies. Every CALL also returns a fresh
/// id, so several client fabrics in one process stay distinct.
[[nodiscard]] EndpointId derive_client_endpoint_id();

}  // namespace gekko::net::wire
