// The stream fabric: multi-process transport over TCP or Unix-domain
// sockets with an epoll readiness loop. The name is historical; the
// address family comes from the hostfile (see transport.h):
//
//   0 127.0.0.1:9230           AF_INET, TCP_NODELAY on every socket
//   0 /tmp/gkfs/gkfsd.0.sock   AF_UNIX, the socket file is unlinked
//                              before bind and again on shutdown
//
// An address is resolved when it is bound or dialed. Everything else
// is the same for both families. Connections are multiplexed onto a
// small pool of event-loop threads, the Mercury design point for
// extreme-scale services ("RPC Approach for Extreme-scale Services",
// PAPERS.md):
//
//  - nonblocking sockets registered with one epoll instance per loop
//    thread; each connection is owned by exactly one loop, and a loop
//    starts its thread when it is first given a socket, so a fabric
//    that has not listened or dialed yet runs no thread,
//  - per-connection read buffers with partial-frame reassembly (a
//    frame may arrive across any number of readiness events),
//  - per-connection send queues: when the socket is idle a frame is
//    written inline from the sender's thread (zero-copy iovec gather);
//    when it is backed up, frames are flattened onto the queue and the
//    event loop coalesces the whole backlog into single sendmsg
//    calls (<family>.coalesced_frames counts frames that shared one
//    flush with others),
//  - delivery on the loop thread: each decoded frame goes straight to
//    the endpoint's Deliver callback from the loop that read it, and
//    a connection that dies fails the requests that left on it
//    through the same callback.
//
// Frames use the shared wire::frame codec (33-byte minimum frame).
// Counters are named after the family: net.socket.* for AF_UNIX,
// net.tcp.* for AF_INET.
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/thread_annotations.h"
#include "net/fabric.h"
#include "net/frame_codec.h"
#include "net/transport.h"

namespace gekko::net {

class TcpFabric final : public HostedFabric {
 public:
  /// Parse a hostfile and construct a fabric for one process. No
  /// thread starts until the fabric listens or dials. A hostfile that
  /// mixes socket paths with host:port addresses, or contradicts an
  /// explicit options.transport, fails with invalid_argument.
  static Result<std::unique_ptr<TcpFabric>> create(
      const std::filesystem::path& hostfile, const MakeFabricOptions& options);

  ~TcpFabric() override;
  TcpFabric(const TcpFabric&) = delete;
  TcpFabric& operator=(const TcpFabric&) = delete;

  EndpointId register_endpoint(Deliver deliver) override;
  Status send(EndpointId dest, Message msg) override;
  void deregister(EndpointId id) override;
  void cancel(std::uint64_t seq) override;
  Status bulk_pull(const BulkRegion& region, std::size_t offset,
                   std::span<std::uint8_t> out) override;
  Status bulk_push(const BulkRegion& region, std::size_t offset,
                   std::span<const std::uint8_t> data) override;
  [[nodiscard]] TrafficStats stats() const override;

  [[nodiscard]] std::vector<EndpointId> daemon_ids() const override {
    std::vector<EndpointId> out;
    out.reserve(hosts_.size());
    for (const auto& [id, addr] : hosts_) out.push_back(id);
    return out;
  }

  /// net::write_hostfile(dir, n, Transport::tcp); kept because
  /// perfbench/layers.cpp calls it by this name.
  static Result<std::filesystem::path> write_hostfile(
      const std::filesystem::path& dir, std::uint32_t n) {
    return net::write_hostfile(dir, n, Transport::tcp);
  }

 private:
  class EventLoop;

  /// std::allocator whose resize() leaves new elements uninitialized,
  /// so recv can fill the read buffer without a zero-fill first.
  template <typename T>
  struct UninitAllocator : std::allocator<T> {
    template <typename U>
    struct rebind {
      using other = UninitAllocator<U>;
    };
    UninitAllocator() = default;
    template <typename U>
    UninitAllocator(const UninitAllocator<U>& /*other*/) noexcept {}
    template <typename U>
    void construct(U* p) noexcept {
      ::new (static_cast<void*>(p)) U;
    }
    template <typename U, typename... Args>
    void construct(U* p, Args&&... args) {
      ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
    }
  };

  struct Conn {
    ~Conn();
    int fd = -1;
    /// Dialed daemon id (outgoing only; accepted conns stay invalid).
    EndpointId peer = kInvalidEndpoint;
    /// Set when the link is unusable; the next send() to `peer`
    /// redials.
    std::atomic<bool> dead{false};
    /// The loop that owns readiness for this fd.
    EventLoop* loop = nullptr;

    // Read-side reassembly state. Touched ONLY by the owning loop
    // thread (each fd lives in exactly one epoll set), so it needs no
    // lock. recv writes straight into rd.
    std::vector<std::uint8_t, UninitAllocator<std::uint8_t>> rd;
    std::size_t rd_pos = 0;

    // Send queue. Senders append (or write inline when empty); the
    // event loop drains on EPOLLOUT.
    Mutex out_mutex{"net.stream.out", lockdep::rank::kStreamOut};
    std::vector<std::uint8_t> out GEKKO_GUARDED_BY(out_mutex);
    std::size_t out_pos GEKKO_GUARDED_BY(out_mutex) = 0;
    /// Frames currently queued (feeds the coalescing metric).
    std::uint64_t out_frames GEKKO_GUARDED_BY(out_mutex) = 0;
    bool epollout_armed GEKKO_GUARDED_BY(out_mutex) = false;
  };

  TcpFabric(const MakeFabricOptions& options, int family);

  Status start_listener_();
  /// Loop-thread callbacks.
  void accept_ready_();
  void on_readable_(const std::shared_ptr<Conn>& conn);
  void on_writable_(const std::shared_ptr<Conn>& conn);
  /// Parse every complete frame out of conn->rd; false = corrupt
  /// stream, kill the connection.
  bool drain_frames_(const std::shared_ptr<Conn>& conn);
  bool deliver_frame_(const std::shared_ptr<Conn>& conn,
                      wire::DecodedFrame decoded);

  Result<std::shared_ptr<Conn>> connect_to_(EndpointId dest);
  /// Queue or inline-write one encoded frame.
  Status send_frame_(Conn& conn, const wire::EncodedFrame& frame);
  EventLoop* pick_loop_();
  /// Per-socket options for this fabric's family: TCP_NODELAY on
  /// AF_INET, a send buffer that holds a whole bulk frame on AF_UNIX.
  void tune_socket_(int fd) const;

  /// Sever + deregister + fail everything tied to this connection.
  /// Safe from any thread, including loop threads.
  void kill_conn_(const std::shared_ptr<Conn>& conn);
  /// Drop the connection's routes, then fail each request that left on
  /// it with a `disconnected` response.
  void evict_(const std::shared_ptr<Conn>& conn);
  void kill_connection_(EndpointId dest, const Message& msg);
  void shutdown_();

  [[nodiscard]] bool stopping_now_() const noexcept {
    return stopping_.load(std::memory_order_acquire);
  }

  MakeFabricOptions options_;
  int family_;  // AF_UNIX or AF_INET, shared by every hostfile address
  std::map<EndpointId, std::string> hosts_;
  EndpointId self_ = kInvalidEndpoint;
  /// Set by register_endpoint() before any loop thread starts; closed,
  /// never reset, on shutdown.
  std::unique_ptr<DeliverySlot> delivery_;

  int listen_fd_ = -1;
  std::atomic<bool> stopping_{false};
  std::vector<std::unique_ptr<EventLoop>> loops_;
  std::atomic<std::size_t> next_loop_{0};

  Mutex conn_mutex_{"net.stream.conn", lockdep::rank::kStreamConn};
  std::map<EndpointId, std::shared_ptr<Conn>> outgoing_
      GEKKO_GUARDED_BY(conn_mutex_);
  std::vector<std::shared_ptr<Conn>> incoming_ GEKKO_GUARDED_BY(conn_mutex_);

  // Serving side: the response for a request goes back over the
  // connection it arrived on, carrying the (possibly written) owned
  // bulk buffer. Keyed by (requester id, seq): seq alone collides
  // across client processes, which each count sequences from 1.
  struct PendingReply {
    std::shared_ptr<Conn> conn;
    BulkRegion writable_bulk;  // owned region, if the request had one
  };
  using ReplyKey = std::pair<EndpointId, std::uint64_t>;
  Mutex reply_mutex_{"net.stream.reply", lockdep::rank::kStreamReply};
  std::map<ReplyKey, PendingReply> pending_replies_
      GEKKO_GUARDED_BY(reply_mutex_);

  // Requesting side: every request awaiting its response, keyed by
  // seq and tied to the connection it left on, so a dead link fails
  // the calls at once. `region` is the caller's writable bulk region
  // the response's data ranges land in, if the request exposed one.
  struct PendingCall {
    std::shared_ptr<Conn> conn;
    BulkRegion region;
  };
  Mutex calls_mutex_{"net.stream.calls", lockdep::rank::kStreamCalls};
  std::unordered_map<std::uint64_t, PendingCall> pending_calls_
      GEKKO_GUARDED_BY(calls_mutex_);

  mutable Mutex stats_mutex_{"net.stream.stats",
                             lockdep::rank::kStreamStats};
  TrafficStats stats_ GEKKO_GUARDED_BY(stats_mutex_){};

  // net.socket.* or net.tcp.*, by family (global registry, cached at
  // construction; incremented lock-free on the data path).
  struct StreamMetrics {
    metrics::Counter* frames_out;
    metrics::Counter* frames_in;
    metrics::Counter* bytes_out;
    metrics::Counter* bytes_in;
    metrics::Counter* dials;
    metrics::Counter* redials;
    metrics::Counter* evictions;
    /// Bulk payload segments of frames sent whole by the inline
    /// sendmsg, gathered straight from the caller's region. A frame
    /// whose tail had to be copied onto the send queue is not counted.
    metrics::Counter* writev_segments;
    /// Event-loop queue flushes, and frames that went out sharing a
    /// flush with at least one other frame (write coalescing).
    metrics::Counter* flushes;
    metrics::Counter* coalesced_frames;
  };
  StreamMetrics m_;
};

}  // namespace gekko::net
