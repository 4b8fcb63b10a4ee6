// relaxed-ok: next_loop_ is a round-robin ticket counter; any
// interleaving yields a valid loop assignment.
#include "net/tcp_fabric.h"
#include "common/flight_recorder.h"
#include "common/thread_annotations.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <limits.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <mutex>
#include <thread>

#include "common/fileio.h"
#include "common/logging.h"

namespace gekko::net {
namespace {

#ifndef IOV_MAX
#define IOV_MAX 1024
#endif

/// Split "host:port" at the LAST colon (leaves room for IPv6 hosts in
/// brackets later) and resolve to an IPv4 socket address.
Result<sockaddr_in> resolve_ipv4(const std::string& hostport) {
  const auto colon = hostport.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == hostport.size()) {
    return Status{Errc::invalid_argument, "bad tcp address: " + hostport};
  }
  const std::string host = hostport.substr(0, colon);
  const std::string_view port_sv{hostport.data() + colon + 1,
                                 hostport.size() - colon - 1};
  std::uint16_t port = 0;
  auto [end, ec] =
      std::from_chars(port_sv.data(), port_sv.data() + port_sv.size(), port);
  if (ec != std::errc{} || end != port_sv.data() + port_sv.size()) {
    return Status{Errc::invalid_argument, "bad tcp port: " + hostport};
  }

  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &sa.sin_addr) == 1) return sa;

  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  if (::getaddrinfo(host.c_str(), nullptr, &hints, &res) != 0 ||
      res == nullptr) {
    return Status{Errc::disconnected, "cannot resolve host: " + host};
  }
  sa.sin_addr = reinterpret_cast<sockaddr_in*>(res->ai_addr)->sin_addr;
  ::freeaddrinfo(res);
  return sa;
}

/// Pending-connection queue of a listening socket.
constexpr int kListenBacklog = 128;

/// Bytes one recv asks for: the default, and the most it asks for when
/// finishing a large frame.
constexpr std::size_t kReadChunk = 64 * 1024;
constexpr std::size_t kMaxReadChunk = 4 << 20;

/// Requested send buffer of a Unix-domain socket. The default (about
/// 208 KiB) is smaller than one 1 MiB bulk frame, so the inline
/// sendmsg would stop mid-frame and the tail be copied onto the send
/// queue; with this buffer a frame of up to several MiB leaves in one
/// call, gathered from the caller's region. The kernel caps the value
/// at net.core.wmem_max. It bounds unread bytes in flight; nothing is
/// allocated up front.
constexpr int kUnixSendBuffer = 4 << 20;

struct SockAddr {
  sockaddr_storage storage{};
  socklen_t len = 0;
  [[nodiscard]] const sockaddr* get() const {
    return reinterpret_cast<const sockaddr*>(&storage);
  }
};

/// Resolve one hostfile address: "host:port" becomes AF_INET, anything
/// else a Unix-domain socket path.
Result<SockAddr> resolve_address(const std::string& address) {
  SockAddr sa;
  if (looks_like_tcp_address(address)) {
    auto in = resolve_ipv4(address);
    if (!in) return in.status();
    std::memcpy(&sa.storage, &*in, sizeof(*in));
    sa.len = sizeof(*in);
    return sa;
  }
  sockaddr_un un{};
  un.sun_family = AF_UNIX;
  // Silently truncating would bind or dial a different (likely
  // nonexistent) socket and report a confusing error instead of the
  // actual misconfiguration.
  if (address.size() >= sizeof(un.sun_path)) {
    return Status{Errc::invalid_argument, "socket path too long: " + address};
  }
  std::memcpy(un.sun_path, address.data(), address.size());
  std::memcpy(&sa.storage, &un, sizeof(un));
  sa.len = sizeof(un);
  return sa;
}

enum class WriteRc { done, again, error };

/// Nonblocking gathered send: advances `iov`/`idx` across partial
/// writes, returns `again` the moment the socket buffer fills.
WriteRc try_writev(int fd, std::vector<iovec>& iov, std::size_t& idx) {
  while (idx < iov.size()) {
    if (iov[idx].iov_len == 0) {
      ++idx;
      continue;
    }
    msghdr mh{};
    mh.msg_iov = iov.data() + idx;
    mh.msg_iovlen = std::min<std::size_t>(iov.size() - idx, IOV_MAX);
    const ssize_t n = ::sendmsg(fd, &mh, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return WriteRc::again;
      return WriteRc::error;
    }
    auto advanced = static_cast<std::size_t>(n);
    while (idx < iov.size() && advanced >= iov[idx].iov_len) {
      advanced -= iov[idx].iov_len;
      ++idx;
    }
    if (idx < iov.size() && advanced > 0) {
      iov[idx].iov_base =
          static_cast<std::uint8_t*>(iov[idx].iov_base) + advanced;
      iov[idx].iov_len -= advanced;
    }
  }
  return WriteRc::done;
}

}  // namespace

TcpFabric::Conn::~Conn() {
  if (fd >= 0) ::close(fd);
}

// ---------------------------------------------------------------------------
// EventLoop: one epoll instance + one thread, owning readiness for a
// subset of connections. Connections are looked up by fd under the
// loop lock, then dispatched WITHOUT it — handlers take fabric locks
// (conn/reply/bulk) and per-conn out locks freely.
// ---------------------------------------------------------------------------
class TcpFabric::EventLoop {
 public:
  explicit EventLoop(TcpFabric* owner) : owner_(owner) {}

  ~EventLoop() {
    stop();
    if (wake_fd_ >= 0) ::close(wake_fd_);
    if (epfd_ >= 0) ::close(epfd_);
  }

  /// Create the epoll set and start the thread, once, on the loop's
  /// first socket.
  Status ensure_started() {
    std::call_once(started_, [this] { start_status_ = init_(); });
    return start_status_;
  }

  Status set_listener(int fd) {
    GEKKO_RETURN_IF_ERROR(ensure_started());
    listen_fd_.store(fd, std::memory_order_release);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      listen_fd_.store(-1, std::memory_order_release);
      return Status{Errc::io_error, "epoll_ctl(listen)"};
    }
    return Status::ok();
  }

  Status add_conn(const std::shared_ptr<Conn>& conn) {
    GEKKO_RETURN_IF_ERROR(ensure_started());
    LockGuard lock(mutex_);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = conn->fd;
    if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, conn->fd, &ev) != 0) {
      return Status{Errc::io_error,
                    std::string("epoll_ctl(add): ") + std::strerror(errno)};
    }
    conns_[conn->fd] = conn;
    return Status::ok();
  }

  void remove_conn(int fd) {
    LockGuard lock(mutex_);
    auto it = conns_.find(fd);
    if (it == conns_.end()) return;
    (void)::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr);
    conns_.erase(it);
  }

  /// Toggle EPOLLOUT interest (EPOLLIN stays on). Callers hold the
  /// connection's out lock, which serializes arm/disarm decisions.
  void arm_write(int fd, bool enable) {
    epoll_event ev{};
    ev.events = EPOLLIN | (enable ? EPOLLOUT : 0u);
    ev.data.fd = fd;
    (void)::epoll_ctl(epfd_, EPOLL_CTL_MOD, fd, &ev);
  }

  void stop() {
    // Also seals the loop: a start that raced with shutdown either
    // finished before this (and is joined below) or never happens.
    std::call_once(started_, [this] {
      start_status_ = Status{Errc::disconnected, "fabric shut down"};
    });
    if (!thread_.joinable()) return;
    stop_.store(true, std::memory_order_release);
    const std::uint64_t one = 1;
    (void)::write(wake_fd_, &one, sizeof(one));
    thread_.join();
  }

  /// Drop every connection reference (shutdown: after the thread is
  /// joined, so nothing dispatches anymore).
  void clear_conns() {
    LockGuard lock(mutex_);
    conns_.clear();
  }

 private:
  Status init_() {
    epfd_ = ::epoll_create1(0);
    if (epfd_ < 0) return Status{Errc::io_error, "epoll_create1()"};
    wake_fd_ = ::eventfd(0, EFD_NONBLOCK);
    if (wake_fd_ < 0) return Status{Errc::io_error, "eventfd()"};
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = wake_fd_;
    if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0) {
      return Status{Errc::io_error, "epoll_ctl(wake)"};
    }
    thread_ = std::thread([this] { run_(); });
    return Status::ok();
  }

  void run_() {
    std::array<epoll_event, 64> evs;
    while (!stop_.load(std::memory_order_acquire)) {
      const int n = ::epoll_wait(epfd_, evs.data(),
                                 static_cast<int>(evs.size()), -1);
      if (n < 0) {
        if (errno == EINTR) continue;
        return;
      }
      for (int i = 0; i < n; ++i) {
        const int fd = evs[i].data.fd;
        if (fd == wake_fd_) {
          std::uint64_t drained = 0;
          (void)::read(wake_fd_, &drained, sizeof(drained));
          continue;
        }
        if (fd == listen_fd_.load(std::memory_order_acquire)) {
          owner_->accept_ready_();
          continue;
        }
        std::shared_ptr<Conn> conn;
        {
          LockGuard lock(mutex_);
          auto it = conns_.find(fd);
          if (it != conns_.end()) conn = it->second;
        }
        if (!conn) continue;  // killed while the event was in flight
        if (evs[i].events & EPOLLIN) owner_->on_readable_(conn);
        if (conn->dead.load(std::memory_order_acquire)) continue;
        if (evs[i].events & EPOLLOUT) owner_->on_writable_(conn);
        if ((evs[i].events & (EPOLLERR | EPOLLHUP)) &&
            !(evs[i].events & EPOLLIN)) {
          owner_->kill_conn_(conn);
        }
      }
    }
  }

  TcpFabric* owner_;
  std::once_flag started_;
  Status start_status_;  // written once, under started_
  int epfd_ = -1;
  int wake_fd_ = -1;
  std::atomic<int> listen_fd_{-1};
  std::atomic<bool> stop_{false};
  Mutex mutex_{"net.stream.loop", lockdep::rank::kStreamLoop};
  std::map<int, std::shared_ptr<Conn>> conns_ GEKKO_GUARDED_BY(mutex_);
  std::thread thread_;
};

// ---------------------------------------------------------------------------
// TcpFabric
// ---------------------------------------------------------------------------

TcpFabric::TcpFabric(const MakeFabricOptions& options, int family)
    : options_(options), family_(family) {
  if (options_.event_loops == 0) options_.event_loops = 2;
  for (std::size_t i = 0; i < options_.event_loops; ++i) {
    loops_.push_back(std::make_unique<EventLoop>(this));
  }
  const std::string prefix = family_ == AF_UNIX ? "net.socket." : "net.tcp.";
  auto& reg = metrics::Registry::global();
  m_.frames_out = &reg.counter(prefix + "frames_out");
  m_.frames_in = &reg.counter(prefix + "frames_in");
  m_.bytes_out = &reg.counter(prefix + "bytes_out");
  m_.bytes_in = &reg.counter(prefix + "bytes_in");
  m_.dials = &reg.counter(prefix + "dials");
  m_.redials = &reg.counter(prefix + "redials");
  m_.evictions = &reg.counter(prefix + "evictions");
  m_.writev_segments = &reg.counter(prefix + "writev_segments");
  m_.flushes = &reg.counter(prefix + "flushes");
  m_.coalesced_frames = &reg.counter(prefix + "coalesced_frames");
}

Result<std::unique_ptr<TcpFabric>> TcpFabric::create(
    const std::filesystem::path& hostfile, const MakeFabricOptions& options) {
  auto content = io::read_file(hostfile);
  if (!content) return content.status();
  auto hosts = parse_hostfile(*content);
  if (!hosts) return hosts.status();

  // One family per hostfile: daemons and clients sharing it must land
  // on the same transport, and the counters are named after it.
  const bool tcp = looks_like_tcp_address(hosts->begin()->second);
  for (const auto& [id, address] : *hosts) {
    if (looks_like_tcp_address(address) != tcp) {
      return Status{Errc::invalid_argument,
                    "hostfile mixes socket paths and host:port addresses: " +
                        address};
    }
  }
  // An explicit transport that contradicts the hostfile is a
  // misconfiguration; fail it here rather than at connect time with a
  // confusing resolve/ENOENT error.
  if (options.transport == Transport::tcp && !tcp) {
    return Status{Errc::invalid_argument,
                  "hostfile address is not host:port: " +
                      hosts->begin()->second};
  }
  if (options.transport == Transport::uds && tcp) {
    return Status{Errc::invalid_argument,
                  "hostfile address is not a socket path: " +
                      hosts->begin()->second};
  }
  if (options.self_id != kInvalidEndpoint &&
      !hosts->contains(options.self_id)) {
    return Status{Errc::invalid_argument, "self_id not in hostfile"};
  }

  std::unique_ptr<TcpFabric> fabric(
      new TcpFabric(options, tcp ? AF_INET : AF_UNIX));
  fabric->hosts_ = std::move(*hosts);
  return fabric;
}

TcpFabric::~TcpFabric() { shutdown_(); }

void TcpFabric::tune_socket_(int fd) const {
  if (family_ == AF_UNIX) {
    (void)::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &kUnixSendBuffer,
                       sizeof(kUnixSendBuffer));
    return;
  }
  const int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

TcpFabric::EventLoop* TcpFabric::pick_loop_() {
  const std::size_t i =
      next_loop_.fetch_add(1, std::memory_order_relaxed) % loops_.size();
  return loops_[i].get();
}

EndpointId TcpFabric::register_endpoint(Deliver deliver) {
  if (delivery_ != nullptr) {
    GEKKO_ERROR("net.stream") << "second endpoint on a stream fabric";
    return kInvalidEndpoint;
  }
  delivery_ = std::make_unique<DeliverySlot>(std::move(deliver));
  if (options_.self_id != kInvalidEndpoint) {
    self_ = options_.self_id;
    if (Status st = start_listener_(); !st.is_ok()) {
      GEKKO_ERROR("net.stream") << "listener failed: " << st.to_string();
      // Roll the registration back entirely: a retry after the caller
      // fixes the cause (missing socket dir, port in use) must see the
      // real error again, not the "second endpoint" guard tripping on
      // the slot this failed attempt left behind. No connection exists
      // yet, so nothing can be delivering into it.
      delivery_.reset();
      self_ = kInvalidEndpoint;
      return kInvalidEndpoint;
    }
  } else {
    self_ = wire::derive_client_endpoint_id();
  }
  return self_;
}

Status TcpFabric::start_listener_() {
  const std::string& address = hosts_.at(self_);
  auto sa = resolve_address(address);
  if (!sa) return sa.status();
  // A socket file left by an earlier run would make bind fail.
  if (family_ == AF_UNIX) (void)::unlink(address.c_str());

  listen_fd_ =
      ::socket(family_, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return Status{Errc::io_error, "socket()"};
  // Failure must not leak the fd nor leave listen_fd_ pointing at a
  // half-configured socket a later shutdown_() would close again.
  const auto fail = [this](Status st) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  };

  if (family_ == AF_INET) {
    const int one = 1;
    (void)::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one,
                       sizeof(one));
  }
  if (::bind(listen_fd_, sa->get(), sa->len) != 0) {
    return fail(Status{Errc::io_error,
                       "bind " + address + ": " + std::strerror(errno)});
  }
  if (::listen(listen_fd_, kListenBacklog) != 0) {
    return fail(Status{Errc::io_error, "listen()"});
  }
  // The listener lives in loop 0; there is no acceptor thread at all —
  // accepts are just another readiness event.
  if (Status st = loops_[0]->set_listener(listen_fd_); !st.is_ok()) {
    return fail(std::move(st));
  }
  return Status::ok();
}

void TcpFabric::accept_ready_() {
  for (;;) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN (drained the backlog) or listener closed
    }
    tune_socket_(fd);
    auto conn = std::make_shared<Conn>();
    conn->fd = fd;
    conn->loop = pick_loop_();
    // Publish and register atomically w.r.t. kill/shutdown (kStreamLoop
    // ranks under kStreamConn for exactly this nesting).
    LockGuard lock(conn_mutex_);
    if (stopping_now_()) {
      ::shutdown(fd, SHUT_RDWR);
      ::close(fd);
      conn->fd = -1;
      return;
    }
    incoming_.push_back(conn);
    if (!conn->loop->add_conn(conn).is_ok()) {
      std::erase(incoming_, conn);
      ::shutdown(fd, SHUT_RDWR);
    }
  }
}

void TcpFabric::on_readable_(const std::shared_ptr<Conn>& conn) {
  // rd / rd_pos are loop-thread-private (one loop owns each fd).
  auto& rd = conn->rd;
  bool eof = false;
  bool fatal = false;
  // Read until EAGAIN; level-triggered epoll re-arms if the peer keeps
  // sending, so a hard iteration cap only bounds single-conn latency.
  for (int round = 0; round < 16; ++round) {
    // One recv takes the rest of a frame whose length prefix has
    // arrived (a 1 MiB bulk frame in one call, not sixteen). The cap
    // keeps an announced length from growing the buffer more than
    // kMaxReadChunk past the bytes that actually arrived.
    std::size_t want = kReadChunk;
    if (rd.size() - conn->rd_pos >= wire::kLenPrefixBytes) {
      std::uint32_t frame_len = 0;
      std::memcpy(&frame_len, rd.data() + conn->rd_pos, sizeof(frame_len));
      const std::size_t have = rd.size() - conn->rd_pos;
      const std::size_t total = wire::kLenPrefixBytes + frame_len;
      if (total > have) {
        want = std::clamp(total - have, kReadChunk, kMaxReadChunk);
      }
    }
    const std::size_t old_size = rd.size();
    rd.resize(old_size + want);
    const ssize_t n = ::recv(conn->fd, rd.data() + old_size, want,
                             MSG_DONTWAIT);
    rd.resize(old_size + static_cast<std::size_t>(std::max<ssize_t>(n, 0)));
    if (n > 0) {
      m_.bytes_in->inc(static_cast<std::uint64_t>(n));
      if (static_cast<std::size_t>(n) < want) break;
      continue;
    }
    if (n == 0) {
      eof = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    fatal = true;
    break;
  }
  if (!drain_frames_(conn)) fatal = true;
  if (eof || fatal) kill_conn_(conn);
}

bool TcpFabric::drain_frames_(const std::shared_ptr<Conn>& conn) {
  auto& rd = conn->rd;
  while (rd.size() - conn->rd_pos >= wire::kLenPrefixBytes) {
    std::uint32_t frame_len = 0;
    std::memcpy(&frame_len, rd.data() + conn->rd_pos, sizeof(frame_len));
    if (frame_len < wire::kMinFrameBytes ||
        frame_len > options_.max_frame_bytes) {
      return false;  // stream framing is broken; nothing is trustable
    }
    const std::size_t total = wire::kLenPrefixBytes + frame_len;
    if (rd.size() - conn->rd_pos < total) break;  // partial frame

    const std::span<const std::uint8_t> frame{
        rd.data() + conn->rd_pos + wire::kLenPrefixBytes, frame_len};
    m_.frames_in->inc();
    wire::DecodedFrame decoded;
    if (!wire::decode_frame(frame, options_.max_frame_bytes, &decoded)
             .is_ok()) {
      return false;
    }
    if (!deliver_frame_(conn, std::move(decoded))) return false;
    conn->rd_pos += total;
  }
  // Compact the consumed prefix so the buffer tracks the partial
  // remainder, not the whole session's history.
  if (conn->rd_pos == rd.size()) {
    rd.clear();
    conn->rd_pos = 0;
  } else if (conn->rd_pos > 0) {
    rd.erase(rd.begin(),
             rd.begin() + static_cast<std::ptrdiff_t>(conn->rd_pos));
    conn->rd_pos = 0;
  }
  return true;
}

bool TcpFabric::deliver_frame_(const std::shared_ptr<Conn>& conn,
                               wire::DecodedFrame decoded) {
  Message msg = std::move(decoded.msg);
  BulkRegion writable_bulk;
  if (decoded.bulk_mode == wire::kBulkWritableSize) writable_bulk = msg.bulk;

  if (msg.kind == MessageKind::request) {
    PendingReply reply;
    reply.conn = conn;
    reply.writable_bulk = std::move(writable_bulk);
    LockGuard lock(reply_mutex_);
    pending_replies_[ReplyKey{msg.source, msg.seq}] = std::move(reply);
  } else {
    // A response settles its pending call. If it carries dirty ranges
    // for the call's writable region, apply them before delivery.
    // Fan-out reads have several responses filling disjoint parts of
    // one region, so only written ranges travel. Applied under
    // calls_mutex_, which cancel() also takes: once a cancel returns,
    // no byte lands in the caller's buffer. A range outside its region
    // is a corrupt or hostile peer: kill the connection rather than
    // skip the range (the caller would read stale bytes and never
    // learn); the eviction then fails the call. No entry means
    // cancelled or timed out: the ranges are dropped.
    LockGuard lock(calls_mutex_);
    auto it = pending_calls_.find(msg.seq);
    if (it != pending_calls_.end()) {
      if (decoded.bulk_mode == wire::kBulkResponseData &&
          !wire::apply_response_ranges(it->second.region, decoded.ranges)
               .is_ok()) {
        return false;
      }
      pending_calls_.erase(it);
    }
  }

  // Straight to the endpoint, on this loop thread, with no lock held.
  return delivery_ != nullptr && delivery_->deliver(std::move(msg));
}

Status TcpFabric::send_frame_(Conn& conn, const wire::EncodedFrame& frame) {
  if (conn.dead.load(std::memory_order_acquire)) {
    return Status{Errc::disconnected, "connection dead"};
  }
  {
    LockGuard lock(conn.out_mutex);
    if (conn.out.empty() && !conn.epollout_armed) {
      // Socket idle: write inline, zero-copy, from this thread.
      std::vector<iovec> iov;
      iov.reserve(frame.segment_count() * 2 + 2);
      frame.append_iov(&iov);
      std::size_t idx = 0;
      switch (try_writev(conn.fd, iov, idx)) {
        case WriteRc::done:
          m_.writev_segments->inc(frame.segment_count());
          break;
        case WriteRc::again:
          // Socket buffer full mid-frame: park the unsent tail on the
          // queue and let the event loop finish it.
          for (std::size_t j = idx; j < iov.size(); ++j) {
            const auto* base = static_cast<const std::uint8_t*>(
                iov[j].iov_base);
            conn.out.insert(conn.out.end(), base, base + iov[j].iov_len);
          }
          conn.out_frames = 1;
          conn.epollout_armed = true;
          conn.loop->arm_write(conn.fd, true);
          break;
        case WriteRc::error:
          return Status{Errc::disconnected,
                        std::string("sendmsg: ") + std::strerror(errno)};
      }
    } else {
      // Socket backed up: flatten behind the queued bytes. The event
      // loop will flush the whole backlog in single sendmsg calls —
      // this queue-append IS the write coalescing.
      frame.flatten_into(&conn.out);
      ++conn.out_frames;
      if (!conn.epollout_armed) {
        conn.epollout_armed = true;
        conn.loop->arm_write(conn.fd, true);
      }
    }
  }
  m_.frames_out->inc();
  m_.bytes_out->inc(frame.wire_bytes());
  return Status::ok();
}

void TcpFabric::on_writable_(const std::shared_ptr<Conn>& conn) {
  bool broken = false;
  {
    LockGuard lock(conn->out_mutex);
    while (conn->out_pos < conn->out.size()) {
      const ssize_t n =
          ::send(conn->fd, conn->out.data() + conn->out_pos,
                 conn->out.size() - conn->out_pos, MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        broken = true;
        break;
      }
      conn->out_pos += static_cast<std::size_t>(n);
    }
    if (!broken && conn->out_pos == conn->out.size()) {
      m_.flushes->inc();
      if (conn->out_frames > 1) m_.coalesced_frames->inc(conn->out_frames);
      conn->out.clear();
      conn->out_pos = 0;
      conn->out_frames = 0;
      conn->epollout_armed = false;
      conn->loop->arm_write(conn->fd, false);
    }
  }
  if (broken) kill_conn_(conn);
}

Result<std::shared_ptr<TcpFabric::Conn>> TcpFabric::connect_to_(
    EndpointId dest) {
  {
    LockGuard lock(conn_mutex_);
    auto it = outgoing_.find(dest);
    if (it != outgoing_.end() &&
        !it->second->dead.load(std::memory_order_acquire)) {
      return it->second;
    }
  }
  auto host = hosts_.find(dest);
  if (host == hosts_.end()) {
    return Status{Errc::disconnected, "unknown endpoint id"};
  }
  auto sa = resolve_address(host->second);
  if (!sa) return sa.status();

  const int fd = ::socket(family_, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Status{Errc::io_error, "socket()"};
  // Blocking connect (the dialer wants the result synchronously), then
  // nonblocking for the event loop.
  if (::connect(fd, sa->get(), sa->len) != 0) {
    ::close(fd);
    return Status{Errc::disconnected,
                  "connect " + host->second + ": " + std::strerror(errno)};
  }
  const int flags = ::fcntl(fd, F_GETFL, 0);
  (void)::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  tune_socket_(fd);
  m_.dials->inc();
  flight::record(flight::Subsys::fabric, flight::ev::fabric_connect, dest);

  LockGuard lock(conn_mutex_);
  auto it = outgoing_.find(dest);
  if (it != outgoing_.end()) {
    if (!it->second->dead.load(std::memory_order_acquire)) {
      // Lost a connect race; keep the established link.
      ::close(fd);
      return it->second;
    }
    // Replace a dead cached connection (kill_conn_ already pulled it
    // out of its event loop; the shared_ptr drop closes the fd).
    m_.redials->inc();
    flight::record(flight::Subsys::fabric, flight::ev::fabric_redial, dest);
    outgoing_.erase(it);
  }
  auto conn = std::make_shared<Conn>();
  conn->fd = fd;
  conn->peer = dest;
  conn->loop = pick_loop_();
  if (Status st = conn->loop->add_conn(conn); !st.is_ok()) return st;
  outgoing_[dest] = conn;
  return conn;
}

void TcpFabric::kill_conn_(const std::shared_ptr<Conn>& conn) {
  const bool already = conn->dead.exchange(true, std::memory_order_acq_rel);
  ::shutdown(conn->fd, SHUT_RDWR);
  if (stopping_now_()) return;  // shutdown_() owns all cleanup
  if (!already) {
    m_.evictions->inc();
    flight::record(flight::Subsys::fabric, flight::ev::fabric_evict,
                   conn->peer);
  }
  if (conn->loop != nullptr) conn->loop->remove_conn(conn->fd);
  evict_(conn);
}

void TcpFabric::evict_(const std::shared_ptr<Conn>& conn) {
  {
    LockGuard lock(conn_mutex_);
    if (conn->peer != kInvalidEndpoint) {
      auto it = outgoing_.find(conn->peer);
      if (it != outgoing_.end() && it->second == conn) outgoing_.erase(it);
    }
    std::erase(incoming_, conn);
  }
  {
    LockGuard lock(reply_mutex_);
    std::erase_if(pending_replies_,
                  [&](const auto& kv) { return kv.second.conn == conn; });
  }
  if (delivery_ == nullptr) return;  // no endpoint, so no calls
  std::vector<std::uint64_t> failed;
  {
    LockGuard lock(calls_mutex_);
    std::erase_if(pending_calls_, [&](const auto& kv) {
      if (kv.second.conn != conn) return false;
      failed.push_back(kv.first);
      return true;
    });
  }
  // No response can arrive over a dead link: fail each call now rather
  // than leave its caller waiting out the rpc timeout.
  for (const std::uint64_t seq : failed) {
    Message msg;
    msg.kind = MessageKind::response;
    msg.seq = seq;
    msg.source = conn->peer;
    msg.payload = {static_cast<std::uint8_t>(Errc::disconnected)};
    // status-ignored-ok: a closed endpoint has already failed its calls
    (void)delivery_->deliver(std::move(msg));
  }
}

void TcpFabric::kill_connection_(EndpointId dest, const Message& msg) {
  flight::record(flight::Subsys::fabric, flight::ev::fabric_kill, dest,
                 static_cast<std::uint32_t>(msg.seq));
  std::shared_ptr<Conn> victim;
  if (msg.kind == MessageKind::response) {
    LockGuard lock(reply_mutex_);
    auto it = pending_replies_.find(ReplyKey{dest, msg.seq});
    if (it != pending_replies_.end()) victim = it->second.conn;
  } else {
    LockGuard lock(conn_mutex_);
    auto it = outgoing_.find(dest);
    if (it != outgoing_.end()) victim = it->second;
  }
  if (victim) kill_conn_(victim);
}

void TcpFabric::cancel(std::uint64_t seq) {
  LockGuard lock(calls_mutex_);
  pending_calls_.erase(seq);
}

Status TcpFabric::send(EndpointId dest, Message msg) {
  {
    LockGuard lock(stats_mutex_);
    ++stats_.messages_sent;
    stats_.payload_bytes += msg.payload.size();
  }
  const FaultAction fault = consult_injector_(dest, msg);
  if (fault.kill_connection) kill_connection_(dest, msg);
  if (fault.delay.count() > 0) {
    std::this_thread::sleep_for(fault.delay);  // blocking-ok: scripted fault delay runs on the injecting sender's thread by design
  }
  if (fault.drop) {
    LockGuard lock(stats_mutex_);
    ++stats_.messages_dropped;
    return Status::ok();  // silent loss, sender can't observe it
  }

  if (msg.kind == MessageKind::response) {
    PendingReply reply;
    {
      LockGuard lock(reply_mutex_);
      auto it = pending_replies_.find(ReplyKey{dest, msg.seq});
      if (it == pending_replies_.end()) {
        return Status{Errc::disconnected, "no reply route for seq"};
      }
      reply = std::move(it->second);
      pending_replies_.erase(it);
    }
    const BulkRegion* bulk_out =
        reply.writable_bulk.valid() ? &reply.writable_bulk : nullptr;
    auto frame =
        wire::encode_frame(msg, bulk_out, self_, options_.max_frame_bytes);
    if (!frame) return frame.status();
    Status st = send_frame_(*reply.conn, *frame);
    if (st.is_ok() && fault.duplicate) {
      // status-ignored-ok: best-effort reply; a dead peer is caught by its reader
      (void)send_frame_(*reply.conn, *frame);
    }
    return st;
  }

  // Request path. A cached connection may have died since the last
  // send (daemon restart): if the write fails, evict the link and
  // redial once, transparently.
  auto frame = wire::encode_frame(msg, nullptr, self_, options_.max_frame_bytes);
  if (!frame) return frame.status();
  const bool writable =
      msg.bulk.valid() && msg.bulk.writable() && !msg.bulk.owned();
  Status last = Status::ok();
  for (int attempt = 0; attempt < 2; ++attempt) {
    auto conn = connect_to_(dest);
    if (!conn) return conn.status();
    {
      // Registered before the frame leaves: the response may be read
      // by a loop thread before send_frame_ returns.
      LockGuard lock(calls_mutex_);
      pending_calls_[msg.seq] =
          PendingCall{*conn, writable ? msg.bulk : BulkRegion{}};
    }
    last = send_frame_(**conn, *frame);
    if (last.is_ok()) {
      // status-ignored-ok: injected duplicate send
      if (fault.duplicate) (void)send_frame_(**conn, *frame);
      return last;
    }
    bool still_ours = false;
    {
      LockGuard lock(calls_mutex_);
      still_ours = pending_calls_.erase(msg.seq) > 0;
    }
    // A concurrent eviction of this link already failed the call with
    // `disconnected`; a redial now could run the request anyway.
    if (!still_ours) return Status::ok();
    if (last.code() != Errc::disconnected) return last;  // e.g. overflow
    kill_conn_(*conn);
  }
  return last;
}

void TcpFabric::deregister(EndpointId id) {
  (void)id;
  shutdown_();  // joins the loops: no delivery runs once this returns
}

void TcpFabric::shutdown_() {
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true)) {
    return;
  }
  // Stop the loops FIRST: after the joins nothing dispatches, so the
  // rest of teardown owns every connection exclusively.
  for (auto& loop : loops_) loop->stop();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    if (family_ == AF_UNIX) (void)::unlink(hosts_.at(self_).c_str());
  }
  std::vector<std::shared_ptr<Conn>> conns;
  {
    LockGuard lock(conn_mutex_);
    for (auto& [id, c] : outgoing_) conns.push_back(c);
    conns.insert(conns.end(), incoming_.begin(), incoming_.end());
    outgoing_.clear();
    incoming_.clear();
  }
  for (auto& c : conns) {
    ::shutdown(c->fd, SHUT_RDWR);
  }
  for (auto& loop : loops_) loop->clear_conns();
  {
    LockGuard lock(reply_mutex_);
    pending_replies_.clear();
  }
  {
    LockGuard lock(calls_mutex_);
    pending_calls_.clear();
  }
  // The loops are joined; this waits out any eviction still delivering
  // from a sender's thread.
  if (delivery_ != nullptr) delivery_->close();
}

Status TcpFabric::bulk_pull(const BulkRegion& region, std::size_t offset,
                            std::span<std::uint8_t> out) {
  if (!region.valid()) return Status{Errc::invalid_argument, "invalid bulk"};
  if (!wire::range_in_bounds(offset, out.size(), region.size())) {
    return Status{Errc::overflow, "bulk pull out of range"};
  }
  std::memcpy(out.data(), region.read_ptr() + offset, out.size());
  LockGuard lock(stats_mutex_);
  stats_.bulk_bytes_pulled += out.size();
  return Status::ok();
}

Status TcpFabric::bulk_push(const BulkRegion& region, std::size_t offset,
                            std::span<const std::uint8_t> data) {
  if (!region.valid() || !region.writable()) {
    return Status{Errc::invalid_argument, "bulk region not writable"};
  }
  if (!wire::range_in_bounds(offset, data.size(), region.size())) {
    return Status{Errc::overflow, "bulk push out of range"};
  }
  std::memcpy(region.write_ptr() + offset, data.data(), data.size());
  region.record_push(offset, data.size());
  LockGuard lock(stats_mutex_);
  stats_.bulk_bytes_pushed += data.size();
  return Status::ok();
}

TrafficStats TcpFabric::stats() const {
  LockGuard lock(stats_mutex_);
  return stats_;
}

}  // namespace gekko::net
