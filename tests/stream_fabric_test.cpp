// Stream-fabric tests, run over both address families (Unix-domain
// sockets and TCP) of the one epoll engine: transport selection
// (parse_transport / looks_like_tcp_address / make_fabric), RPC round
// trips, gathered bulk writes both directions, the full daemon/client
// stack, daemon restart recovery, many-client fan-in, the hostile-peer
// suite (malformed frames, a wrapping response range), and listener
// failure rollback. Everything except ForkedDaemonTest stays in one
// process, so it can run under TSan; ForkedDaemonTest runs gkfsd
// daemon processes and is registered as its own ctest entry.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <charconv>
#include <cstring>
#include <filesystem>
#include <functional>
#include <optional>
#include <thread>

#include "client/client.h"
#include "common/codec.h"
#include "common/fileio.h"
#include "common/metrics.h"
#include "daemon/daemon.h"
#include "fs/mount.h"
#include "net/frame_codec.h"
#include "net/transport.h"
#include "rpc/engine.h"
#include "task/future.h"

namespace gekko {
namespace {

// --- raw-socket helpers for the hostile-peer tests ---------------------

/// Raw stream socket address for a hostfile address: AF_INET for
/// "ip:port", AF_UNIX for a socket path.
socklen_t raw_address(const std::string& address, sockaddr_storage* sa) {
  *sa = {};
  if (net::looks_like_tcp_address(address)) {
    const auto colon = address.rfind(':');
    std::uint16_t port = 0;
    std::from_chars(address.data() + colon + 1,
                    address.data() + address.size(), port);
    auto* in = reinterpret_cast<sockaddr_in*>(sa);
    in->sin_family = AF_INET;
    in->sin_port = htons(port);
    ::inet_pton(AF_INET, address.substr(0, colon).c_str(), &in->sin_addr);
    return sizeof(sockaddr_in);
  }
  auto* un = reinterpret_cast<sockaddr_un*>(sa);
  un->sun_family = AF_UNIX;
  std::strncpy(un->sun_path, address.c_str(), sizeof(un->sun_path) - 1);
  return sizeof(sockaddr_un);
}

int dial_raw(const std::string& address) {
  sockaddr_storage sa;
  const socklen_t len = raw_address(address, &sa);
  const int fd = ::socket(sa.ss_family, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&sa), len) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Raw listener standing in for a daemon: a socket file under `dir`
/// for UDS, an ephemeral 127.0.0.1 port for TCP. Returns the fd and
/// sets `address` to the hostfile address that reaches it.
int listen_raw(net::Transport transport, const std::filesystem::path& dir,
               std::string* address) {
  const bool tcp = transport == net::Transport::tcp;
  *address = tcp ? "127.0.0.1:0" : (dir / "fake.sock").string();
  sockaddr_storage sa;
  socklen_t len = raw_address(*address, &sa);
  const int fd = ::socket(sa.ss_family, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (::bind(fd, reinterpret_cast<sockaddr*>(&sa), len) != 0 ||
      ::listen(fd, 4) != 0) {
    ::close(fd);
    return -1;
  }
  if (tcp) {
    ::getsockname(fd, reinterpret_cast<sockaddr*>(&sa), &len);
    *address = "127.0.0.1:" + std::to_string(ntohs(
                                  reinterpret_cast<sockaddr_in*>(&sa)->sin_port));
  }
  return fd;
}

bool send_all(int fd, const std::vector<std::uint8_t>& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

bool recv_all(int fd, std::uint8_t* buf, std::size_t len) {
  std::size_t off = 0;
  while (off < len) {
    const ssize_t n = ::recv(fd, buf + off, len - off, 0);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

// Builds a complete wire frame (length prefix + body) whose header is
// well-formed; `bulk` appends the hostile bulk section.
std::vector<std::uint8_t> hostile_frame(
    net::MessageKind kind, std::uint64_t seq, std::uint32_t source,
    const std::function<void(Encoder&)>& bulk) {
  std::vector<std::uint8_t> body;
  Encoder enc(&body);
  enc.u8(static_cast<std::uint8_t>(kind));
  enc.u16(7);  // rpc id — irrelevant, the frame dies in the fabric
  enc.u64(seq);
  enc.u32(source);
  enc.u64(0);  // trace id
  enc.u64(0);  // parent span
  enc.str("");
  bulk(enc);
  std::vector<std::uint8_t> out(net::wire::kLenPrefixBytes);
  const auto len = static_cast<std::uint32_t>(body.size());
  std::memcpy(out.data(), &len, sizeof(len));
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

std::uint64_t wait_for_increase(metrics::Counter& c, std::uint64_t floor) {
  for (int i = 0; i < 2000 && c.value() <= floor; ++i) ::usleep(1000);
  return c.value();
}

std::string family_name(
    const ::testing::TestParamInfo<net::Transport>& info) {
  return net::transport_name(info.param);
}

// --- fixture: one temp dir per test, parametrized by family ------------

class StreamFabricTest : public ::testing::TestWithParam<net::Transport> {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("gekko_fabric_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  [[nodiscard]] net::Transport family() const { return GetParam(); }

  Result<std::filesystem::path> write_hosts(std::uint32_t n) {
    return net::write_hostfile(dir_, n, family());
  }

  /// The fabric's counter `name` under this family's prefix.
  metrics::Counter& counter(const std::string& name) {
    return metrics::Registry::global().counter(
        (family() == net::Transport::uds ? "net.socket." : "net.tcp.") +
        name);
  }

  /// Hostfile address of daemon `id`.
  std::string address_of(const std::filesystem::path& hostfile,
                         net::EndpointId id) {
    auto hosts = net::parse_hostfile(io::read_file(hostfile).value());
    return hosts.value().at(id);
  }

  std::filesystem::path dir_;
};

INSTANTIATE_TEST_SUITE_P(Families, StreamFabricTest,
                         ::testing::Values(net::Transport::uds,
                                           net::Transport::tcp),
                         family_name);

// --- transport selection ------------------------------------------------

TEST(TransportSelection, ParseAndNames) {
  EXPECT_EQ(*net::parse_transport("auto"), net::Transport::autodetect);
  EXPECT_EQ(*net::parse_transport("uds"), net::Transport::uds);
  EXPECT_EQ(*net::parse_transport("tcp"), net::Transport::tcp);
  EXPECT_EQ(net::parse_transport("rdma").code(), Errc::invalid_argument);
  EXPECT_STREQ(net::transport_name(net::Transport::tcp), "tcp");
  EXPECT_STREQ(net::transport_name(net::Transport::uds), "uds");
}

TEST(TransportSelection, TcpAddressSniffing) {
  EXPECT_TRUE(net::looks_like_tcp_address("127.0.0.1:9230"));
  EXPECT_TRUE(net::looks_like_tcp_address("node-07:5000"));
  EXPECT_FALSE(net::looks_like_tcp_address("/tmp/gkfsd.0.sock"));
  EXPECT_FALSE(net::looks_like_tcp_address("./rel.sock"));
  EXPECT_FALSE(net::looks_like_tcp_address("host:"));       // no port
  EXPECT_FALSE(net::looks_like_tcp_address(":9230"));       // no host
  EXPECT_FALSE(net::looks_like_tcp_address("host:port"));   // non-numeric
  EXPECT_FALSE(net::looks_like_tcp_address("host:99999"));  // > u16
}

TEST(TransportSelection, RejectsGarbageAndOutOfRangeHostfileIds) {
  // Malformed ids must come back as invalid_argument from the factory,
  // never as a std::stoul exception escaping a Result-returning API.
  const auto dir = std::filesystem::temp_directory_path() /
                   ("gekko_fabric_ids_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::vector<std::string> bad_lines = {
      "xyz /tmp/a.sock\n",                    // not a number
      "12abc /tmp/a.sock\n",                  // trailing junk
      "-3 /tmp/a.sock\n",                     // negative
      "99999999999999999999 /tmp/a.sock\n",   // out of range for u32
      "1073741824 /tmp/a.sock\n",             // 2^30: client id-space
      "no-space-here\n",                      // no address
  };
  int i = 0;
  for (const auto& line : bad_lines) {
    const auto path = dir / ("bad" + std::to_string(i++));
    ASSERT_TRUE(io::write_file_atomic(path, line).is_ok());
    EXPECT_EQ(net::make_fabric(path, {}).code(), Errc::invalid_argument)
        << line;
  }
  // Comments and blank lines are still fine.
  const auto good = dir / "good";
  ASSERT_TRUE(io::write_file_atomic(
                  good, "# comment\n\n0 " + (dir / "d0.sock").string() + "\n")
                  .is_ok());
  EXPECT_TRUE(net::make_fabric(good, {}).is_ok());
  EXPECT_EQ(net::make_fabric(dir / "absent", {}).code(), Errc::not_found);
  std::filesystem::remove_all(dir);
}

TEST(TransportSelection, HostfileMustNameOneFamily) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("gekko_fabric_family_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  auto uds_hosts = net::write_hostfile(dir, 1, net::Transport::uds);
  auto tcp_hosts = net::write_hostfile(dir, 1, net::Transport::tcp);
  ASSERT_TRUE(uds_hosts.is_ok() && tcp_hosts.is_ok());

  // Autodetect takes the family from the addresses.
  EXPECT_TRUE(net::make_fabric(*uds_hosts, {.self_id = 0}).is_ok());
  EXPECT_TRUE(net::make_fabric(*tcp_hosts, {.self_id = 0}).is_ok());
  // An explicit transport that contradicts the hostfile fails loudly.
  EXPECT_EQ(net::make_fabric(*uds_hosts, {.transport = net::Transport::tcp})
                .code(),
            Errc::invalid_argument);
  EXPECT_EQ(net::make_fabric(*tcp_hosts, {.transport = net::Transport::uds})
                .code(),
            Errc::invalid_argument);
  // So does a hostfile mixing both address kinds.
  const auto mixed = dir / "mixed.txt";
  ASSERT_TRUE(io::write_file_atomic(mixed, "0 " + (dir / "d0.sock").string() +
                                               "\n1 127.0.0.1:9\n")
                  .is_ok());
  EXPECT_EQ(net::make_fabric(mixed, {}).code(), Errc::invalid_argument);
  std::filesystem::remove_all(dir);
}

TEST(TransportSelection, OverlongSocketPathFailsCleanly) {
  // sun_path is ~108 bytes; a longer configured path must surface as
  // invalid_argument on dial, not be silently truncated into a connect
  // to some other socket.
  const auto dir = std::filesystem::temp_directory_path() /
                   ("gekko_fabric_long_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string long_path = (dir / std::string(150, 'a')).string();
  const auto hostfile = dir / "hosts.txt";
  ASSERT_TRUE(
      io::write_file_atomic(hostfile, "0 " + long_path + "\n").is_ok());
  auto fabric = net::make_fabric(hostfile, {});
  ASSERT_TRUE(fabric.is_ok());
  ASSERT_NE((*fabric)->register_endpoint([](net::Message) {}),
            net::kInvalidEndpoint);
  net::Message msg;
  msg.kind = net::MessageKind::request;
  msg.rpc_id = 1;
  msg.seq = 1;
  auto st = (*fabric)->send(0, std::move(msg));
  EXPECT_EQ(st.code(), Errc::invalid_argument) << st.to_string();
  // A daemon on that path fails its listener with the same error.
  auto daemon = net::make_fabric(hostfile, {.self_id = 0});
  ASSERT_TRUE(daemon.is_ok());
  EXPECT_EQ((*daemon)->register_endpoint([](net::Message) {}),
            net::kInvalidEndpoint);
  std::filesystem::remove_all(dir);
}

// --- both families --------------------------------------------------------

TEST_P(StreamFabricTest, HostfileRoundTripAndValidation) {
  auto hostfile = write_hosts(3);
  ASSERT_TRUE(hostfile.is_ok()) << hostfile.status().to_string();
  auto fabric = net::make_fabric(*hostfile, {.self_id = 1});
  ASSERT_TRUE(fabric.is_ok()) << fabric.status().to_string();
  EXPECT_EQ((*fabric)->daemon_ids(), (std::vector<net::EndpointId>{0, 1, 2}));
  EXPECT_EQ(net::make_fabric(*hostfile, {.self_id = 99}).code(),
            Errc::invalid_argument);
}

TEST_P(StreamFabricTest, RpcEcho) {
  auto hostfile = write_hosts(1);
  ASSERT_TRUE(hostfile.is_ok());
  auto server_fabric = net::make_fabric(*hostfile, {.self_id = 0});
  ASSERT_TRUE(server_fabric.is_ok()) << server_fabric.status().to_string();
  rpc::Engine server(**server_fabric, {.name = "echo-server"});
  ASSERT_EQ(server.endpoint(), 0u);
  server.register_rpc(1, "echo", [](const net::Message& msg) {
    return Result<std::vector<std::uint8_t>>(msg.payload);
  });

  auto client_fabric = net::make_fabric(*hostfile, {});
  ASSERT_TRUE(client_fabric.is_ok());
  rpc::Engine client(**client_fabric, {.name = "echo-client"});

  auto& frames_out = counter("frames_out");
  const std::uint64_t before = frames_out.value();
  // Many sequential round trips over one persistent connection: every
  // frame crosses the epoll loops of both sides.
  for (std::uint8_t i = 0; i < 64; ++i) {
    auto r = client.forward(0, 1, {i, static_cast<std::uint8_t>(i + 1)});
    ASSERT_TRUE(r.is_ok()) << "i=" << int(i) << ": " << r.status().to_string();
    EXPECT_EQ((*r)[0], i);
  }
  EXPECT_GE(frames_out.value() - before, 64u);
}

TEST_P(StreamFabricTest, LargeBulkFramesUseGatheredWrites) {
  // Zero-copy send path: frames carrying bulk payload go out via
  // sendmsg with the payload gathered straight from the exposed
  // region, never staged through the scratch buffer. Observable via
  // the <family>.writev_segments counter (one count per gathered ext
  // segment), which stays flat for payload-only control frames.
  auto hostfile = write_hosts(1);
  ASSERT_TRUE(hostfile.is_ok());
  auto server_fabric = net::make_fabric(*hostfile, {.self_id = 0});
  ASSERT_TRUE(server_fabric.is_ok());
  rpc::Engine server(**server_fabric, {.name = "zc-server"});

  constexpr std::size_t kBulk = 1 << 20;  // 1 MiB, many socket buffers
  net::Fabric* sfab = server_fabric->get();
  server.register_rpc(1, "bulk-sink", [sfab](const net::Message& msg)
                          -> Result<std::vector<std::uint8_t>> {
    std::vector<std::uint8_t> got(msg.bulk.size());
    GEKKO_RETURN_IF_ERROR(sfab->bulk_pull(msg.bulk, 0, got));
    // Reply with a tiny digest so the client can check the payload
    // really crossed the wire intact.
    std::uint8_t acc = 0;
    for (const auto b : got) acc = static_cast<std::uint8_t>(acc ^ b);
    return std::vector<std::uint8_t>{static_cast<std::uint8_t>(got.size() >>
                                                               16),
                                     acc};
  });
  server.register_rpc(2, "bulk-source", [sfab](const net::Message& msg)
                          -> Result<std::vector<std::uint8_t>> {
    std::vector<std::uint8_t> out(msg.bulk.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = static_cast<std::uint8_t>(i * 13 + 1);
    }
    GEKKO_RETURN_IF_ERROR(sfab->bulk_push(msg.bulk, 0, out));
    return std::vector<std::uint8_t>{};
  });

  auto client_fabric = net::make_fabric(*hostfile, {});
  ASSERT_TRUE(client_fabric.is_ok());
  rpc::Engine client(**client_fabric, {.name = "zc-client"});
  auto& segs = counter("writev_segments");
  // The response-frame increment happens on the server's sender thread
  // and may land just after the client consumed the reply; give it a
  // bounded moment.
  auto settled = [&](std::uint64_t floor) {
    return wait_for_increase(segs, floor);
  };

  // Write direction: the REQUEST frame gathers the client's exposed
  // read region.
  std::vector<std::uint8_t> data(kBulk);
  std::uint8_t expect_xor = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 31 + 5);
    expect_xor = static_cast<std::uint8_t>(expect_xor ^ data[i]);
  }
  const std::uint64_t before_write = segs.value();
  auto resp = client.forward(0, 1, {}, net::BulkRegion::expose_read(data));
  ASSERT_TRUE(resp.is_ok()) << resp.status().to_string();
  ASSERT_EQ(resp->size(), 2u);
  EXPECT_EQ((*resp)[0], kBulk >> 16);
  EXPECT_EQ((*resp)[1], expect_xor);
  EXPECT_GT(settled(before_write), before_write);

  // Read direction: the RESPONSE frame gathers the server's pushed
  // ranges into the client's exposed write region.
  std::vector<std::uint8_t> sink(kBulk, 0);
  const std::uint64_t before_read = segs.value();
  auto rr = client.forward(0, 2, {}, net::BulkRegion::expose_write(sink));
  ASSERT_TRUE(rr.is_ok()) << rr.status().to_string();
  EXPECT_GT(settled(before_read), before_read);
  for (std::size_t i = 0; i < sink.size(); ++i) {
    ASSERT_EQ(sink[i], static_cast<std::uint8_t>(i * 13 + 1)) << i;
  }

  // Control traffic (no bulk) must not count gathered segments.
  server.register_rpc(3, "noop", [](const net::Message&) {
    return Result<std::vector<std::uint8_t>>(std::vector<std::uint8_t>{1});
  });
  const std::uint64_t before_noop = segs.value();
  ASSERT_TRUE(client.forward(0, 3, {1, 2, 3}).is_ok());
  EXPECT_EQ(segs.value(), before_noop);
}

TEST_P(StreamFabricTest, FullStack) {
  // Two daemons and a client in one process, talking ONLY through the
  // stream fabric — the loopback fabric is not involved.
  auto hostfile = write_hosts(2);
  ASSERT_TRUE(hostfile.is_ok());

  std::vector<std::unique_ptr<net::HostedFabric>> daemon_fabrics;
  std::vector<std::unique_ptr<daemon::GekkoDaemon>> daemons;
  for (net::EndpointId id = 0; id < 2; ++id) {
    auto fabric = net::make_fabric(*hostfile, {.self_id = id});
    ASSERT_TRUE(fabric.is_ok()) << fabric.status().to_string();
    daemon::DaemonOptions dopts;
    dopts.chunk_size = 8192;
    dopts.kv_options.background_compaction = false;
    auto daemon = daemon::GekkoDaemon::start(
        **fabric, dir_ / ("node" + std::to_string(id)), dopts);
    ASSERT_TRUE(daemon.is_ok()) << daemon.status().to_string();
    daemon_fabrics.push_back(std::move(*fabric));
    daemons.push_back(std::move(*daemon));
  }

  auto client_fabric = net::make_fabric(*hostfile, {});
  ASSERT_TRUE(client_fabric.is_ok());
  client::ClientOptions copts;
  copts.chunk_size = 8192;
  fs::Mount mnt(**client_fabric, {0, 1}, copts);

  // Metadata + chunked data with inline bulk both directions.
  std::vector<std::uint8_t> data(30000);  // stripes across both daemons
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 7);
  }
  for (int i = 0; i < 4; ++i) {
    const std::string p = "/stack/file" + std::to_string(i);
    auto fd = mnt.open(p, fs::create | fs::rd_wr);
    ASSERT_TRUE(fd.is_ok()) << p << ": " << fd.status().to_string();
    auto written = mnt.pwrite(*fd, data, 0);
    ASSERT_TRUE(written.is_ok()) << written.status().to_string();
    EXPECT_EQ(*written, data.size());
    std::vector<std::uint8_t> back(data.size());
    auto n = mnt.pread(*fd, back, 0);
    ASSERT_TRUE(n.is_ok()) << n.status().to_string();
    EXPECT_EQ(back, data) << p;
    EXPECT_EQ(mnt.fstat(*fd)->size, data.size());
    ASSERT_TRUE(mnt.close(*fd).is_ok());
  }
  ASSERT_TRUE(mnt.unlink("/stack/file0").is_ok());
  auto stats = mnt.client().daemon_stats();
  ASSERT_TRUE(stats.is_ok());
  EXPECT_GT((*stats)[0].chunks_written + (*stats)[1].chunks_written, 0u);
  for (auto& d : daemons) d->shutdown();
}

TEST_P(StreamFabricTest, DaemonRestartRecovery) {
  // Tear the daemon (and its fabric, releasing the port or socket
  // path) down, restart on the same data root and address, and verify
  // the client's idempotent calls recover over a fresh dial.
  auto hostfile = write_hosts(1);
  ASSERT_TRUE(hostfile.is_ok());
  const auto root = dir_ / "node0";

  auto daemon_fabric = net::make_fabric(*hostfile, {.self_id = 0});
  ASSERT_TRUE(daemon_fabric.is_ok());
  daemon::DaemonOptions dopts;
  dopts.chunk_size = 4096;
  auto daemon = daemon::GekkoDaemon::start(**daemon_fabric, root, dopts);
  ASSERT_TRUE(daemon.is_ok()) << daemon.status().to_string();

  auto& dials = counter("dials");
  const std::uint64_t dials_before = dials.value();

  auto client_fabric = net::make_fabric(*hostfile, {});
  ASSERT_TRUE(client_fabric.is_ok());
  client::ClientOptions copts;
  copts.chunk_size = 4096;
  copts.rpc_options.rpc_timeout = std::chrono::milliseconds(300);
  copts.rpc_options.max_attempts = 6;
  copts.rpc_options.retry_backoff = std::chrono::milliseconds(50);
  fs::Mount mnt(**client_fabric, {0}, copts);

  std::vector<std::uint8_t> payload(10000);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 3);
  }
  auto fd = mnt.open("/restart-me", fs::create | fs::rd_wr);
  ASSERT_TRUE(fd.is_ok()) << fd.status().to_string();
  ASSERT_TRUE(mnt.pwrite(*fd, payload, 0).is_ok());
  ASSERT_TRUE(mnt.close(*fd).is_ok());

  (*daemon)->shutdown();
  daemon->reset();
  daemon_fabric->reset();  // releases the listen address

  auto fabric2 = net::make_fabric(*hostfile, {.self_id = 0});
  ASSERT_TRUE(fabric2.is_ok()) << fabric2.status().to_string();
  auto daemon2 = daemon::GekkoDaemon::start(**fabric2, root, dopts);
  ASSERT_TRUE(daemon2.is_ok()) << daemon2.status().to_string();

  auto st = mnt.stat("/restart-me");
  ASSERT_TRUE(st.is_ok()) << st.status().to_string();
  EXPECT_EQ(st->size, payload.size());

  auto fd2 = mnt.open("/restart-me", fs::rd_only);
  ASSERT_TRUE(fd2.is_ok()) << fd2.status().to_string();
  std::vector<std::uint8_t> back(payload.size());
  auto n = mnt.pread(*fd2, back, 0);
  ASSERT_TRUE(n.is_ok()) << n.status().to_string();
  EXPECT_EQ(back, payload);
  ASSERT_TRUE(mnt.close(*fd2).is_ok());
  // The event loop evicts the dead link on EOF, so the reconnect shows
  // up as a second fresh dial (redials only counts the cached-but-dead
  // race).
  EXPECT_GE(dials.value() - dials_before, 2u);
  (*daemon2)->shutdown();
}

TEST_P(StreamFabricTest, ManyClientsFanIn) {
  // A dozen client fabrics (each its own connection) hammering one
  // daemon-side engine concurrently: exercises accept via the event
  // loop, per-connection reassembly under interleaving, and reply
  // routing by (source, seq) across distinct client endpoint ids.
  auto hostfile = write_hosts(1);
  ASSERT_TRUE(hostfile.is_ok());
  auto server_fabric = net::make_fabric(*hostfile, {.self_id = 0});
  ASSERT_TRUE(server_fabric.is_ok());
  rpc::Engine server(**server_fabric, {.name = "fanin-server"});
  server.register_rpc(1, "echo", [](const net::Message& msg) {
    return Result<std::vector<std::uint8_t>>(msg.payload);
  });

  constexpr int kClients = 12;
  constexpr int kOpsPerClient = 40;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto fabric = net::make_fabric(*hostfile, {.event_loops = 1});
      if (!fabric) {
        failures.fetch_add(1);
        return;
      }
      rpc::Engine client(**fabric, {.name = "fanin-" + std::to_string(c)});
      for (int i = 0; i < kOpsPerClient; ++i) {
        const auto b = static_cast<std::uint8_t>(c * 16 + (i & 15));
        auto r = client.forward(0, 1, {b});
        if (!r.is_ok() || (*r)[0] != b) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST_P(StreamFabricTest, ListenerFailureRollsBackRegistration) {
  // The first registration fails (UDS: the socket dir does not exist;
  // TCP: another socket holds the port). After the cause is fixed, a
  // retry on the SAME fabric must see the listener start — not the
  // one-endpoint-per-fabric guard tripping on state the failed attempt
  // left behind.
  const auto hostfile = dir_ / "hosts.txt";
  int blocker = -1;
  if (family() == net::Transport::uds) {
    const auto missing = dir_ / "not-yet" / "d0.sock";
    ASSERT_TRUE(
        io::write_file_atomic(hostfile, "0 " + missing.string() + "\n")
            .is_ok());
  } else {
    std::string address;
    blocker = listen_raw(family(), dir_, &address);
    ASSERT_GE(blocker, 0);
    ASSERT_TRUE(
        io::write_file_atomic(hostfile, "0 " + address + "\n").is_ok());
  }
  auto fabric = net::make_fabric(hostfile, {.self_id = 0});
  ASSERT_TRUE(fabric.is_ok()) << fabric.status().to_string();

  EXPECT_EQ((*fabric)->register_endpoint([](net::Message) {}),
            net::kInvalidEndpoint);

  if (family() == net::Transport::uds) {
    ASSERT_TRUE(io::ensure_dir(dir_ / "not-yet").is_ok());
  } else {
    ::close(blocker);
  }
  EXPECT_EQ((*fabric)->register_endpoint([](net::Message) {}), 0u);
}

// --- hostile-peer / malformed-frame suite ------------------------------
//
// A fabric listener is reachable by anything that can open its socket;
// a malformed frame must kill ONLY the offending connection, never the
// listener and never another client's session.

class MalformedFrameTest : public StreamFabricTest {
 protected:
  // Server fabric + echo engine at id 0, listening on dir_'s hostfile.
  void start_server() {
    auto hostfile = write_hosts(1);
    ASSERT_TRUE(hostfile.is_ok());
    hostfile_ = *hostfile;
    auto fabric = net::make_fabric(hostfile_, {.self_id = 0});
    ASSERT_TRUE(fabric.is_ok());
    server_fabric_ = std::move(*fabric);
    server_ = std::make_unique<rpc::Engine>(
        *server_fabric_, rpc::EngineOptions{.name = "hostile-server"});
    server_->register_rpc(1, "echo", [](const net::Message& msg) {
      return Result<std::vector<std::uint8_t>>(msg.payload);
    });
  }

  // The listener must survive a hostile peer: a fresh, well-behaved
  // client still gets service afterwards.
  void expect_server_alive() {
    auto client_fabric = net::make_fabric(hostfile_, {});
    ASSERT_TRUE(client_fabric.is_ok());
    rpc::Engine client(**client_fabric,
                       rpc::EngineOptions{.name = "post-attack-client"});
    auto resp = client.forward(0, 1, {42});
    ASSERT_TRUE(resp.is_ok()) << resp.status().to_string();
    EXPECT_EQ((*resp)[0], 42);
  }

  void expect_frame_evicts(const std::vector<std::uint8_t>& frame) {
    auto& evictions = counter("evictions");
    const auto before = evictions.value();
    const int fd = dial_raw(address_of(hostfile_, 0));
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(send_all(fd, frame));
    EXPECT_GT(wait_for_increase(evictions, before), before)
        << "hostile frame did not evict the connection";
    ::close(fd);
    expect_server_alive();
  }

  std::filesystem::path hostfile_;
  std::unique_ptr<net::HostedFabric> server_fabric_;
  std::unique_ptr<rpc::Engine> server_;
};

INSTANTIATE_TEST_SUITE_P(Families, MalformedFrameTest,
                         ::testing::Values(net::Transport::uds,
                                           net::Transport::tcp),
                         family_name);

TEST_P(MalformedFrameTest, TruncatedBulkSectionEvictsPeer) {
  start_server();
  // Announces inline bulk data, then ends the frame before the byte
  // string: decode must fail as corruption, not read past the buffer.
  expect_frame_evicts(
      hostile_frame(net::MessageKind::request, 1, 0x40000001,
                    [](Encoder& e) { e.u8(net::wire::kBulkReadData); }));
}

TEST_P(MalformedFrameTest, TruncatedResponseRangeEvictsPeer) {
  start_server();
  // Claims 3 response ranges but carries only a partial first one.
  expect_frame_evicts(hostile_frame(net::MessageKind::response, 1,
                                    0x40000002, [](Encoder& e) {
                                      e.u8(net::wire::kBulkResponseData);
                                      e.varint(3);
                                      e.u64(0);  // offset, then no data
                                    }));
}

TEST_P(MalformedFrameTest, OversizedWritableSizeEvictsPeer) {
  start_server();
  // A writable-bulk announcement allocates a buffer on the RECEIVER;
  // a hostile 2^63-byte demand must be rejected before the allocation,
  // not tip the daemon over.
  expect_frame_evicts(hostile_frame(
      net::MessageKind::request, 1, 0x40000003, [](Encoder& e) {
        e.u8(net::wire::kBulkWritableSize);
        e.u64(std::uint64_t{1} << 63);
      }));
}

TEST_P(MalformedFrameTest, UnknownBulkModeEvictsPeer) {
  start_server();
  expect_frame_evicts(hostile_frame(net::MessageKind::request, 1, 0x40000004,
                                    [](Encoder& e) { e.u8(0xEE); }));
}

TEST_P(StreamFabricTest, WrappingResponseRangeEvictsHostileServer) {
  // Hand-rolled hostile "daemon": accepts the client's request and
  // replies with a response-data range whose offset sits just below
  // 2^64, so offset + len wraps past zero. An `off + len > size` bounds
  // check overflows and accepts it — memcpy would then scribble at
  // write_ptr() + (2^64 - 16). The overflow-safe check rejects the
  // range and kills the connection before a single byte lands.
  std::string address;
  const int lfd = listen_raw(family(), dir_, &address);
  ASSERT_GE(lfd, 0);
  const auto hostfile = dir_ / "hosts.txt";
  ASSERT_TRUE(io::write_file_atomic(hostfile, "0 " + address + "\n").is_ok());

  auto client_fabric = net::make_fabric(hostfile, {});
  ASSERT_TRUE(client_fabric.is_ok());
  rpc::Engine client(
      **client_fabric,
      rpc::EngineOptions{.rpc_timeout = std::chrono::milliseconds(2000),
                         .name = "wrap-victim"});

  auto& evictions = counter("evictions");
  const auto before = evictions.value();

  std::vector<std::uint8_t> sink(4096, 0);
  std::optional<Result<std::vector<std::uint8_t>>> resp;
  std::chrono::steady_clock::time_point answered;
  std::thread caller([&] {
    resp = client.forward(0, 7, {}, net::BulkRegion::expose_write(sink));
    answered = std::chrono::steady_clock::now();
  });

  const int cfd = ::accept(lfd, nullptr, nullptr);
  ASSERT_GE(cfd, 0);
  // Read the request to learn its seq, so the hostile response matches
  // the client's pending writable region.
  std::uint8_t len_buf[net::wire::kLenPrefixBytes];
  ASSERT_TRUE(recv_all(cfd, len_buf, sizeof(len_buf)));
  std::uint32_t req_len = 0;
  std::memcpy(&req_len, len_buf, sizeof(req_len));
  std::vector<std::uint8_t> req(req_len);
  ASSERT_TRUE(recv_all(cfd, req.data(), req.size()));
  std::uint64_t seq = 0;
  std::memcpy(&seq, req.data() + 3, sizeof(seq));  // [kind u8][rpc u16][seq]

  const auto sent = std::chrono::steady_clock::now();
  ASSERT_TRUE(send_all(
      cfd, hostile_frame(net::MessageKind::response, seq, 0,
                         [](Encoder& e) {
                           e.u8(net::wire::kBulkResponseData);
                           e.varint(1);
                           e.u64(~std::uint64_t{0} - 15);  // off + 32 wraps
                           e.str(std::string(32, 'X'));
                         })));

  caller.join();
  ASSERT_TRUE(resp.has_value());
  // The eviction fails the call at once: disconnected, long before the
  // 2 s rpc timeout.
  EXPECT_EQ(resp->code(), Errc::disconnected) << resp->status().to_string();
  EXPECT_LT(answered - sent, std::chrono::milliseconds(1000));
  EXPECT_GT(wait_for_increase(evictions, before), before);
  // No byte of the wrapping range may have landed anywhere in the
  // region (a partial apply would leave 'X' bytes behind).
  for (std::size_t i = 0; i < sink.size(); ++i) ASSERT_EQ(sink[i], 0u) << i;

  ::close(cfd);
  ::close(lfd);
}

TEST_P(StreamFabricTest, DeadConnectionFailsOnlyItsOwnCalls) {
  // Daemon 0 is a raw listener that accepts and then hangs up; daemon 1
  // is a real engine whose handler holds its call open. The hang-up
  // fails the call to daemon 0 with disconnected at once, and leaves
  // the call on daemon 1's connection alone.
  std::string address;
  const int lfd = listen_raw(family(), dir_, &address);
  ASSERT_GE(lfd, 0);
  std::string second = family() == net::Transport::tcp
                           ? "127.0.0.1:0"
                           : (dir_ / "d1.sock").string();
  if (family() == net::Transport::tcp) {
    const int probe = listen_raw(family(), dir_ / "probe", &second);
    ASSERT_GE(probe, 0);
    ::close(probe);  // a free port for daemon 1
  }
  const auto hostfile = dir_ / "hosts.txt";
  ASSERT_TRUE(io::write_file_atomic(hostfile, "0 " + address + "\n1 " +
                                                  second + "\n")
                  .is_ok());

  auto server_fabric = net::make_fabric(hostfile, {.self_id = 1});
  ASSERT_TRUE(server_fabric.is_ok()) << server_fabric.status().to_string();
  rpc::Engine server(**server_fabric, {.name = "held-server"});
  task::Latch release(1);
  server.register_rpc(1, "held", [&release](const net::Message& msg) {
    release.wait();
    return Result<std::vector<std::uint8_t>>(msg.payload);
  });

  auto client_fabric = net::make_fabric(hostfile, {});
  ASSERT_TRUE(client_fabric.is_ok());
  rpc::Engine client(**client_fabric,
                     {.rpc_timeout = std::chrono::milliseconds(5000),
                      .name = "two-links"});

  auto held = client.begin_forward(1, 1, {5});
  ASSERT_TRUE(held.send_status.is_ok());
  auto doomed = client.begin_forward(0, 1, {6});
  ASSERT_TRUE(doomed.send_status.is_ok());
  const int cfd = ::accept(lfd, nullptr, nullptr);
  ASSERT_GE(cfd, 0);
  const auto t0 = std::chrono::steady_clock::now();
  ::close(cfd);  // hang up with the request unanswered

  auto r0 = client.finish(doomed);
  EXPECT_EQ(r0.code(), Errc::disconnected) << r0.status().to_string();
  EXPECT_LT(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds(1000));

  release.count_down();
  auto r1 = client.finish(held);
  ASSERT_TRUE(r1.is_ok()) << r1.status().to_string();
  EXPECT_EQ(*r1, (std::vector<std::uint8_t>{5}));
  ::close(lfd);
}

TEST_P(StreamFabricTest, InlineRpcsPassABlockedPooledHandler) {
  // One connection, a one-thread handler pool held by a pooled call:
  // inline calls on the same connection still complete, on the server
  // fabric's single loop thread, never on the pool thread.
  auto hostfile = write_hosts(1);
  ASSERT_TRUE(hostfile.is_ok());
  auto server_fabric =
      net::make_fabric(*hostfile, {.self_id = 0, .event_loops = 1});
  ASSERT_TRUE(server_fabric.is_ok()) << server_fabric.status().to_string();
  rpc::Engine server(**server_fabric,
                     {.handler_threads = 1, .name = "mixed-server"});
  // Each handler's writes reach this thread through its response, so
  // the thread ids need no lock of their own.
  task::Latch release(1);
  std::thread::id pooled_thread;
  server.register_rpc(1, "held", [&](const net::Message&) {
    pooled_thread = std::this_thread::get_id();
    release.wait();
    return Result<std::vector<std::uint8_t>>(std::vector<std::uint8_t>{1});
  });
  std::vector<std::thread::id> inline_threads;
  server.register_rpc(2, "stat", rpc::Dispatch::inline_delivery,
                      [&](const net::Message& msg) {
                        inline_threads.push_back(std::this_thread::get_id());
                        return Result<std::vector<std::uint8_t>>(msg.payload);
                      });

  auto client_fabric = net::make_fabric(*hostfile, {});
  ASSERT_TRUE(client_fabric.is_ok());
  rpc::Engine client(**client_fabric,
                     {.rpc_timeout = std::chrono::milliseconds(3000),
                      .name = "mixed-client"});
  auto held = client.begin_forward(0, 1, {});
  ASSERT_TRUE(held.send_status.is_ok());
  for (std::uint8_t i = 0; i < 16; ++i) {
    auto r = client.forward(0, 2, {i});
    ASSERT_TRUE(r.is_ok()) << "i=" << int(i) << ": " << r.status().to_string();
    EXPECT_EQ((*r)[0], i);
  }
  release.count_down();
  ASSERT_TRUE(client.finish(held).is_ok());

  ASSERT_EQ(inline_threads.size(), 16u);
  for (const auto& t : inline_threads) {
    EXPECT_EQ(t, inline_threads[0]);  // the one loop thread
    EXPECT_NE(t, pooled_thread);
    EXPECT_NE(t, std::this_thread::get_id());
  }
}

// --- real daemon processes (fork + exec gkfsd) ------------------------
//
// Registered as the separate perf-only stream_fabric_fork_test ctest
// entry. The daemons are exec'd gkfsd binaries: a child that kept
// running this test's code would inherit locks held by the parent's
// fabric threads at fork time.

class ForkedDaemonTest : public StreamFabricTest {
 protected:
  void TearDown() override {
    // Also after a failed ASSERT: a live daemon would hold ctest's
    // output pipe open and hang the run.
    for (const pid_t pid : children_) reap(pid);
    StreamFabricTest::TearDown();
  }

  /// Start gkfsd serving hostfile entry `id` on `root`.
  pid_t spawn_daemon(const std::filesystem::path& hostfile,
                     net::EndpointId id, const std::filesystem::path& root,
                     std::uint32_t chunk_size) {
    const std::string id_str = std::to_string(id);
    const std::string chunk_str = std::to_string(chunk_size);
    const pid_t pid = ::fork();
    if (pid == 0) {
      ::execl(GKFSD_BIN, "gkfsd", hostfile.c_str(), id_str.c_str(),
              root.c_str(), chunk_str.c_str(), static_cast<char*>(nullptr));
      ::_exit(12);  // exec failed
    }
    if (pid > 0) children_.push_back(pid);
    return pid;
  }

  /// Poll until daemon `id` accepts connections.
  void wait_listening(const std::filesystem::path& hostfile,
                      net::EndpointId id) {
    const std::string address = address_of(hostfile, id);
    for (int i = 0; i < 250; ++i) {
      const int fd = dial_raw(address);
      if (fd >= 0) {
        ::close(fd);
        return;
      }
      ::usleep(20 * 1000);
    }
    FAIL() << "daemon " << id << " never listened on " << address;
  }

  /// SIGKILL + wait; no shutdown, so on-disk state is what a crash
  /// leaves.
  void reap(pid_t pid) {
    ::kill(pid, SIGKILL);
    int status = 0;
    ::waitpid(pid, &status, 0);
    std::erase(children_, pid);
  }

  std::vector<pid_t> children_;
};

INSTANTIATE_TEST_SUITE_P(Families, ForkedDaemonTest,
                         ::testing::Values(net::Transport::uds,
                                           net::Transport::tcp),
                         family_name);

TEST_P(ForkedDaemonTest, MultiProcessDaemons) {
  // The real thing: fork TWO gkfsd-style daemon processes, then run a
  // client in the parent against them.
  constexpr std::uint32_t kDaemons = 2;
  auto hostfile = write_hosts(kDaemons);
  ASSERT_TRUE(hostfile.is_ok());

  for (std::uint32_t id = 0; id < kDaemons; ++id) {
    ASSERT_GT(spawn_daemon(*hostfile, id,
                           dir_ / ("node" + std::to_string(id)), 8192),
              0);
  }
  for (std::uint32_t id = 0; id < kDaemons; ++id) {
    wait_listening(*hostfile, id);
  }

  {
    auto client_fabric = net::make_fabric(*hostfile, {});
    ASSERT_TRUE(client_fabric.is_ok());
    client::ClientOptions copts;
    copts.chunk_size = 8192;
    fs::Mount mnt(**client_fabric, {0, 1}, copts);

    // Spread files over both daemon processes.
    std::vector<std::uint8_t> payload(30000);
    for (std::size_t i = 0; i < payload.size(); ++i) {
      payload[i] = static_cast<std::uint8_t>(i);
    }
    for (int i = 0; i < 8; ++i) {
      const std::string p = "/mp/file" + std::to_string(i);
      auto fd = mnt.open(p, fs::create | fs::rd_wr);
      ASSERT_TRUE(fd.is_ok()) << p << ": " << fd.status().to_string();
      ASSERT_TRUE(mnt.pwrite(*fd, payload, 0).is_ok());
      std::vector<std::uint8_t> back(payload.size());
      auto n = mnt.pread(*fd, back, 0);
      ASSERT_TRUE(n.is_ok());
      EXPECT_EQ(back, payload) << p;
      ASSERT_TRUE(mnt.close(*fd).is_ok());
    }
    // Both daemon processes must actually hold state (wide striping).
    auto stats = mnt.client().daemon_stats();
    ASSERT_TRUE(stats.is_ok());
    ASSERT_EQ(stats->size(), kDaemons);
    EXPECT_GT((*stats)[0].chunks_written + (*stats)[1].chunks_written, 0u);
    EXPECT_GT((*stats)[0].metadata_entries + (*stats)[1].metadata_entries,
              0u);
  }
}

TEST_P(ForkedDaemonTest, DaemonRestartRecovery) {
  // Kill a daemon process out from under a live client, restart it on
  // the same data root, and verify the client's idempotent calls
  // (stat/read) recover transparently via reconnect + retry.
  auto hostfile = write_hosts(1);
  ASSERT_TRUE(hostfile.is_ok());
  const auto root = dir_ / "node0";

  const pid_t daemon_pid = spawn_daemon(*hostfile, 0, root, 4096);
  ASSERT_GT(daemon_pid, 0);
  wait_listening(*hostfile, 0);

  auto client_fabric = net::make_fabric(*hostfile, {});
  ASSERT_TRUE(client_fabric.is_ok());
  client::ClientOptions copts;
  copts.chunk_size = 4096;
  copts.rpc_options.rpc_timeout = std::chrono::milliseconds(300);
  copts.rpc_options.max_attempts = 6;
  copts.rpc_options.retry_backoff = std::chrono::milliseconds(50);
  fs::Mount mnt(**client_fabric, {0}, copts);

  std::vector<std::uint8_t> payload(10000);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 3);
  }
  auto fd = mnt.open("/restart-me", fs::create | fs::rd_wr);
  ASSERT_TRUE(fd.is_ok()) << fd.status().to_string();
  ASSERT_TRUE(mnt.pwrite(*fd, payload, 0).is_ok());
  ASSERT_TRUE(mnt.close(*fd).is_ok());

  // Hard-kill the daemon (no shutdown — state must persist on disk),
  // then restart it on the same root. A UDS daemon leaves its socket
  // file behind; the new one unlinks it before binding.
  reap(daemon_pid);
  ASSERT_GT(spawn_daemon(*hostfile, 0, root, 4096), 0);
  wait_listening(*hostfile, 0);

  // Same client, same (now-dead) cached connection: stat + read must
  // succeed via transparent reconnect, without remounting.
  auto st = mnt.stat("/restart-me");
  ASSERT_TRUE(st.is_ok()) << st.status().to_string();
  EXPECT_EQ(st->size, payload.size());

  auto fd2 = mnt.open("/restart-me", fs::rd_only);
  ASSERT_TRUE(fd2.is_ok()) << fd2.status().to_string();
  std::vector<std::uint8_t> back(payload.size());
  auto n = mnt.pread(*fd2, back, 0);
  ASSERT_TRUE(n.is_ok()) << n.status().to_string();
  EXPECT_EQ(*n, payload.size());
  EXPECT_EQ(back, payload);
  ASSERT_TRUE(mnt.close(*fd2).is_ok());
}

}  // namespace
}  // namespace gekko
