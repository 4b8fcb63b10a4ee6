// Shutdown-during-accept stress for the stream fabric, over both
// address families.
//
// Tears a listening fabric down while raw peers are mid-connect and
// mid-handshake, repeatedly. The races this shakes out: the epoll
// loop adopting a connection while shutdown_ snapshots the
// connection set; a half-read length prefix on a connection the
// teardown path closes; a dialer racing the listener's close. Run
// under TSan/ASan via the `sanitize` ctest label — the assertions here
// are weak on purpose (no crash, no hang, no leak); the sanitizers
// carry the real checks.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <charconv>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "net/transport.h"

namespace gekko {
namespace {

// Second whitespace-separated token of the hostfile's first line.
std::string hostfile_address(const std::filesystem::path& hostfile) {
  std::ifstream in(hostfile);
  std::string id, addr;
  in >> id >> addr;
  return addr;
}

int dial_raw(const std::string& addr) {
  if (addr.find('/') != std::string::npos) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    sockaddr_un sa{};
    sa.sun_family = AF_UNIX;
    std::strncpy(sa.sun_path, addr.c_str(), sizeof(sa.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
      ::close(fd);
      return -1;
    }
    return fd;
  }
  const auto colon = addr.rfind(':');
  const std::string host = addr.substr(0, colon);
  std::uint16_t port = 0;
  std::from_chars(addr.data() + colon + 1, addr.data() + addr.size(), port);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(port);
  ::inet_pton(AF_INET, host.c_str(), &sa.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

void run_shutdown_stress(net::Transport transport) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("gekko_netstress_" + std::to_string(::getpid()) + "_" +
                    std::to_string(static_cast<int>(transport)));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  auto hostfile = net::write_hostfile(dir, 1, transport);
  ASSERT_TRUE(hostfile.is_ok()) << hostfile.status().to_string();
  const std::string addr = hostfile_address(*hostfile);
  ASSERT_FALSE(addr.empty());

  constexpr int kIterations = 12;
  constexpr int kDialers = 3;
  for (int iter = 0; iter < kIterations; ++iter) {
    net::MakeFabricOptions fopts;
    fopts.self_id = 0;
    fopts.transport = transport;
    auto fabric = net::make_fabric(*hostfile, fopts);
    ASSERT_TRUE(fabric.is_ok()) << fabric.status().to_string();
    ASSERT_EQ((*fabric)->register_endpoint([](net::Message) {}), 0u);

    std::atomic<bool> stop{false};
    std::vector<std::thread> dialers;
    dialers.reserve(kDialers);
    for (int d = 0; d < kDialers; ++d) {
      dialers.emplace_back([&stop, &addr, d] {
        while (!stop.load(std::memory_order_acquire)) {
          const int fd = dial_raw(addr);
          if (fd < 0) continue;
          // Leave the peer mid-handshake in rotating states: nothing
          // sent, a partial length prefix, or a length with no body.
          const std::uint8_t partial[4] = {64, 0, 0, 0};
          if (d % 3 == 1) {
            (void)::send(fd, partial, 2, MSG_NOSIGNAL);
          } else if (d % 3 == 2) {
            (void)::send(fd, partial, sizeof(partial), MSG_NOSIGNAL);
          }
          ::close(fd);
          // Throttle: the point is connects IN FLIGHT at teardown, not
          // maximal churn — unthrottled dialers on one core swamp the
          // accept path and stretch the test badly under sanitizers.
          ::usleep(200);
        }
      });
    }
    // Vary how long the accept side runs before the rug-pull so the
    // teardown lands at different handshake phases across iterations.
    ::usleep(1000 + 700 * (iter % 5));
    fabric->reset();  // shutdown while dialers are mid-connect
    stop.store(true, std::memory_order_release);
    for (auto& t : dialers) t.join();
  }
  std::filesystem::remove_all(dir);
}

TEST(NetStressTest, ShutdownDuringAcceptUds) {
  run_shutdown_stress(net::Transport::uds);
}

TEST(NetStressTest, ShutdownDuringAcceptTcp) {
  run_shutdown_stress(net::Transport::tcp);
}

}  // namespace
}  // namespace gekko
