#include "net/transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstring>

#include "common/fileio.h"
#include "net/address.h"
#include "net/tcp_fabric.h"

namespace gekko::net {

Result<Transport> parse_transport(std::string_view name) {
  if (name == "auto") return Transport::autodetect;
  if (name == "uds") return Transport::uds;
  if (name == "tcp") return Transport::tcp;
  return Status{Errc::invalid_argument,
                "unknown transport (want auto|uds|tcp): " + std::string(name)};
}

const char* transport_name(Transport t) noexcept {
  switch (t) {
    case Transport::autodetect:
      return "auto";
    case Transport::uds:
      return "uds";
    case Transport::tcp:
      return "tcp";
  }
  return "?";
}

bool looks_like_tcp_address(std::string_view address) {
  if (address.find('/') != std::string_view::npos) return false;
  const auto colon = address.rfind(':');
  if (colon == std::string_view::npos || colon == 0 ||
      colon + 1 == address.size()) {
    return false;
  }
  const std::string_view port = address.substr(colon + 1);
  std::uint16_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(port.data(), port.data() + port.size(), value);
  return ec == std::errc{} && ptr == port.data() + port.size();
}

Result<std::map<EndpointId, std::string>> parse_hostfile(
    const std::string& content) {
  std::map<EndpointId, std::string> hosts;
  std::size_t pos = 0;
  while (pos < content.size()) {
    std::size_t eol = content.find('\n', pos);
    if (eol == std::string::npos) eol = content.size();
    const std::string line = content.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line[0] == '#') continue;
    const auto space = line.find(' ');
    if (space == std::string::npos) {
      return Status{Errc::invalid_argument, "bad hostfile line: " + line};
    }
    // from_chars, not stoul: a Result-returning factory must not throw
    // on garbage or out-of-range ids.
    EndpointId id = 0;
    const char* first = line.data();
    const char* last = first + space;
    const auto [ptr, ec] = std::from_chars(first, last, id);
    if (ec != std::errc() || ptr != last) {
      return Status{Errc::invalid_argument, "bad hostfile id: " + line};
    }
    if (id >= kClientEndpointBase) {
      return Status{Errc::invalid_argument,
                    "hostfile id in client id-space: " + line};
    }
    hosts[id] = line.substr(space + 1);
  }
  if (hosts.empty()) {
    return Status{Errc::invalid_argument, "empty hostfile"};
  }
  return hosts;
}

Result<std::unique_ptr<HostedFabric>> make_fabric(
    const std::filesystem::path& hostfile, const MakeFabricOptions& options) {
  auto fabric = TcpFabric::create(hostfile, options);
  if (!fabric) return fabric.status();
  return std::unique_ptr<HostedFabric>(std::move(*fabric));
}

namespace {

/// "<i> 127.0.0.1:<port>" lines for `n` currently free ports. Every
/// probe socket stays open until ALL ports are picked so the kernel
/// cannot hand the same port out twice.
Result<std::string> free_tcp_hosts(std::uint32_t n) {
  std::vector<int> probes;
  std::string content;
  Status st = Status::ok();
  for (std::uint32_t i = 0; i < n && st.is_ok(); ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      st = Status{Errc::io_error, "socket()"};
      break;
    }
    probes.push_back(fd);
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    sa.sin_port = 0;
    socklen_t len = sizeof(sa);
    if (::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0 ||
        ::getsockname(fd, reinterpret_cast<sockaddr*>(&sa), &len) != 0) {
      st = Status{Errc::io_error,
                  std::string("port probe: ") + std::strerror(errno)};
      break;
    }
    content += std::to_string(i) + " 127.0.0.1:" +
               std::to_string(ntohs(sa.sin_port)) + "\n";
  }
  for (const int fd : probes) ::close(fd);
  if (!st.is_ok()) return st;
  return content;
}

}  // namespace

Result<std::filesystem::path> write_hostfile(const std::filesystem::path& dir,
                                             std::uint32_t n,
                                             Transport transport) {
  GEKKO_RETURN_IF_ERROR(io::ensure_dir(dir));
  std::string content;
  std::filesystem::path path;
  switch (transport) {
    case Transport::uds:
      for (std::uint32_t i = 0; i < n; ++i) {
        content += std::to_string(i) + " " +
                   (dir / ("gkfsd." + std::to_string(i) + ".sock")).string() +
                   "\n";
      }
      path = dir / "hosts.txt";
      break;
    case Transport::tcp: {
      auto hosts = free_tcp_hosts(n);
      if (!hosts) return hosts.status();
      content = std::move(*hosts);
      path = dir / "tcp_hosts.txt";
      break;
    }
    case Transport::autodetect:
      return Status{Errc::invalid_argument,
                    "write_hostfile needs an explicit transport"};
  }
  GEKKO_RETURN_IF_ERROR(io::write_file_atomic(path, content));
  return path;
}

}  // namespace gekko::net
