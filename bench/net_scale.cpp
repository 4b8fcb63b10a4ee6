// Connection-scaling benchmark for the TCP fabric's epoll engine:
// client-count sweep against two in-process daemons, all traffic over
// real TCP sockets, emitting BENCH_net_scale.json.
//
// Each client is its own thread with its OWN TcpFabric (one
// connection per daemon) and mount, hammering small metadata RPCs
// (stat) for a fixed window. The thing under test is the daemon-side
// event loop: N clients mean N concurrent connections multiplexed
// onto a fixed set of epoll loops — aggregate throughput must hold up
// as the connection count grows, since there is no thread-per-
// connection to scale with it.
//
// Acceptance gate: aggregate ops/s with 10x the clients stays within
// 20% of the peak across the sweep (>= 0.8 x peak). A transport that
// serializes badly on shared state or degrades per-connection as the
// fd set grows fails this.
//
//   net_scale [output.json]    (default: BENCH_net_scale.json)
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "client/client.h"
#include "common/metrics.h"
#include "daemon/daemon.h"
#include "fs/mount.h"
#include "net/transport.h"

using namespace gekko;

namespace {

constexpr std::uint32_t kDaemons = 2;
constexpr std::uint32_t kChunkSize = 64 * 1024;
constexpr auto kWindow = std::chrono::milliseconds(400);
constexpr int kWarmupOps = 16;

struct Point {
  std::uint32_t clients;
  double ops_per_sec;
};

Result<Point> run_point(const std::filesystem::path& hostfile,
                        std::uint32_t clients) {
  std::atomic<std::uint64_t> ops{0};
  std::atomic<std::uint64_t> failures{0};
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::atomic<std::uint32_t> ready{0};

  std::vector<std::thread> workers;
  workers.reserve(clients);
  for (std::uint32_t c = 0; c < clients; ++c) {
    workers.emplace_back([&, c] {
      net::MakeFabricOptions fopts;
      fopts.event_loops = 1;  // one loop thread per client fabric
      auto fabric = net::make_fabric(hostfile, fopts);
      if (!fabric) {
        failures.fetch_add(1);
        ready.fetch_add(1);
        return;
      }
      client::ClientOptions copts;
      copts.chunk_size = kChunkSize;
      fs::Mount mnt(**fabric, {0, 1}, copts);
      const std::string path = "/scale/f" + std::to_string(c % 4);
      for (int i = 0; i < kWarmupOps; ++i) {
        if (!mnt.stat(path).is_ok()) {
          failures.fetch_add(1);
          ready.fetch_add(1);
          return;
        }
      }
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      std::uint64_t local = 0;
      while (!stop.load(std::memory_order_acquire)) {
        if (!mnt.stat(path).is_ok()) {
          failures.fetch_add(1);
          break;
        }
        ++local;
      }
      ops.fetch_add(local);
    });
  }

  while (ready.load(std::memory_order_acquire) < clients) {
    std::this_thread::yield();
  }
  const auto t0 = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  std::this_thread::sleep_for(kWindow);
  stop.store(true, std::memory_order_release);
  for (auto& t : workers) t.join();
  const auto elapsed = std::chrono::steady_clock::now() - t0;

  if (failures.load() != 0) {
    return Status{Errc::io_error,
                  std::to_string(failures.load()) + " client(s) failed"};
  }
  Point p{clients, 0.0};
  p.ops_per_sec = static_cast<double>(ops.load()) /
                  std::chrono::duration<double>(elapsed).count();
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "BENCH_net_scale.json";
  bench::print_header(
      "NET SCALE — client-count sweep over the TCP fabric\n"
      "(2 daemons, one epoll-driven TcpFabric per side; gate: ops/s at\n"
      " 10x clients >= 0.8 x peak across the sweep)");

  const auto root = std::filesystem::temp_directory_path() /
                    ("gekko_net_scale_" + std::to_string(::getpid()));
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);

  auto hostfile =
      net::write_hostfile(root / "net", kDaemons, net::Transport::tcp);
  if (!hostfile) {
    std::fprintf(stderr, "hostfile: %s\n",
                 hostfile.status().to_string().c_str());
    return 1;
  }

  // Daemons: in-process, each on its own TCP fabric.
  std::vector<std::unique_ptr<net::HostedFabric>> daemon_fabrics;
  std::vector<std::unique_ptr<daemon::GekkoDaemon>> daemons;
  for (std::uint32_t i = 0; i < kDaemons; ++i) {
    net::MakeFabricOptions fopts;
    fopts.self_id = i;
    auto fabric = net::make_fabric(*hostfile, fopts);
    if (!fabric) {
      std::fprintf(stderr, "daemon fabric %u: %s\n", i,
                   fabric.status().to_string().c_str());
      return 1;
    }
    daemon_fabrics.push_back(std::move(*fabric));
    daemon::DaemonOptions dopts;
    dopts.chunk_size = kChunkSize;
    dopts.kv_options.background_compaction = false;
    auto d = daemon::GekkoDaemon::start(
        *daemon_fabrics.back(), root / ("node" + std::to_string(i)), dopts);
    if (!d) {
      std::fprintf(stderr, "daemon %u: %s\n", i,
                   d.status().to_string().c_str());
      return 1;
    }
    daemons.push_back(std::move(*d));
  }

  // Seed the files every client stats (striped across both daemons).
  {
    auto fabric = net::make_fabric(*hostfile, {});
    if (!fabric) return 1;
    client::ClientOptions copts;
    copts.chunk_size = kChunkSize;
    fs::Mount mnt(**fabric, {0, 1}, copts);
    for (int i = 0; i < 4; ++i) {
      auto fd = mnt.open("/scale/f" + std::to_string(i),
                         fs::create | fs::rd_wr);
      if (!fd || !mnt.close(*fd).is_ok()) {
        std::fprintf(stderr, "seed file %d failed\n", i);
        return 1;
      }
    }
  }

  const std::vector<std::uint32_t> client_grid = {1, 2, 4, 10};
  std::vector<Point> points;
  for (const auto clients : client_grid) {
    auto p = run_point(*hostfile, clients);
    if (!p) {
      std::fprintf(stderr, "point %u clients: %s\n", clients,
                   p.status().to_string().c_str());
      return 1;
    }
    points.push_back(*p);
  }

  std::printf("\n%10s %16s\n", "clients", "agg ops/s");
  double peak = 0.0;
  for (const auto& p : points) {
    std::printf("%10u %16s\n", p.clients,
                bench::human_rate(p.ops_per_sec).c_str());
    if (p.ops_per_sec > peak) peak = p.ops_per_sec;
  }

  const double at_max = points.back().ops_per_sec;
  const double ratio = at_max / peak;
  const bool gate_ok = ratio >= 0.8;
  std::printf("\n%u-client aggregate = %.2f x peak (gate: >= 0.80)\n",
              points.back().clients, ratio);

  auto& reg = metrics::Registry::global();
  const auto dials = reg.counter("net.tcp.dials").value();
  const auto frames = reg.counter("net.tcp.frames_in").value();

  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"net_scale\",\n  \"daemons\": %u,\n"
               "  \"window_ms\": %lld,\n  \"points\": [\n",
               kDaemons,
               static_cast<long long>(kWindow.count()));
  for (std::size_t i = 0; i < points.size(); ++i) {
    std::fprintf(f, "    {\"clients\": %u, \"ops_per_sec\": %.1f}%s\n",
                 points[i].clients, points[i].ops_per_sec,
                 i + 1 < points.size() ? "," : "");
  }
  std::fprintf(f,
               "  ],\n  \"tcp_dials\": %llu,\n  \"tcp_frames_in\": %llu,\n"
               "  \"scale_ratio_at_%u_clients\": %.3f,\n"
               "  \"gate_min_ratio\": 0.8,\n  \"gate_ok\": %s\n}\n",
               static_cast<unsigned long long>(dials),
               static_cast<unsigned long long>(frames),
               points.back().clients, ratio, gate_ok ? "true" : "false");
  std::fclose(f);
  std::printf("wrote %s (gate_ok=%s)\n", out_path,
              gate_ok ? "true" : "false");

  for (auto& d : daemons) d->shutdown();
  daemons.clear();
  daemon_fabrics.clear();
  std::filesystem::remove_all(root);
  return gate_ok ? 0 : 1;
}
