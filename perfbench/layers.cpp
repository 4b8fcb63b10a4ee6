// Per-layer measurement for the traced run. Two sources, neither of
// which adds instrumentation to the program:
//  - deltas of the counters, histograms and backend stats the stack
//    already records, read before and after the traced run's pass;
//  - drives that time calls into one layer's public functions from
//    here, shaped like the workload (fabric, thread count, key stream,
//    slice sizes).
#include <algorithm>
#include <cstring>
#include <thread>

#include "daemon/metadata_merge.h"
#include "net/socket_fabric.h"
#include "net/tcp_fabric.h"
#include "net/transport.h"
#include "perfbench.h"

namespace perfbench {

using gekko::LatencyHistogram;
using gekko::metrics::now_ns;

namespace {

double us(double ns) { return ns / 1000.0; }

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Merged delta of every histogram whose name starts with `prefix` and
/// ends with `suffix`.
LatencyHistogram histogram_delta(const StackSample& a, const StackSample& b,
                                 std::string_view prefix,
                                 std::string_view suffix) {
  std::array<std::uint64_t, LatencyHistogram::kBuckets> buckets{};
  std::uint64_t sum = 0;
  for (const auto& [name, hb] : b.histograms) {
    if (!name.starts_with(prefix) || !name.ends_with(suffix) ||
        name.size() < prefix.size() + suffix.size()) {
      continue;
    }
    const auto it = a.histograms.find(name);
    for (std::size_t i = 0; i < buckets.size(); ++i) {
      buckets[i] += hb.bucket_count(i) -
                    (it == a.histograms.end() ? 0 : it->second.bucket_count(i));
    }
    sum += hb.sum() - (it == a.histograms.end() ? 0 : it->second.sum());
  }
  LatencyHistogram h;
  h.load(buckets, sum);
  return h;
}

double p50_us(const LatencyHistogram& h) {
  return h.count() ? us(double(h.quantile(0.5))) : 0.0;
}

double counter_delta(const StackSample& a, const StackSample& b,
                     std::string_view name) {
  return double(b.snapshot.counter_or(name) - a.snapshot.counter_or(name));
}

template <typename Stats, typename F>
double summed_delta(const std::vector<Stats>& a, const std::vector<Stats>& b,
                    F field) {
  double d = 0;
  for (std::size_t i = 0; i < b.size() && i < a.size(); ++i) {
    d += double(field(b[i]) - field(a[i]));
  }
  return d;
}

/// Times one call and keeps its span.
template <typename F>
bool timed_call(const char* name, std::vector<std::uint64_t>& lat,
                std::vector<Span>& spans, std::uint32_t thread, F&& call) {
  const std::uint64_t t0 = now_ns();
  const bool ok = call();
  const std::uint64_t dt = now_ns() - t0;
  lat.push_back(dt);
  spans.push_back(Span{name, spans.size() + 1, thread, t0, dt});
  return ok;
}

double p50_us(const std::vector<std::uint64_t>& lat) {
  return us(percentile(lat, 0.5));
}

}  // namespace

StackSample sample_stack(gekko::cluster::Cluster& cluster) {
  StackSample s;
  auto& registry = gekko::metrics::Registry::global();
  s.snapshot = registry.snapshot();
  s.histograms = registry.histograms_full();
  for (std::uint32_t i = 0; i < cluster.node_count(); ++i) {
    s.kv.push_back(cluster.daemon(i).metadata().db().stats());
    s.storage.push_back(cluster.daemon(i).data().stats());
  }
  return s;
}

void add_stack_metrics(const Workload& w, const StackSample& a,
                       const StackSample& b, const PassResult& pass,
                       Metrics& out) {
  const double ops = double(pass.attempted);
  const auto count = [&](Op op) {
    return double(pass.count[static_cast<std::size_t>(op)]);
  };

  // client: the benchmark's span around every fs::Mount call.
  for (std::size_t i = 0; i < kOps; ++i) {
    const auto& lat = pass.timings[kTraced].latency_ns[i];
    const std::string base = std::string("client.") + kOpNames[i];
    out[base + "_p50_us"] = {us(percentile(lat, 0.50)), "us"};
    out[base + "_p99_us"] = {us(percentile(lat, 0.99)), "us"};
  }
  out["client.rpcs_per_op"] = {
      ratio(counter_delta(a, b, "client.rpcs_sent"), ops), "1/op"};
  out["client.size_updates_per_write"] = {
      ratio(counter_delta(a, b, "client.size_updates.sent"),
            count(Op::write)),
      "1/op"};

  // rpc, in the stack: every handler's queueing and service time.
  out["rpc.queue_p50_us"] = {
      p50_us(histogram_delta(a, b, "rpc.handler.", ".queue")), "us"};
  out["rpc.handler_p50_us"] = {
      p50_us(histogram_delta(a, b, "rpc.handler.", ".latency")), "us"};
  out["rpc.retries"] = {counter_delta(a, b, "rpc.retries"), "count"};
  out["rpc.timeouts"] = {counter_delta(a, b, "rpc.timeouts"), "count"};

  // net: both directions of every connection, per client op.
  double frames = 0;
  double bytes = 0;
  double coalesced = 0;
  switch (w.transport) {
    case gekko::cluster::ClusterTransport::tcp:
      frames = counter_delta(a, b, "net.tcp.frames_out");
      bytes = counter_delta(a, b, "net.tcp.bytes_out");
      coalesced = ratio(counter_delta(a, b, "net.tcp.coalesced_frames"),
                        counter_delta(a, b, "net.tcp.flushes"));
      break;
    case gekko::cluster::ClusterTransport::uds:
      frames = counter_delta(a, b, "net.socket.frames_out");
      bytes = counter_delta(a, b, "net.socket.bytes_out");
      break;
    case gekko::cluster::ClusterTransport::loopback:
      frames = counter_delta(a, b, "net.loopback.messages");
      bytes = counter_delta(a, b, "net.loopback.payload_bytes") +
              counter_delta(a, b, "net.loopback.bulk_pulled_bytes") +
              counter_delta(a, b, "net.loopback.bulk_pushed_bytes");
      break;
  }
  out["net.frames_per_op"] = {ratio(frames, ops), "1/op"};
  out["net.bytes_per_op"] = {ratio(bytes, ops), "B/op"};
  out["net.tcp.coalesced_per_flush"] = {coalesced, "1/flush"};

  // daemon: pure service time of each handler against kv/storage.
  const std::pair<const char*, const char*> daemon_ops[] = {
      {"create", "create"},
      {"stat", "stat"},
      {"remove", "remove_metadata"},
      {"write_chunks", "write_chunks"},
      {"read_chunks", "read_chunks"},
      {"update_size", "update_size"}};
  for (const auto& [metric, rpc] : daemon_ops) {
    out[std::string("daemon.") + metric + "_service_p50_us"] = {
        p50_us(histogram_delta(a, b, std::string("daemon.") + rpc + ".latency",
                               "")),
        "us"};
  }

  // task: the daemons' chunk-io pool.
  out["task.io_queue_p50_us"] = {
      p50_us(histogram_delta(a, b, "daemon.io.queue", "")), "us"};
  out["task.io_service_p50_us"] = {
      p50_us(histogram_delta(a, b, "daemon.io.service", "")), "us"};

  // kv, in the stack: both daemons' stores.
  out["kv.wal_appends_per_op"] = {
      ratio(summed_delta(a.kv, b.kv, [](auto& s) { return s.wal_appends; }),
            ops),
      "1/op"};
  out["kv.flushes"] = {
      summed_delta(a.kv, b.kv, [](auto& s) { return s.flushes; }), "count"};
  out["kv.compact_bytes_per_user_byte"] = {
      ratio(summed_delta(a.kv, b.kv,
                         [](auto& s) { return s.compact_bytes_out; }),
            double(pass.kv_user_bytes)),
      "B/B"};
  out["kv.stall_ms"] = {
      summed_delta(a.kv, b.kv,
                   [](auto& s) {
                     return s.stall_foreground_ms + s.stall_slowdown_ms;
                   }),
      "ms"};
  // Size-update operands per file key; every read of that file folds
  // all of them.
  out["workload.merge_operands_per_read"] = {
      ratio(summed_delta(a.kv, b.kv, [](auto& s) { return s.merges; }),
            count(Op::create)),
      "1/op"};

  // storage, in the stack.
  const double hits = summed_delta(a.storage, b.storage,
                                   [](auto& s) { return s.fd_cache_hits; });
  const double misses = summed_delta(
      a.storage, b.storage, [](auto& s) { return s.fd_cache_misses; });
  out["storage.fd_cache_hit_ratio"] = {ratio(hits, hits + misses), "ratio"};
  out["storage.bytes_per_user_byte"] = {
      ratio(summed_delta(a.storage, b.storage,
                         [](auto& s) { return s.bytes_written; }),
            double(pass.bytes_written)),
      "B/B"};
}

DriveCount drive_rpc(const Workload& w, const std::filesystem::path& dir,
                     double seconds, Metrics& out, std::vector<Span>& spans) {
  constexpr std::uint16_t kEcho = 1;
  constexpr std::uint16_t kEchoBulk = 2;
  DriveCount n;
  // Own registry: the echo engines stay out of the stack's metrics.
  gekko::metrics::Registry registry;
  gekko::net::LoopbackFabric loopback;
  std::unique_ptr<gekko::net::HostedFabric> server_fabric;
  std::unique_ptr<gekko::net::HostedFabric> client_fabric;
  gekko::net::Fabric* sf = &loopback;
  gekko::net::Fabric* cf = &loopback;
  if (w.transport != gekko::cluster::ClusterTransport::loopback) {
    auto hostfile =
        w.transport == gekko::cluster::ClusterTransport::tcp
            ? gekko::net::TcpFabric::write_hostfile(dir / "net", 1)
            : gekko::net::SocketFabric::write_hostfile(dir / "net", 1);
    if (!hostfile) {
      std::fprintf(stderr, "rpc drive: %s\n",
                   hostfile.status().to_string().c_str());
      return {1, 1};
    }
    gekko::net::MakeFabricOptions serve;
    serve.self_id = 0;
    auto s = gekko::net::make_fabric(*hostfile, serve);
    auto c = gekko::net::make_fabric(*hostfile, {});
    if (!s || !c) {
      std::fprintf(stderr, "rpc drive: fabric setup failed\n");
      return {1, 1};
    }
    server_fabric = std::move(*s);
    client_fabric = std::move(*c);
    sf = server_fabric.get();
    cf = client_fabric.get();
  }

  gekko::rpc::EngineOptions so;
  so.handler_threads = gekko::daemon::DaemonOptions{}.handler_threads;
  so.registry = &registry;
  so.start_paused = true;
  so.name = "echo-server";
  gekko::rpc::Engine server(*sf, so);
  server.register_rpc(kEcho, "echo", [](const gekko::net::Message& m)
                          -> gekko::Result<std::vector<std::uint8_t>> {
    return m.payload;
  });
  server.register_rpc(kEchoBulk, "echo_bulk",
                      [&server](const gekko::net::Message& m)
                          -> gekko::Result<std::vector<std::uint8_t>> {
                        thread_local std::vector<std::uint8_t> buf;
                        buf.resize(m.bulk.size());
                        GEKKO_RETURN_IF_ERROR(
                            server.fabric().bulk_pull(m.bulk, 0, buf));
                        return std::vector<std::uint8_t>(8);
                      });
  server.start();
  const gekko::net::EndpointId dest =
      server_fabric ? gekko::net::EndpointId{0} : server.endpoint();

  gekko::rpc::EngineOptions co;
  co.registry = &registry;
  co.name = "echo-client";
  gekko::rpc::Engine client(*cf, co);

  // Bulk echo moves one transfer of the workload; the metadata-only
  // workload uses a page.
  const std::size_t bulk_bytes = w.transfer_bytes ? w.transfer_bytes : 4096;
  const std::vector<std::uint8_t> bulk_src(bulk_bytes, 0x5a);
  struct PerThread {
    std::vector<std::uint64_t> small, bulk;
    std::vector<Span> spans;
    std::uint64_t attempted = 0, failed = 0;
  };
  std::vector<PerThread> per(kThreads);
  auto phase = [&](bool bulk, double budget) {
    std::vector<std::thread> threads;
    const std::uint64_t end = now_ns() + std::uint64_t(budget * 1e9);
    for (unsigned t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        PerThread& p = per[t];
        const std::vector<std::uint8_t> small(32, std::uint8_t(t));
        while (now_ns() < end) {
          ++p.attempted;
          const bool ok = timed_call(
              bulk ? "rpc.echo_bulk" : "rpc.echo", bulk ? p.bulk : p.small,
              p.spans, t, [&] {
                auto r = bulk ? client.forward(
                                    dest, kEchoBulk, small,
                                    gekko::net::BulkRegion::expose_read(
                                        bulk_src))
                              : client.forward(dest, kEcho, small);
                return r.is_ok() && (bulk ? r->size() == 8 : *r == small);
              });
          if (!ok) ++p.failed;
        }
      });
    }
    for (auto& th : threads) th.join();
  };
  phase(false, seconds / 2);
  phase(true, seconds / 2);
  client.shutdown();
  server.shutdown();

  std::vector<std::uint64_t> small, bulk;
  for (auto& p : per) {
    small.insert(small.end(), p.small.begin(), p.small.end());
    bulk.insert(bulk.end(), p.bulk.begin(), p.bulk.end());
    spans.insert(spans.end(), p.spans.begin(), p.spans.end());
    n.attempted += p.attempted;
    n.failed += p.failed;
  }
  out["rpc.rtt_p50_us"] = {us(percentile(small, 0.50)), "us"};
  out["rpc.rtt_p99_us"] = {us(percentile(small, 0.99)), "us"};
  out["rpc.rtt_bulk_p50_us"] = {us(percentile(bulk, 0.50)), "us"};
  return n;
}

DriveCount drive_kv(const Workload& w, const std::filesystem::path& dir,
                    std::uint64_t seed, double seconds, Metrics& out,
                    std::vector<Span>& spans) {
  DriveCount n;
  auto backend = gekko::daemon::MetadataBackend::open(
      dir / "kv", gekko::daemon::DaemonOptions{}.kv_options);
  if (!backend) {
    std::fprintf(stderr, "kv drive: %s\n",
                 backend.status().to_string().c_str());
    return {1, 1};
  }
  gekko::kv::DB& db = (*backend)->db();
  const std::string value = gekko::proto::Metadata{}.encode();
  std::vector<std::uint64_t> put, get, merge, folded, erase;
  auto check = [&](bool ok) {
    ++n.attempted;
    if (!ok) ++n.failed;
  };
  // The workload's key stream: its file names, each carrying as many
  // size-update operands as one file's key holds by its last read.
  const std::uint64_t end = now_ns() + std::uint64_t(seconds * 1e9);
  const std::string stem =
      base_dir(w) + "/" + std::to_string(seed) + "-kv-";
  for (std::uint64_t round = 0; now_ns() < end; ++round) {
    for (std::uint32_t i = 0; i < w.files_per_cycle; ++i) {
      const std::string key =
          stem + std::to_string(round) + "-" + std::to_string(i);
      check(timed_call("kv.put", put, spans, 0,
                       [&] { return db.insert(key, value).is_ok(); }));
      check(timed_call("kv.get", get, spans, 0, [&] {
        auto v = db.get(key);
        return v.is_ok() && *v == value;
      }));
      for (std::uint32_t m = 0; m < merge_chain(w); ++m) {
        const std::string operand = gekko::daemon::encode_size_operand(
            gekko::daemon::SizeOp::grow_to,
            std::uint64_t{m % w.writes_per_file + 1} * w.transfer_bytes, 0);
        check(timed_call("kv.merge", merge, spans, 0,
                         [&] { return db.merge(key, operand).is_ok(); }));
      }
      check(timed_call("kv.get_folded", folded, spans, 0, [&] {
        auto v = db.get(key);
        if (!v) return false;
        auto md = gekko::proto::Metadata::decode(*v);
        return md.is_ok() &&
               md->size == std::uint64_t{w.writes_per_file} * w.transfer_bytes;
      }));
      check(timed_call("kv.erase", erase, spans, 0,
                       [&] { return db.remove_existing(key).is_ok(); }));
    }
  }
  out["kv.put_p50_us"] = {p50_us(put), "us"};
  out["kv.get_p50_us"] = {p50_us(get), "us"};
  out["kv.merge_p50_us"] = {p50_us(merge), "us"};
  out["kv.get_folded_p50_us"] = {p50_us(folded), "us"};
  out["kv.erase_p50_us"] = {p50_us(erase), "us"};
  return n;
}

DriveCount drive_storage(const Workload& w, const std::filesystem::path& dir,
                         std::uint64_t seed,
                         std::span<const std::uint8_t> payload,
                         double seconds, Metrics& out,
                         std::vector<Span>& spans) {
  DriveCount n;
  std::vector<std::uint64_t> wr, rd;
  if (w.transfer_bytes > 0) {
    auto cs = gekko::storage::ChunkStorage::open(
        dir / "chunks", kChunkSize,
        {gekko::daemon::DaemonOptions{}.fd_cache_capacity});
    if (!cs) {
      std::fprintf(stderr, "storage drive: %s\n",
                   cs.status().to_string().c_str());
      return {1, 1};
    }
    // One daemon's share of a cycle: the same slice size, working set
    // and (for the shuffled workload) order.
    const std::uint32_t slice = std::min(w.transfer_bytes, kChunkSize);
    const std::uint64_t slices = std::uint64_t{w.files_per_cycle} *
                                 w.writes_per_file * w.transfer_bytes /
                                 slice / kDaemons;
    std::vector<std::uint64_t> order(slices);
    for (std::uint64_t i = 0; i < slices; ++i) order[i] = i;
    if (w.shuffled) shuffle(order, seed);
    std::vector<std::uint8_t> buf(slice);
    // Where the bytes of the slice at `off` come from in the payload.
    auto source = [&](std::uint64_t off) {
      return payload.subspan(off % (payload.size() - slice) / 8 * 8, slice);
    };
    auto check = [&](bool ok) {
      ++n.attempted;
      if (!ok) ++n.failed;
    };
    const std::uint64_t end = now_ns() + std::uint64_t(seconds * 1e9);
    for (std::uint64_t round = 0; now_ns() < end; ++round) {
      // Rounds reuse one path for a generation, as the workload does.
      const std::string path =
          base_dir(w) + "/" + std::to_string(seed) + "-st-" +
          std::to_string(round / w.generation_cycles);
      for (const std::uint64_t s : order) {
        const std::uint64_t off = s * slice;
        check(timed_call("storage.write_chunk", wr, spans, 0, [&] {
          return cs->write_chunk(path, off / kChunkSize,
                                 std::uint32_t(off % kChunkSize), source(off))
              .is_ok();
        }));
      }
      for (const std::uint64_t s : order) {
        const std::uint64_t off = s * slice;
        bool ok = timed_call("storage.read_chunk", rd, spans, 0, [&] {
          auto r = cs->read_chunk(path, off / kChunkSize,
                                  std::uint32_t(off % kChunkSize), buf);
          return r.is_ok() && *r == slice;
        });
        check(ok && std::memcmp(buf.data(), source(off).data(), slice) == 0);
      }
      if ((round + 1) % w.generation_cycles == 0) {
        check(cs->remove_all(path).is_ok());
      }
    }
  }
  out["storage.write_chunk_p50_us"] = {p50_us(wr), "us"};
  out["storage.read_chunk_p50_us"] = {p50_us(rd), "us"};
  return n;
}

}  // namespace perfbench
