// Deterministic fault-injection tests for the transport failure
// semantics: retry/backoff for idempotent rpcs, cancellation of
// timed-out writable bulk, connection kills with transparent
// reconnect, duplicate delivery, and send-side frame validation.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <thread>

#include "common/metrics.h"
#include "net/transport.h"
#include "rpc/engine.h"

namespace gekko {
namespace {

using namespace std::chrono_literals;
using net::CallbackFaultInjector;
using net::FaultAction;

constexpr std::uint16_t kEchoRpc = 1;
constexpr std::uint16_t kFillRpc = 2;

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("gekko_fault_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    auto hostfile = net::write_hostfile(dir_, 1, net::Transport::uds);
    ASSERT_TRUE(hostfile.is_ok());
    hostfile_ = *hostfile;

    auto sf = net::make_fabric(hostfile_, {.self_id = 0});
    ASSERT_TRUE(sf.is_ok()) << sf.status().to_string();
    server_fabric_ = std::move(*sf);
    server_ = std::make_unique<rpc::Engine>(
        *server_fabric_, rpc::EngineOptions{.name = "flt-server"});
    ASSERT_EQ(server_->endpoint(), 0u);
    server_->register_rpc(kEchoRpc, "echo", [](const net::Message& msg) {
      return Result<std::vector<std::uint8_t>>(msg.payload);
    });
    server_->register_rpc(kFillRpc, "fill", [this](const net::Message& msg) {
      std::vector<std::uint8_t> data(msg.bulk.size(), 0x5a);
      (void)server_fabric_->bulk_push(msg.bulk, 0, data);
      return Result<std::vector<std::uint8_t>>(std::vector<std::uint8_t>{});
    });
  }

  void TearDown() override {
    server_.reset();
    server_fabric_.reset();
    client_.reset();
    client_fabric_.reset();
    std::filesystem::remove_all(dir_);
  }

  void make_client(rpc::EngineOptions opts,
                   net::MakeFabricOptions fopts = {}) {
    auto cf = net::make_fabric(hostfile_, fopts);
    ASSERT_TRUE(cf.is_ok()) << cf.status().to_string();
    client_fabric_ = std::move(*cf);
    opts.name = "flt-client";
    client_ = std::make_unique<rpc::Engine>(*client_fabric_, opts);
  }

  std::filesystem::path dir_;
  std::filesystem::path hostfile_;
  // Isolated metric sink for tests that assert exact counter values.
  // A member (not a test local) so it outlives the engines TearDown
  // destroys — they hold cached references into it.
  metrics::Registry registry_;
  std::unique_ptr<net::HostedFabric> server_fabric_;
  std::unique_ptr<rpc::Engine> server_;
  std::unique_ptr<net::HostedFabric> client_fabric_;
  std::unique_ptr<rpc::Engine> client_;
};

TEST_F(FaultInjectionTest, TimedOutWritableBulkNeverScribblesLate) {
  // A delayed response must NOT write into the caller's buffer once
  // finish() has returned timed_out: cancel() unregisters the region.
  make_client(rpc::EngineOptions{.rpc_timeout = 100ms});
  server_fabric_->set_fault_injector(std::make_shared<CallbackFaultInjector>(
      [](net::EndpointId, const net::Message& msg) {
        FaultAction a;
        if (msg.kind == net::MessageKind::response) a.delay = 400ms;
        return a;
      }));

  std::vector<std::uint8_t> buf(1024, 0x00);
  auto r = client_->forward(0, kFillRpc, {},
                            net::BulkRegion::expose_write(buf));
  EXPECT_EQ(r.code(), Errc::timed_out);

  // The caller reclaims the buffer; the late response is still in
  // flight and must not touch it.
  std::fill(buf.begin(), buf.end(), 0x11);
  std::this_thread::sleep_for(600ms);
  for (const auto b : buf) ASSERT_EQ(b, 0x11);

  // The path itself still works once the network heals.
  server_fabric_->set_fault_injector(nullptr);
  std::vector<std::uint8_t> buf2(1024, 0x00);
  auto ok = client_->forward(0, kFillRpc, {},
                             net::BulkRegion::expose_write(buf2));
  ASSERT_TRUE(ok.is_ok()) << ok.status().to_string();
  for (const auto b : buf2) ASSERT_EQ(b, 0x5a);
}

TEST_F(FaultInjectionTest, IdempotentRetryRecoversFromDrops) {
  rpc::EngineOptions opts;
  opts.rpc_timeout = 100ms;
  opts.max_attempts = 4;
  opts.retry_backoff = 5ms;
  opts.retryable = [](std::uint16_t id) { return id == kEchoRpc; };
  make_client(opts);

  auto dropped = std::make_shared<std::atomic<int>>(0);
  client_fabric_->set_fault_injector(std::make_shared<CallbackFaultInjector>(
      [dropped](net::EndpointId, const net::Message& msg) {
        FaultAction a;
        if (msg.kind == net::MessageKind::request &&
            msg.rpc_id == kEchoRpc && dropped->fetch_add(1) < 2) {
          a.drop = true;
        }
        return a;
      }));

  auto r = client_->forward(0, kEchoRpc, {1, 2, 3});
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(*r, (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_EQ(client_->retries(), 2u);
}

TEST_F(FaultInjectionTest, RetriesReuseTraceIdWithFreshAttemptSpans) {
  // Tracing contract for the retry path: every re-send is a NEW
  // rpc.caller span (so per-attempt latency is visible) but all
  // attempts carry the ORIGINAL trace id — the assembled tree shows
  // one op with three attempts, not three unrelated ops.
  metrics::Tracer tracer(64);
  rpc::EngineOptions opts;
  opts.rpc_timeout = 100ms;
  opts.max_attempts = 4;
  opts.retry_backoff = 5ms;
  opts.retryable = [](std::uint16_t id) { return id == kEchoRpc; };
  opts.tracer = &tracer;
  make_client(opts);

  auto dropped = std::make_shared<std::atomic<int>>(0);
  client_fabric_->set_fault_injector(std::make_shared<CallbackFaultInjector>(
      [dropped](net::EndpointId, const net::Message& msg) {
        FaultAction a;
        if (msg.kind == net::MessageKind::request &&
            msg.rpc_id == kEchoRpc && dropped->fetch_add(1) < 2) {
          a.drop = true;
        }
        return a;
      }));

  auto r = client_->forward(0, kEchoRpc, {9});
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(client_->retries(), 2u);

  std::vector<metrics::TraceSpan> callers;
  for (const auto& s : tracer.dump()) {
    if (std::string_view(s.name) == "rpc.caller" && s.rpc_id == kEchoRpc) {
      callers.push_back(s);
    }
  }
  ASSERT_EQ(callers.size(), 3u);  // 2 dropped attempts + 1 success
  for (std::size_t i = 0; i < callers.size(); ++i) {
    // dump() is oldest-first, so attempt numbers come out in order.
    EXPECT_EQ(callers[i].attempt, i) << i;
    EXPECT_EQ(callers[i].trace_id, callers[0].trace_id) << i;
    EXPECT_NE(callers[i].span_id, 0u) << i;
    for (std::size_t j = 0; j < i; ++j) {
      EXPECT_NE(callers[i].span_id, callers[j].span_id) << i << "," << j;
    }
  }
  // The engine caches a reference to the tracer; drop it before the
  // local sink goes out of scope.
  client_.reset();
  client_fabric_.reset();
}

TEST_F(FaultInjectionTest, RetryAndTimeoutCountersTrackInjectedFaults) {
  // The observability contract for fault handling: every timed-out
  // attempt shows up in rpc.timeouts, every re-send in rpc.retries —
  // per-rpc AND in the aggregates gkfs-top renders.
  rpc::EngineOptions opts;
  opts.rpc_timeout = 100ms;
  opts.max_attempts = 4;
  opts.retry_backoff = 5ms;
  opts.retryable = [](std::uint16_t id) { return id == kEchoRpc; };
  opts.registry = &registry_;
  opts.rpc_name = [](std::uint16_t) { return std::string("echo"); };
  make_client(opts);

  auto dropped = std::make_shared<std::atomic<int>>(0);
  client_fabric_->set_fault_injector(std::make_shared<CallbackFaultInjector>(
      [dropped](net::EndpointId, const net::Message& msg) {
        FaultAction a;
        if (msg.kind == net::MessageKind::request &&
            msg.rpc_id == kEchoRpc && dropped->fetch_add(1) < 2) {
          a.drop = true;
        }
        return a;
      }));

  auto r = client_->forward(0, kEchoRpc, {7});
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();

  const auto snap = registry_.snapshot();
  // Three attempts: two dropped (timed out), the third succeeded.
  EXPECT_EQ(snap.counter_or("rpc.requests_sent"), 3u);
  EXPECT_EQ(snap.counter_or("rpc.retries"), 2u);
  EXPECT_EQ(snap.counter_or("rpc.timeouts"), 2u);
  EXPECT_EQ(snap.counter_or("rpc.caller.echo.sent"), 3u);
  EXPECT_EQ(snap.counter_or("rpc.caller.echo.retries"), 2u);
  EXPECT_EQ(snap.counter_or("rpc.caller.echo.timeouts"), 2u);
  EXPECT_EQ(snap.counter_or("rpc.caller.echo.errors"), 2u);
  EXPECT_EQ(snap.counter_or("rpc.caller.echo.ok"), 1u);
  // Every attempt settled: nothing left in flight.
  EXPECT_EQ(snap.gauge_or("rpc.caller.echo.inflight"), 0);
  // Each attempt recorded a latency sample.
  ASSERT_TRUE(snap.histograms.contains("rpc.caller.echo.latency"));
  EXPECT_EQ(snap.histograms.at("rpc.caller.echo.latency").count, 3u);
}

TEST_F(FaultInjectionTest, NonIdempotentRpcNeverRetries) {
  rpc::EngineOptions opts;
  opts.rpc_timeout = 100ms;
  opts.max_attempts = 4;
  opts.retry_backoff = 5ms;
  opts.retryable = [](std::uint16_t) { return false; };
  make_client(opts);

  auto seen = std::make_shared<std::atomic<int>>(0);
  client_fabric_->set_fault_injector(std::make_shared<CallbackFaultInjector>(
      [seen](net::EndpointId, const net::Message& msg) {
        FaultAction a;
        if (msg.kind == net::MessageKind::request &&
            msg.rpc_id == kEchoRpc) {
          seen->fetch_add(1);
          a.drop = true;
        }
        return a;
      }));

  auto r = client_->forward(0, kEchoRpc, {9});
  EXPECT_EQ(r.code(), Errc::timed_out);
  EXPECT_EQ(seen->load(), 1);  // exactly one send, no silent replay
  EXPECT_EQ(client_->retries(), 0u);
}

TEST_F(FaultInjectionTest, KilledConnectionReconnectsAndRetrySucceeds) {
  // Acceptance scenario: the daemon connection dies mid-rpc; the
  // idempotent call retries with backoff, the fabric redials, and the
  // call succeeds — the caller never notices.
  rpc::EngineOptions opts;
  opts.rpc_timeout = 200ms;
  opts.max_attempts = 3;
  opts.retry_backoff = 5ms;
  opts.retryable = [](std::uint16_t id) { return id == kEchoRpc; };
  make_client(opts);

  // Warm-up: establish the connection fault-free.
  auto warm = client_->forward(0, kEchoRpc, {42});
  ASSERT_TRUE(warm.is_ok());

  auto kills = std::make_shared<std::atomic<int>>(0);
  client_fabric_->set_fault_injector(std::make_shared<CallbackFaultInjector>(
      [kills](net::EndpointId, const net::Message& msg) {
        FaultAction a;
        if (msg.kind == net::MessageKind::request &&
            msg.rpc_id == kEchoRpc && kills->fetch_add(1) == 0) {
          a.kill_connection = true;  // sever the established link...
          a.drop = true;             // ...and lose the in-flight request
        }
        return a;
      }));

  auto r = client_->forward(0, kEchoRpc, {7, 8});
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(*r, (std::vector<std::uint8_t>{7, 8}));
  EXPECT_GE(client_->retries(), 1u);
}

TEST_F(FaultInjectionTest, DuplicateDeliveryIsHarmless) {
  make_client(rpc::EngineOptions{.rpc_timeout = 1000ms});
  // Duplicate both requests (daemon handles twice, routes one reply)
  // and responses (engine ignores the one with no pending seq).
  server_fabric_->set_fault_injector(std::make_shared<CallbackFaultInjector>(
      [](net::EndpointId, const net::Message&) {
        FaultAction a;
        a.duplicate = true;
        return a;
      }));
  client_fabric_->set_fault_injector(std::make_shared<CallbackFaultInjector>(
      [](net::EndpointId, const net::Message&) {
        FaultAction a;
        a.duplicate = true;
        return a;
      }));

  for (std::uint8_t i = 0; i < 10; ++i) {
    auto r = client_->forward(0, kEchoRpc, {i});
    ASSERT_TRUE(r.is_ok()) << "i=" << int(i) << ": "
                           << r.status().to_string();
    EXPECT_EQ((*r)[0], i);
  }
}

TEST_F(FaultInjectionTest, OversizedFrameFailsWithOverflowOnSendSide) {
  // The sender must reject an oversized frame with overflow instead of
  // tripping the receiver's limit and silently killing the connection.
  net::MakeFabricOptions fopts;
  fopts.max_frame_bytes = 4096;
  make_client(rpc::EngineOptions{.rpc_timeout = 500ms}, fopts);

  std::vector<std::uint8_t> big(8192, 0xab);
  auto r = client_->forward(0, kEchoRpc, big);
  EXPECT_EQ(r.code(), Errc::overflow);

  // A payload just under the limit still goes through (frame header
  // overhead is 18 bytes plus the payload length varint)...
  std::vector<std::uint8_t> fits(4000, 0xcd);
  auto small = client_->forward(0, kEchoRpc, fits);
  ASSERT_TRUE(small.is_ok()) << small.status().to_string();
  EXPECT_EQ(small->size(), fits.size());

  // ...and the connection survived the rejected send.
  auto again = client_->forward(0, kEchoRpc, {2});
  ASSERT_TRUE(again.is_ok());
}

TEST_F(FaultInjectionTest, DeadConnectionFailsPendingWritableEntries) {
  // A connection that dies with a writable region in flight must drop
  // the registration (no leak, no late scribble) — the caller sees a
  // transient error, not corruption.
  rpc::EngineOptions opts;
  opts.rpc_timeout = 300ms;
  make_client(opts);

  // Delay the response long enough for us to kill the link first.
  server_fabric_->set_fault_injector(std::make_shared<CallbackFaultInjector>(
      [](net::EndpointId, const net::Message& msg) {
        FaultAction a;
        if (msg.kind == net::MessageKind::response) a.delay = 200ms;
        return a;
      }));

  std::vector<std::uint8_t> buf(512, 0x00);
  auto call = client_->begin_forward(0, kFillRpc, {},
                                     net::BulkRegion::expose_write(buf));
  ASSERT_TRUE(call.send_status.is_ok());
  // Sever the client->server link while the response is delayed.
  std::this_thread::sleep_for(50ms);
  client_fabric_->set_fault_injector(std::make_shared<CallbackFaultInjector>(
      [](net::EndpointId, const net::Message&) {
        FaultAction a;
        a.kill_connection = true;
        a.drop = true;
        return a;
      }));
  // Any send now kills the established connection.
  (void)client_->begin_forward(0, kEchoRpc, {0});
  client_fabric_->set_fault_injector(nullptr);

  auto r = client_->finish(call);
  EXPECT_FALSE(r.is_ok());
  std::fill(buf.begin(), buf.end(), 0x33);
  std::this_thread::sleep_for(300ms);
  for (const auto b : buf) ASSERT_EQ(b, 0x33);
}

}  // namespace
}  // namespace gekko
