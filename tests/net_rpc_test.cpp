// Fabric and RPC engine tests: delivery, bulk transfer, fault
// injection, handler dispatch, timeouts, concurrent forwards.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "common/lockdep.h"
#include "common/queue.h"
#include "common/trace.h"
#include "net/fabric.h"
#include "rpc/engine.h"
#include "task/future.h"
#include "task/pool.h"

namespace gekko {
namespace {

// Run the suite with the runtime lock-order validator on: daemon/rpc
// paths take several locks per request, so inversions abort here.
const bool kLockdepOn = [] {
  gekko::lockdep::set_enabled(true);
  return true;
}();

// ---------- fabric ----------

/// Queue-backed endpoint: keeps what the fabric delivers for the test
/// to read back.
struct QueueEndpoint {
  BlockingQueue<net::Message> queue;
  net::Deliver deliver() {
    return [this](net::Message m) {
      // status-ignored-ok: the queue is open for the test's lifetime
      (void)queue.push(std::move(m));
    };
  }
};

TEST(FabricTest, RegisterSendReceive) {
  net::LoopbackFabric fabric;
  QueueEndpoint ep_a, ep_b;
  const auto id_a = fabric.register_endpoint(ep_a.deliver());
  const auto id_b = fabric.register_endpoint(ep_b.deliver());
  EXPECT_NE(id_a, id_b);
  EXPECT_EQ(fabric.endpoint_count(), 2u);

  net::Message msg;
  msg.rpc_id = 7;
  msg.source = id_a;
  msg.payload = {1, 2, 3};
  ASSERT_TRUE(fabric.send(id_b, std::move(msg)).is_ok());

  auto received = ep_b.queue.try_pop();
  ASSERT_TRUE(received.has_value());
  EXPECT_EQ(received->rpc_id, 7);
  EXPECT_EQ(received->source, id_a);
  EXPECT_EQ(received->payload, (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_FALSE(ep_a.queue.try_pop().has_value());
}

TEST(FabricTest, DeliveryRunsOnTheSendersThread) {
  net::LoopbackFabric fabric;
  std::thread::id delivered_on;
  const auto id = fabric.register_endpoint(
      [&](net::Message) { delivered_on = std::this_thread::get_id(); });
  ASSERT_TRUE(fabric.send(id, net::Message{}).is_ok());
  EXPECT_EQ(delivered_on, std::this_thread::get_id());
}

TEST(FabricTest, SendToUnknownEndpointFails) {
  net::LoopbackFabric fabric;
  EXPECT_EQ(fabric.send(99, net::Message{}).code(), Errc::disconnected);
}

TEST(FabricTest, DeregisteredEndpointRejectsTraffic) {
  net::LoopbackFabric fabric;
  QueueEndpoint ep;
  const auto id = fabric.register_endpoint(ep.deliver());
  fabric.deregister(id);
  EXPECT_EQ(fabric.send(id, net::Message{}).code(), Errc::disconnected);
  EXPECT_FALSE(ep.queue.try_pop().has_value());
  EXPECT_EQ(fabric.endpoint_count(), 0u);
}

TEST(FabricTest, DeregisterWaitsForRunningDelivery) {
  // deregister() must not return while a delivery into the endpoint is
  // still running: the endpoint's owner is destroyed right after.
  net::LoopbackFabric fabric;
  std::atomic<bool> entered{false};
  std::atomic<bool> finished{false};
  const auto id = fabric.register_endpoint([&](net::Message) {
    entered.store(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    finished.store(true);
  });
  std::thread sender([&] { EXPECT_TRUE(fabric.send(id, {}).is_ok()); });
  while (!entered.load()) std::this_thread::yield();
  fabric.deregister(id);
  EXPECT_TRUE(finished.load());
  sender.join();
}

TEST(FabricTest, FifoPerSenderPair) {
  net::LoopbackFabric fabric;
  QueueEndpoint ep_a, ep_b;
  const auto a = fabric.register_endpoint(ep_a.deliver());
  const auto b = fabric.register_endpoint(ep_b.deliver());
  for (std::uint64_t i = 0; i < 100; ++i) {
    net::Message m;
    m.seq = i;
    m.source = a;
    ASSERT_TRUE(fabric.send(b, std::move(m)).is_ok());
  }
  for (std::uint64_t i = 0; i < 100; ++i) {
    auto m = ep_b.queue.try_pop();
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->seq, i);
  }
}

TEST(FabricTest, BlackholeDropsSilently) {
  net::LoopbackFabric fabric;
  QueueEndpoint ep_a, ep_b;
  (void)fabric.register_endpoint(ep_a.deliver());
  const auto b = fabric.register_endpoint(ep_b.deliver());
  fabric.set_fault_plan(net::FaultPlan{.blackhole = b});
  EXPECT_TRUE(fabric.send(b, net::Message{}).is_ok());  // silent loss
  EXPECT_FALSE(ep_b.queue.try_pop().has_value());
  EXPECT_EQ(fabric.stats().messages_dropped, 1u);
}

TEST(FabricTest, ProbabilisticDrop) {
  net::LoopbackFabric fabric;
  QueueEndpoint ep;
  (void)fabric.register_endpoint(ep.deliver());
  fabric.set_fault_plan(net::FaultPlan{.drop_one_in = 4});
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(fabric.send(0, net::Message{}).is_ok());
  }
  const auto stats = fabric.stats();
  EXPECT_EQ(stats.messages_dropped, 25u);
  EXPECT_EQ(stats.messages_sent, 75u);
  int received = 0;
  while (ep.queue.try_pop().has_value()) ++received;
  EXPECT_EQ(received, 75);
}

TEST(FabricTest, BulkPullPushAndBounds) {
  net::LoopbackFabric fabric;
  std::vector<std::uint8_t> buffer = {10, 20, 30, 40, 50};
  auto region = net::BulkRegion::expose_write(buffer);

  std::vector<std::uint8_t> out(3);
  ASSERT_TRUE(fabric.bulk_pull(region, 1, out).is_ok());
  EXPECT_EQ(out, (std::vector<std::uint8_t>{20, 30, 40}));

  const std::vector<std::uint8_t> in = {77, 88};
  ASSERT_TRUE(fabric.bulk_push(region, 3, in).is_ok());
  EXPECT_EQ(buffer, (std::vector<std::uint8_t>{10, 20, 30, 77, 88}));

  EXPECT_EQ(fabric.bulk_pull(region, 4, out).code(), Errc::overflow);
  EXPECT_EQ(fabric.bulk_push(region, 4, out).code(), Errc::overflow);

  auto ro = net::BulkRegion::expose_read(buffer);
  EXPECT_EQ(fabric.bulk_push(ro, 0, in).code(), Errc::invalid_argument);

  const auto stats = fabric.stats();
  EXPECT_EQ(stats.bulk_bytes_pulled, 3u);
  EXPECT_EQ(stats.bulk_bytes_pushed, 2u);
}

// ---------- task pool / eventual ----------

TEST(TaskPoolTest, ExecutesAllTasks) {
  task::Pool pool(3, "test");
  std::atomic<int> counter{0};
  task::Latch latch(100);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(pool.post([&] {
      counter.fetch_add(1);
      latch.count_down();
    }));
  }
  latch.wait();
  EXPECT_EQ(counter.load(), 100);
  pool.shutdown();
  EXPECT_FALSE(pool.post([] {}));  // rejected after shutdown
  EXPECT_EQ(pool.executed(), 100u);
}

TEST(TaskPoolTest, ShutdownDrainsQueuedTasks) {
  std::atomic<int> counter{0};
  {
    task::Pool pool(1, "drain");
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(pool.post([&] { counter.fetch_add(1); }));
    }
  }  // destructor joins after draining
  EXPECT_EQ(counter.load(), 50);
}

TEST(EventualTest, SetThenWait) {
  task::Eventual<int> ev;
  ev.set(42);
  EXPECT_TRUE(ev.ready());
  EXPECT_EQ(ev.wait(), 42);
}

TEST(EventualTest, CrossThreadHandoff) {
  task::Eventual<std::string> ev;
  std::thread setter([ev] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ev.set("done");
  });
  EXPECT_EQ(ev.wait(), "done");
  setter.join();
}

TEST(EventualTest, WaitForTimesOut) {
  task::Eventual<int> ev;
  EXPECT_FALSE(ev.wait_for(std::chrono::milliseconds(20)).has_value());
  ev.set(1);  // late set is safe
  EXPECT_EQ(ev.wait_for(std::chrono::milliseconds(20)).value(), 1);
}

// ---------- rpc engine ----------

class RpcTest : public ::testing::Test {
 protected:
  net::LoopbackFabric fabric_;
};

TEST_F(RpcTest, EchoRoundTrip) {
  rpc::Engine server(fabric_, {.name = "server"});
  server.register_rpc(1, "echo", [](const net::Message& msg) {
    return Result<std::vector<std::uint8_t>>(msg.payload);
  });
  rpc::Engine client(fabric_, {.name = "client"});
  auto resp = client.forward(server.endpoint(), 1, {9, 8, 7});
  ASSERT_TRUE(resp.is_ok()) << resp.status().to_string();
  EXPECT_EQ(*resp, (std::vector<std::uint8_t>{9, 8, 7}));
  EXPECT_EQ(server.requests_handled(), 1u);
}

TEST_F(RpcTest, HandlerErrorPropagatesAsStatus) {
  rpc::Engine server(fabric_, {.name = "server"});
  server.register_rpc(2, "fail", [](const net::Message&) {
    return Result<std::vector<std::uint8_t>>(
        Status{Errc::not_found, "nope"});
  });
  rpc::Engine client(fabric_, {.name = "client"});
  auto resp = client.forward(server.endpoint(), 2, {});
  EXPECT_EQ(resp.code(), Errc::not_found);
}

TEST_F(RpcTest, UnknownRpcIdReturnsNotSupported) {
  rpc::Engine server(fabric_, {.name = "server"});
  rpc::Engine client(fabric_, {.name = "client"});
  auto resp = client.forward(server.endpoint(), 42, {});
  EXPECT_EQ(resp.code(), Errc::not_supported);
}

TEST_F(RpcTest, TimeoutOnBlackholedDaemon) {
  rpc::Engine server(fabric_, {.name = "server"});
  server.register_rpc(1, "echo", [](const net::Message& msg) {
    return Result<std::vector<std::uint8_t>>(msg.payload);
  });
  rpc::EngineOptions copts;
  copts.name = "client";
  copts.rpc_timeout = std::chrono::milliseconds(50);
  rpc::Engine client(fabric_, copts);

  fabric_.set_fault_plan(net::FaultPlan{.blackhole = server.endpoint()});
  auto resp = client.forward(server.endpoint(), 1, {1});
  EXPECT_EQ(resp.code(), Errc::timed_out);

  // Network heals; the same engine keeps working.
  fabric_.set_fault_plan(net::FaultPlan{});
  resp = client.forward(server.endpoint(), 1, {1});
  EXPECT_TRUE(resp.is_ok());
}

TEST_F(RpcTest, ForwardToDeadEngineFails) {
  rpc::Engine client(fabric_, {.name = "client"});
  net::EndpointId dead;
  {
    rpc::Engine server(fabric_, {.name = "server"});
    dead = server.endpoint();
  }
  auto resp = client.forward(dead, 1, {});
  EXPECT_EQ(resp.code(), Errc::disconnected);
}

TEST_F(RpcTest, BulkTransferThroughHandler) {
  rpc::Engine server(fabric_, {.name = "server"});
  net::Fabric* fabric = &fabric_;
  // Handler doubles each byte of the exposed region in place.
  server.register_rpc(
      3, "double",
      [fabric](const net::Message& msg) -> Result<std::vector<std::uint8_t>> {
        std::vector<std::uint8_t> tmp(msg.bulk.size());
        GEKKO_RETURN_IF_ERROR(fabric->bulk_pull(msg.bulk, 0, tmp));
        for (auto& b : tmp) b = static_cast<std::uint8_t>(b * 2);
        GEKKO_RETURN_IF_ERROR(fabric->bulk_push(msg.bulk, 0, tmp));
        return std::vector<std::uint8_t>{};
      });
  rpc::Engine client(fabric_, {.name = "client"});

  std::vector<std::uint8_t> buffer = {1, 2, 3, 4};
  auto resp = client.forward(server.endpoint(), 3, {},
                             net::BulkRegion::expose_write(buffer));
  ASSERT_TRUE(resp.is_ok());
  EXPECT_EQ(buffer, (std::vector<std::uint8_t>{2, 4, 6, 8}));
}

TEST_F(RpcTest, ConcurrentForwardsFromManyThreads) {
  rpc::EngineOptions sopts;
  sopts.name = "server";
  sopts.handler_threads = 4;
  rpc::Engine server(fabric_, sopts);
  std::atomic<std::uint64_t> sum{0};
  server.register_rpc(1, "add", [&sum](const net::Message& msg) {
    sum.fetch_add(msg.payload.empty() ? 0 : msg.payload[0]);
    return Result<std::vector<std::uint8_t>>(std::vector<std::uint8_t>{});
  });
  rpc::Engine client(fabric_, {.name = "client"});

  constexpr int kThreads = 8;
  constexpr int kCallsPerThread = 50;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kCallsPerThread; ++i) {
        auto r = client.forward(server.endpoint(), 1, {1});
        if (!r.is_ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(sum.load(),
            static_cast<std::uint64_t>(kThreads) * kCallsPerThread);
}

TEST_F(RpcTest, PipelinedBeginFinish) {
  rpc::Engine server(fabric_, {.name = "server"});
  server.register_rpc(1, "echo", [](const net::Message& msg) {
    return Result<std::vector<std::uint8_t>>(msg.payload);
  });
  rpc::Engine client(fabric_, {.name = "client"});

  std::vector<rpc::Engine::PendingCall> calls;
  for (std::uint8_t i = 0; i < 20; ++i) {
    calls.push_back(client.begin_forward(server.endpoint(), 1, {i}));
  }
  for (std::uint8_t i = 0; i < 20; ++i) {
    auto r = client.finish(calls[i]);
    ASSERT_TRUE(r.is_ok());
    EXPECT_EQ((*r)[0], i);
  }
}

// Regression for the daemon startup window: the listener binds before
// handlers exist, so a fast client's first rpc used to bounce with
// not_supported. With start_paused the early request parks in the
// engine and dispatches once the owner calls start().
TEST_F(RpcTest, StartPausedHoldsDispatchUntilHandlersRegistered) {
  rpc::Engine server(fabric_, {.name = "server", .start_paused = true});
  rpc::Engine client(fabric_, {.name = "client"});

  // Sent while the server accepts traffic but has no handlers yet.
  auto call = client.begin_forward(server.endpoint(), 1, {7});
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  server.register_rpc(1, "echo", [](const net::Message& msg) {
    return Result<std::vector<std::uint8_t>>(msg.payload);
  });
  server.start();
  auto r = client.finish(call);
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ((*r)[0], 7);
}

TEST_F(RpcTest, InlineRunsOnDeliveryThreadPooledOnPoolThread) {
  // Loopback delivers on the sender's thread, so an inline handler runs
  // right on the caller's thread; a pooled one never does.
  rpc::Engine server(fabric_, {.name = "server"});
  std::thread::id inline_thread;
  std::thread::id pooled_thread;
  server.register_rpc(1, "inline", rpc::Dispatch::inline_delivery,
                      [&](const net::Message&) {
                        inline_thread = std::this_thread::get_id();
                        return Result<std::vector<std::uint8_t>>(
                            std::vector<std::uint8_t>{});
                      });
  server.register_rpc(2, "pooled", [&](const net::Message&) {
    pooled_thread = std::this_thread::get_id();
    return Result<std::vector<std::uint8_t>>(std::vector<std::uint8_t>{});
  });
  rpc::Engine client(fabric_, {.name = "client"});
  ASSERT_TRUE(client.forward(server.endpoint(), 1, {}).is_ok());
  ASSERT_TRUE(client.forward(server.endpoint(), 2, {}).is_ok());
  EXPECT_EQ(inline_thread, std::this_thread::get_id());
  EXPECT_NE(pooled_thread, std::this_thread::get_id());
  EXPECT_NE(pooled_thread, std::thread::id{});
}

TEST_F(RpcTest, InlineHandlerKeepsCallersTraceContext) {
  // An inline handler on a client's thread runs under the request's
  // trace context, and the client's own context is back afterwards.
  rpc::Engine server(fabric_, {.name = "server"});
  trace::SpanContext seen{};
  server.register_rpc(1, "inline", rpc::Dispatch::inline_delivery,
                      [&](const net::Message&) {
                        seen = trace::current();
                        trace::stage_add("io", 5);
                        return Result<std::vector<std::uint8_t>>(
                            std::vector<std::uint8_t>{});
                      });
  rpc::Engine client(fabric_, {.name = "client"});
  const trace::SpanContext mine{0x1234, 0x5678};
  trace::ContextGuard guard(mine);
  trace::stages_reset();
  trace::stage_add("client", 7);
  ASSERT_TRUE(client.forward(server.endpoint(), 1, {}).is_ok());
  EXPECT_EQ(seen.trace_id, mine.trace_id);  // the call continues our trace
  EXPECT_NE(seen.span_id, mine.span_id);    // under the service span
  EXPECT_EQ(trace::current().trace_id, mine.trace_id);
  EXPECT_EQ(trace::current().span_id, mine.span_id);
  const auto stages = trace::stages_snapshot();
  ASSERT_EQ(stages.size(), 1u);
  EXPECT_STREQ(stages[0].first, "client");
  EXPECT_EQ(stages[0].second, 7u);
}

TEST_F(RpcTest, RegistrationRacesDeliveries) {
  // Registering rpcs while requests for another id are being served:
  // the request path reads the published table without a lock, so
  // every call still finds its handler (TSan clean).
  rpc::Engine server(fabric_, {.handler_threads = 2, .name = "server"});
  server.register_rpc(1, "echo", rpc::Dispatch::inline_delivery,
                      [](const net::Message& msg) {
                        return Result<std::vector<std::uint8_t>>(msg.payload);
                      });
  rpc::Engine client(fabric_, {.name = "client"});
  std::atomic<bool> stop{false};
  std::atomic<int> calls{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> senders;
  for (int t = 0; t < 2; ++t) {
    senders.emplace_back([&] {
      while (!stop.load()) {
        if (!client.forward(server.endpoint(), 1, {3}).is_ok()) {
          failures.fetch_add(1);
        }
        calls.fetch_add(1);
      }
    });
  }
  while (calls.load() < 20) std::this_thread::yield();
  for (std::uint16_t id = 2; id < 40; ++id) {
    server.register_rpc(id, "id" + std::to_string(id),
                        [](const net::Message& msg) {
                          return Result<std::vector<std::uint8_t>>(
                              msg.payload);
                        });
    std::this_thread::yield();
  }
  stop.store(true);
  for (auto& s : senders) s.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_TRUE(client.forward(server.endpoint(), 39, {9}).is_ok());
}

TEST_F(RpcTest, ShutdownRacingDeliveriesIsClean) {
  // An engine torn down while other threads keep delivering into it:
  // deregister() waits out every running delivery, so no handler or
  // reply touches a destroyed engine (TSan/ASan clean). Each sender
  // keeps calling until the server is gone; before that every call
  // succeeds, after it every call fails with disconnected.
  for (int round = 0; round < 20; ++round) {
    auto server = std::make_unique<rpc::Engine>(
        fabric_, rpc::EngineOptions{.name = "server"});
    server->register_rpc(1, "inline", rpc::Dispatch::inline_delivery,
                         [](const net::Message& msg) {
                           return Result<std::vector<std::uint8_t>>(
                               msg.payload);
                         });
    server->register_rpc(2, "pooled", [](const net::Message& msg) {
      return Result<std::vector<std::uint8_t>>(msg.payload);
    });
    const net::EndpointId target = server->endpoint();
    rpc::Engine client(fabric_, {.rpc_timeout = std::chrono::seconds(5),
                                 .name = "client"});
    std::atomic<bool> go{false};
    std::atomic<int> ok{0};
    std::atomic<int> bad{0};
    std::vector<std::thread> senders;
    for (int t = 0; t < 3; ++t) {
      senders.emplace_back([&, t] {
        while (!go.load()) std::this_thread::yield();
        for (int i = 0;; ++i) {
          const auto id = static_cast<std::uint16_t>(1 + (i + t) % 2);
          auto r = client.forward(target, id, {1});
          if (r.is_ok()) {
            ok.fetch_add(1);
            continue;
          }
          if (r.code() != Errc::disconnected) bad.fetch_add(1);
          return;
        }
      });
    }
    go.store(true);
    std::this_thread::sleep_for(std::chrono::microseconds(500 + 100 * round));
    server.reset();
    for (auto& s : senders) s.join();
    EXPECT_EQ(bad.load(), 0) << "round " << round;
    EXPECT_GT(ok.load(), 0) << "round " << round;
  }
}

}  // namespace
}  // namespace gekko
