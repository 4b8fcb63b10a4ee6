// relaxed-ok: bulk_pulled_/bulk_pushed_ are standalone byte counters
// mirrored into TrafficStats; no other data is published through them.
// DeliverySlot's active_/closed_ pair is seq_cst (a Dekker handshake).
#include "net/fabric.h"

#include <cstring>
#include <thread>

#include "common/logging.h"
#include "common/thread_annotations.h"

namespace gekko::net {

Fabric::Fabric()
    : fault_fires_(
          &metrics::Registry::global().counter("net.fault_injector.fires")) {}

void Fabric::set_fault_injector(std::shared_ptr<FaultInjector> injector) {
  LockGuard lock(injector_mutex_);
  injector_ = std::move(injector);
}

FaultAction Fabric::consult_injector_(EndpointId dest, const Message& msg) {
  std::shared_ptr<FaultInjector> injector;
  {
    LockGuard lock(injector_mutex_);
    injector = injector_;
  }
  if (!injector) return {};
  FaultAction action = injector->on_send(dest, msg);
  if (action.drop || action.duplicate || action.kill_connection ||
      action.delay.count() > 0) {
    fault_fires_->inc();
  }
  return action;
}

bool DeliverySlot::deliver(Message msg) {
  // Announce the call before checking closed_, and close() sets
  // closed_ before reading active_: with both sides seq_cst, either
  // this call sees closed_ or close() sees it running and waits.
  active_.fetch_add(1);
  const bool open = !closed_.load();
  if (open) deliver_(std::move(msg));
  if (active_.fetch_sub(1) == 1) active_.notify_all();
  return open;
}

void DeliverySlot::close() {
  closed_.store(true);
  for (std::uint32_t n = active_.load(); n != 0; n = active_.load()) {
    active_.wait(n);
  }
}

LoopbackFabric::LoopbackFabric() {
  auto& reg = metrics::Registry::global();
  m_.messages = &reg.counter("net.loopback.messages");
  m_.bytes = &reg.counter("net.loopback.payload_bytes");
  m_.drops = &reg.counter("net.loopback.drops");
  m_.bulk_pulled_bytes = &reg.counter("net.loopback.bulk_pulled_bytes");
  m_.bulk_pushed_bytes = &reg.counter("net.loopback.bulk_pushed_bytes");
}

EndpointId LoopbackFabric::register_endpoint(Deliver deliver) {
  LockGuard lock(mutex_);
  endpoints_.push_back(std::make_shared<DeliverySlot>(std::move(deliver)));
  return static_cast<EndpointId>(endpoints_.size() - 1);
}

Status LoopbackFabric::send(EndpointId dest, Message msg) {
  const FaultAction fault = consult_injector_(dest, msg);
  if (fault.delay.count() > 0) {
    std::this_thread::sleep_for(fault.delay);  // blocking-ok: scripted fault delay runs on the injecting sender's thread by design
  }
  std::shared_ptr<DeliverySlot> endpoint;
  {
    LockGuard lock(mutex_);
    ++send_counter_;
    if (dest >= endpoints_.size() || !endpoints_[dest]) {
      return Status{Errc::disconnected, "unknown endpoint"};
    }
    const bool blackholed = fault_plan_.blackhole == dest;
    const bool dropped =
        fault_plan_.drop_one_in != 0 &&
        (send_counter_ % fault_plan_.drop_one_in) == 0;
    // Loopback has no connections; kill_connection degrades to losing
    // the message (the closest observable effect).
    if (blackholed || dropped || fault.drop || fault.kill_connection) {
      ++stats_.messages_dropped;
      m_.drops->inc();
      return Status::ok();  // silent loss, sender can't observe it
    }
    ++stats_.messages_sent;
    stats_.payload_bytes += msg.payload.size();
    m_.messages->inc();
    m_.bytes->inc(msg.payload.size());
    endpoint = endpoints_[dest];
  }
  // Delivery runs right here, on the sender's thread, with no fabric
  // lock held: the receiver's handler may itself send (its reply).
  // status-ignored-ok: injected duplicate; losing it to a closing endpoint is fine
  if (fault.duplicate) (void)endpoint->deliver(msg);
  if (!endpoint->deliver(std::move(msg))) {
    return Status{Errc::disconnected, "endpoint shutting down"};
  }
  return Status::ok();
}

void LoopbackFabric::deregister(EndpointId id) {
  std::shared_ptr<DeliverySlot> endpoint;
  {
    LockGuard lock(mutex_);
    if (id >= endpoints_.size()) return;
    endpoint = std::move(endpoints_[id]);
    endpoints_[id] = nullptr;
  }
  if (endpoint) endpoint->close();
}

void LoopbackFabric::set_fault_plan(FaultPlan plan) {
  LockGuard lock(mutex_);
  fault_plan_ = plan;
}

FaultPlan LoopbackFabric::fault_plan() const {
  LockGuard lock(mutex_);
  return fault_plan_;
}

Status LoopbackFabric::bulk_pull(const BulkRegion& region, std::size_t offset,
                         std::span<std::uint8_t> out) {
  if (!region.valid()) return Status{Errc::invalid_argument, "invalid bulk"};
  if (offset + out.size() > region.size()) {
    return Status{Errc::overflow, "bulk pull out of range"};
  }
  std::memcpy(out.data(), region.read_ptr() + offset, out.size());
  bulk_pulled_.fetch_add(out.size(), std::memory_order_relaxed);
  m_.bulk_pulled_bytes->inc(out.size());
  return Status::ok();
}

Status LoopbackFabric::bulk_push(const BulkRegion& region, std::size_t offset,
                         std::span<const std::uint8_t> data) {
  if (!region.valid() || !region.writable()) {
    return Status{Errc::invalid_argument, "bulk region not writable"};
  }
  if (offset + data.size() > region.size()) {
    return Status{Errc::overflow, "bulk push out of range"};
  }
  std::memcpy(region.write_ptr() + offset, data.data(), data.size());
  bulk_pushed_.fetch_add(data.size(), std::memory_order_relaxed);
  m_.bulk_pushed_bytes->inc(data.size());
  return Status::ok();
}

TrafficStats LoopbackFabric::stats() const {
  LockGuard lock(mutex_);
  TrafficStats s = stats_;
  s.bulk_bytes_pulled = bulk_pulled_.load(std::memory_order_relaxed);
  s.bulk_bytes_pushed = bulk_pushed_.load(std::memory_order_relaxed);
  return s;
}

std::size_t LoopbackFabric::endpoint_count() const {
  LockGuard lock(mutex_);
  std::size_t n = 0;
  for (const auto& p : endpoints_) {
    if (p) ++n;
  }
  return n;
}

}  // namespace gekko::net
