// An in-process message broker with RabbitMQ-style semantics: a direct
// exchange, named queues, bindings, blocking consumers, and at-least-once
// delivery with acknowledgements. The daemon-mode transport (paper Fig. 2)
// publishes raw stats chunks through it; real threads exercise real
// concurrency.
//
// Resilience: an optional util::FaultPlan injects drop / duplicate / delay
// faults at the "broker.publish" site, per-queue depth limits park overflow
// in a dead-letter queue, and recover() returns a dead consumer's unacked
// deliveries to the queue (what a real broker does on channel close).
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "util/fault.hpp"
#include "util/thread_annotations.hpp"

namespace tacc::transport {

struct Message {
  std::string routing_key;
  std::string body;
  std::uint64_t delivery_tag = 0;
  /// End-to-end identity stamped by the publisher (empty = no dedup id):
  /// the consumer deduplicates on (producer, seq), surviving broker-level
  /// duplication and crash-before-ack redeliveries.
  std::string producer;
  std::uint64_t seq = 0;
  /// Delivery attempts so far; incremented by each consume(). Fault salt
  /// for crash-before-ack decisions, so a redelivery rolls fresh dice.
  std::uint32_t attempt = 0;
  /// Injected transport latency, applied by the consumer to ingest time.
  util::SimTime delay = 0;
  /// Simulated publish time (PublishInfo::now), carried so aggregator tiers
  /// can window same-host batches without parsing the body.
  util::SimTime sim_time = 0;
};

/// Publisher-side metadata for publish(); defaults reproduce the plain
/// fire-and-forget publish.
struct PublishInfo {
  std::string producer;       // stable producer id (hostname) for dedup
  std::uint64_t seq = 0;      // per-producer sequence number (1-based)
  std::uint32_t attempt = 0;  // publisher retry attempt (fault salt)
  util::SimTime now = 0;      // simulated publish time (outage windows)
};

/// Broker counters for monitoring tests/benches.
struct BrokerStats {
  std::uint64_t published = 0;
  std::uint64_t delivered = 0;
  std::uint64_t acked = 0;
  std::uint64_t redelivered = 0;
  std::uint64_t unroutable = 0;
  util::ResilienceStats resilience;
};

class Broker {
 public:
  /// Declares a queue (idempotent).
  void declare_queue(const std::string& queue) TACC_EXCLUDES(mu_);

  /// Binds a queue to routing keys. A binding of "#" matches every key;
  /// a trailing ".*" matches one more segment ("stats.*" matches
  /// "stats.c401-101").
  void bind(const std::string& queue, const std::string& pattern)
      TACC_EXCLUDES(mu_);

  /// Installs the fault plan consulted by publish(). Call during setup,
  /// before traffic flows.
  void set_fault_plan(std::shared_ptr<const util::FaultPlan> plan)
      TACC_EXCLUDES(mu_);

  /// Caps a queue's depth; messages published beyond it are parked in the
  /// queue's dead-letter store instead. 0 = unlimited (the default).
  void set_queue_limit(const std::string& queue, std::size_t max_depth)
      TACC_EXCLUDES(mu_);

  /// Backpressure watermarks: when the queue depth reaches `high` the queue
  /// enters Paused (counted once per crossing in
  /// ResilienceStats::paused_windows); when it drains to `low` or below it
  /// resumes (resumed_windows). Publishers poll publish_paused() and spool
  /// locally while paused. high == 0 disables watermarks; low defaults to
  /// high / 2 when passed as 0.
  void set_watermarks(const std::string& queue, std::size_t high,
                      std::size_t low = 0) TACC_EXCLUDES(mu_);

  /// True if any queue bound to `routing_key` is currently Paused. Cheap;
  /// publishers call it before every publish.
  bool publish_paused(const std::string& routing_key) const
      TACC_EXCLUDES(mu_);

  /// True if the named queue is currently Paused.
  bool queue_paused(const std::string& queue) const TACC_EXCLUDES(mu_);

  /// Publishes to the direct exchange; the message is copied into every
  /// matching queue. Returns the number of queues it reached (0 =
  /// unroutable or an injected in-flight drop — the publisher sees the
  /// failure and may retry). Dead-lettered messages count as reached.
  std::size_t publish(const std::string& routing_key, std::string body)
      TACC_EXCLUDES(mu_);
  std::size_t publish(const std::string& routing_key, std::string body,
                      const PublishInfo& info) TACC_EXCLUDES(mu_);

  /// Blocking consume with timeout; nullopt on timeout or shutdown. The
  /// message stays "unacked" until ack() — if the consumer drops it and
  /// calls reject/requeue it is redelivered.
  std::optional<Message> consume(const std::string& queue,
                                 std::chrono::milliseconds timeout)
      TACC_EXCLUDES(mu_);

  /// Acknowledges a delivery.
  void ack(const std::string& queue, std::uint64_t delivery_tag)
      TACC_EXCLUDES(mu_);

  /// Returns an unacked message to the front of the queue (redelivery).
  void requeue(const std::string& queue, std::uint64_t delivery_tag)
      TACC_EXCLUDES(mu_);

  /// Requeues every unacked message of a queue, in delivery-tag order at
  /// the queue front (a restarted consumer reclaiming its dead
  /// predecessor's in-flight deliveries). Returns how many it requeued.
  std::size_t recover(const std::string& queue) TACC_EXCLUDES(mu_);

  /// Messages waiting in a queue (excluding unacked in-flight ones).
  std::size_t depth(const std::string& queue) const TACC_EXCLUDES(mu_);

  /// Messages delivered but not yet acked.
  std::size_t unacked_depth(const std::string& queue) const
      TACC_EXCLUDES(mu_);

  /// Messages parked in a queue's dead-letter store.
  std::size_t dead_letter_depth(const std::string& queue) const
      TACC_EXCLUDES(mu_);

  /// Removes and returns a queue's dead letters (operator inspection /
  /// replay tooling).
  std::vector<Message> drain_dead_letters(const std::string& queue)
      TACC_EXCLUDES(mu_);

  BrokerStats stats() const TACC_EXCLUDES(mu_);

  /// Wakes all blocked consumers and makes further consumes return
  /// nullopt immediately.
  void shutdown() TACC_EXCLUDES(mu_);
  bool is_shut_down() const TACC_EXCLUDES(mu_);

 private:
  struct QueueState {
    std::deque<Message> messages;
    std::map<std::uint64_t, Message> unacked;
    std::deque<Message> dead_letters;
    std::size_t limit = 0;     // 0 = unlimited
    std::size_t high_wm = 0;   // 0 = watermarks disabled
    std::size_t low_wm = 0;
    bool paused = false;
  };
  /// Pure pattern match; touches no broker state.
  static bool key_matches(const std::string& pattern,
                          const std::string& key) noexcept;

  /// Re-evaluates a queue's Paused state after a depth change, counting
  /// each transition exactly once.
  void update_pause(QueueState& q) TACC_REQUIRES(mu_);

  mutable util::Mutex mu_;
  util::CondVar cv_;
  std::map<std::string, QueueState> queues_ TACC_GUARDED_BY(mu_);
  /// (queue, pattern) pairs.
  std::vector<std::pair<std::string, std::string>> bindings_
      TACC_GUARDED_BY(mu_);
  std::shared_ptr<const util::FaultPlan> faults_ TACC_GUARDED_BY(mu_);
  BrokerStats stats_ TACC_GUARDED_BY(mu_);
  std::uint64_t next_tag_ TACC_GUARDED_BY(mu_) = 1;
  bool shutdown_ TACC_GUARDED_BY(mu_) = false;
};

}  // namespace tacc::transport
