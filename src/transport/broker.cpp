#include "transport/broker.hpp"

#include <chrono>
#include <utility>

#include "util/strings.hpp"

namespace tacc::transport {

void Broker::declare_queue(const std::string& queue) {
  util::MutexLock lock(mu_);
  queues_.try_emplace(queue);
}

void Broker::bind(const std::string& queue, const std::string& pattern) {
  util::MutexLock lock(mu_);
  queues_.try_emplace(queue);
  bindings_.emplace_back(queue, pattern);
}

void Broker::set_fault_plan(std::shared_ptr<const util::FaultPlan> plan) {
  util::MutexLock lock(mu_);
  faults_ = std::move(plan);
}

void Broker::set_queue_limit(const std::string& queue,
                             std::size_t max_depth) {
  util::MutexLock lock(mu_);
  queues_[queue].limit = max_depth;
}

void Broker::set_watermarks(const std::string& queue, std::size_t high,
                            std::size_t low) {
  util::MutexLock lock(mu_);
  QueueState& q = queues_[queue];
  q.high_wm = high;
  q.low_wm = (high > 0 && low == 0) ? high / 2 : low;
  update_pause(q);
}

void Broker::update_pause(QueueState& q) {
  if (q.high_wm == 0) {
    q.paused = false;
    return;
  }
  if (!q.paused && q.messages.size() >= q.high_wm) {
    q.paused = true;
    ++stats_.resilience.paused_windows;
  } else if (q.paused && q.messages.size() <= q.low_wm) {
    q.paused = false;
    ++stats_.resilience.resumed_windows;
  }
}

bool Broker::publish_paused(const std::string& routing_key) const {
  util::MutexLock lock(mu_);
  for (const auto& [queue, pattern] : bindings_) {
    if (!key_matches(pattern, routing_key)) continue;
    const auto it = queues_.find(queue);
    if (it != queues_.end() && it->second.paused) return true;
  }
  return false;
}

bool Broker::queue_paused(const std::string& queue) const {
  util::MutexLock lock(mu_);
  const auto it = queues_.find(queue);
  return it != queues_.end() && it->second.paused;
}

bool Broker::key_matches(const std::string& pattern,
                         const std::string& key) noexcept {
  if (pattern == "#") return true;
  if (util::ends_with(pattern, ".*")) {
    const std::string_view prefix(pattern.data(), pattern.size() - 1);
    return util::starts_with(key, prefix) &&
           key.find('.', prefix.size()) == std::string::npos;
  }
  return pattern == key;
}

std::size_t Broker::publish(const std::string& routing_key,
                            std::string body) {
  return publish(routing_key, std::move(body), PublishInfo{});
}

std::size_t Broker::publish(const std::string& routing_key, std::string body,
                            const PublishInfo& info) {
  std::size_t routed = 0;
  {
    util::MutexLock lock(mu_);
    ++stats_.published;
    util::FaultDecision fault;
    if (faults_) {
      fault = faults_->decide(
          util::kFaultBrokerPublish,
          info.producer.empty() ? routing_key : info.producer,
          util::FaultPlan::salt(info.seq, info.attempt), info.now);
    }
    if (fault.drop) {
      // Lost in flight, detectably: the publish "connection" fails, so the
      // publisher can retry with a fresh attempt salt.
      ++stats_.resilience.injected_drops;
      return 0;
    }
    const int copies = fault.duplicate ? 2 : 1;
    // The last enqueued copy takes `body` by move; only fan-out to more
    // queues or an injected duplicate pays for a string copy.
    int remaining = 0;
    for (const auto& [queue, pattern] : bindings_) {
      if (key_matches(pattern, routing_key)) remaining += copies;
    }
    for (const auto& [queue, pattern] : bindings_) {
      if (!key_matches(pattern, routing_key)) continue;
      QueueState& q = queues_[queue];
      for (int c = 0; c < copies; ++c) {
        Message msg;
        msg.routing_key = routing_key;
        if (--remaining == 0) {
          msg.body = std::move(body);
        } else {
          msg.body = body;  // copy: fan-out to multiple queues
        }
        msg.delivery_tag = next_tag_++;
        msg.producer = info.producer;
        msg.seq = info.seq;
        msg.delay = fault.delay;
        msg.sim_time = info.now;
        if (q.limit > 0 && q.messages.size() >= q.limit) {
          q.dead_letters.push_back(std::move(msg));
          ++stats_.resilience.dead_lettered;
        } else {
          q.messages.push_back(std::move(msg));
        }
      }
      update_pause(q);
      if (fault.duplicate) ++stats_.resilience.injected_duplicates;
      if (fault.delay > 0) ++stats_.resilience.injected_delays;
      ++routed;
    }
    if (routed == 0) ++stats_.unroutable;
  }
  if (routed > 0) cv_.notify_all();
  return routed;
}

std::optional<Message> Broker::consume(const std::string& queue,
                                       std::chrono::milliseconds timeout) {
  util::MutexLock lock(mu_);
  // Determinism audit (DT001, allowlisted): real-time timeout for the
  // CondVar wait below; the message payload and order come from the
  // deterministic queue regardless of when the wait wakes.
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  auto it = queues_.find(queue);
  if (it == queues_.end()) {
    it = queues_.try_emplace(queue).first;
  }
  QueueState& q = it->second;
  while (q.messages.empty() && !shutdown_) {
    if (cv_.wait_until(mu_, deadline) == std::cv_status::timeout &&
        q.messages.empty()) {
      return std::nullopt;
    }
  }
  if (q.messages.empty()) return std::nullopt;
  Message msg = std::move(q.messages.front());
  q.messages.pop_front();
  ++msg.attempt;
  q.unacked.emplace(msg.delivery_tag, msg);
  ++stats_.delivered;
  update_pause(q);
  return msg;
}

void Broker::ack(const std::string& queue, std::uint64_t delivery_tag) {
  util::MutexLock lock(mu_);
  const auto it = queues_.find(queue);
  if (it == queues_.end()) return;
  if (it->second.unacked.erase(delivery_tag) > 0) ++stats_.acked;
}

void Broker::requeue(const std::string& queue, std::uint64_t delivery_tag) {
  {
    util::MutexLock lock(mu_);
    const auto it = queues_.find(queue);
    if (it == queues_.end()) return;
    const auto uit = it->second.unacked.find(delivery_tag);
    if (uit == it->second.unacked.end()) return;
    it->second.messages.push_front(std::move(uit->second));
    it->second.unacked.erase(uit);
    ++stats_.redelivered;
    update_pause(it->second);
  }
  cv_.notify_all();
}

std::size_t Broker::recover(const std::string& queue) {
  std::size_t moved = 0;
  {
    util::MutexLock lock(mu_);
    const auto it = queues_.find(queue);
    if (it == queues_.end()) return 0;
    QueueState& q = it->second;
    // Highest tag first so the lowest tag ends at the queue front: the
    // redeliveries replay in original order ahead of newer messages.
    for (auto uit = q.unacked.rbegin(); uit != q.unacked.rend(); ++uit) {
      q.messages.push_front(std::move(uit->second));
      ++moved;
    }
    stats_.redelivered += moved;
    q.unacked.clear();
    update_pause(q);
  }
  if (moved > 0) cv_.notify_all();
  return moved;
}

std::size_t Broker::depth(const std::string& queue) const {
  util::MutexLock lock(mu_);
  const auto it = queues_.find(queue);
  return it == queues_.end() ? 0 : it->second.messages.size();
}

std::size_t Broker::unacked_depth(const std::string& queue) const {
  util::MutexLock lock(mu_);
  const auto it = queues_.find(queue);
  return it == queues_.end() ? 0 : it->second.unacked.size();
}

std::size_t Broker::dead_letter_depth(const std::string& queue) const {
  util::MutexLock lock(mu_);
  const auto it = queues_.find(queue);
  return it == queues_.end() ? 0 : it->second.dead_letters.size();
}

std::vector<Message> Broker::drain_dead_letters(const std::string& queue) {
  util::MutexLock lock(mu_);
  const auto it = queues_.find(queue);
  if (it == queues_.end()) return {};
  std::vector<Message> out(
      std::make_move_iterator(it->second.dead_letters.begin()),
      std::make_move_iterator(it->second.dead_letters.end()));
  it->second.dead_letters.clear();
  return out;
}

BrokerStats Broker::stats() const {
  util::MutexLock lock(mu_);
  return stats_;
}

void Broker::shutdown() {
  {
    util::MutexLock lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
}

bool Broker::is_shut_down() const {
  util::MutexLock lock(mu_);
  return shutdown_;
}

}  // namespace tacc::transport
