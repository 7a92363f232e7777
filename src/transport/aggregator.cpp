#include "transport/aggregator.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <string_view>
#include <utility>

#include "collect/rawfile.hpp"
#include "transport/frame.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

namespace tacc::transport {

Aggregator::Aggregator(std::string name, std::vector<Broker*> children,
                       Broker& parent, std::string queue,
                       AggregatorOptions options,
                       std::shared_ptr<const util::FaultPlan> faults)
    : name_(std::move(name)),
      children_(std::move(children)),
      parent_(&parent),
      queue_(std::move(queue)),
      options_(std::move(options)),
      faults_(std::move(faults)),
      inflight_limit_(options_.batch_records * children_.size()) {
  thread_ = std::thread([this] { run(); });
}

Aggregator::~Aggregator() { stop(); }

void Aggregator::stop() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
}

AggregatorStats Aggregator::stats() const {
  util::MutexLock lock(mu_);
  return stats_;
}

std::size_t Aggregator::header_len_of(const std::string& host,
                                      const std::string& body) {
  const auto it = header_cache_.find(host);
  if (it != header_cache_.end() && util::starts_with(body, it->second)) {
    return it->second.size();
  }
  // First sight of this host (or its schemas changed): one real header
  // parse, then every later chunk is a prefix memcmp.
  collect::HostLog probe;
  const std::size_t off = probe.parse_header(body);
  header_cache_[host] = body.substr(0, off);
  return off;
}

void Aggregator::run() {
  using namespace std::chrono_literals;
  // Reclaim whatever a crashed predecessor left unacked before the first
  // consume, so its in-flight deliveries are not stranded.
  for (Broker* c : children_) c->recover(queue_);
  std::size_t rr = 0;
  while (!stop_.load()) {
    if (parent_->queue_paused(queue_)) {
      // Backpressure: stop pulling; the child queues grow, trip their own
      // watermarks, and the tiers below spool locally.
      idle_sweeps_.store(0);
      std::this_thread::sleep_for(1ms);
      continue;
    }
    bool any = false;
    for (std::size_t i = 0; i < children_.size() && !stop_.load(); ++i) {
      const std::size_t c = (rr + i) % children_.size();
      // Bounded burst per child for fairness across children.
      for (int burst = 0; burst < 256; ++burst) {
        auto msg = children_[c]->consume(queue_, 0ms);
        if (!msg) break;
        any = true;
        ingest(c, std::move(*msg));
        if (parent_->queue_paused(queue_)) break;
      }
    }
    if (!children_.empty()) rr = (rr + 1) % children_.size();
    try_flush_spool();
    if (any) {
      idle_sweeps_.store(0);
      continue;
    }
    // Idle sweep: close out every pending frame, replay the spool, then
    // block briefly for new input.
    flush_all();
    try_flush_spool();
    if (!children_.empty()) {
      auto msg = children_[rr]->consume(queue_, 2ms);
      if (msg) {
        idle_sweeps_.store(0);
        ingest(rr, std::move(*msg));
        continue;
      }
    }
    if (pending_records_.load() == 0) idle_sweeps_.fetch_add(1);
  }
}

void Aggregator::ingest(std::size_t child, Message msg) {
  {
    util::MutexLock lock(mu_);
    ++stats_.consumed;
  }
  if (AggFrame::is_frame(msg.body)) {
    AggFrame f;
    try {
      f = AggFrame::parse(msg.body);
    } catch (const std::exception& e) {
      {
        util::MutexLock lock(mu_);
        ++stats_.parse_errors;
      }
      children_[child]->ack(queue_, msg.delivery_tag);
      TS_LOG(Warn, "aggregator") << name_ << " frame parse error: " << e.what();
      return;
    }
    if (msg.delay > 0) {
      for (auto& d : f.delays) d += msg.delay;
    }
    {
      util::MutexLock lock(mu_);
      ++stats_.merged_frames;
      stats_.records_in += f.seqs.size();
    }
    const std::string_view payload(f.payload);
    append_pending(f.producer, payload.substr(0, f.header_len),
                   payload.substr(f.header_len), f.seqs, f.delays,
                   window_of(msg.sim_time), msg.sim_time, child,
                   msg.delivery_tag);
    return;
  }
  if (!msg.producer.empty()) {
    std::size_t hlen = 0;
    try {
      hlen = header_len_of(msg.producer, msg.body);
    } catch (const std::exception& e) {
      {
        util::MutexLock lock(mu_);
        ++stats_.parse_errors;
      }
      children_[child]->ack(queue_, msg.delivery_tag);
      TS_LOG(Warn, "aggregator") << name_ << " header parse error: "
                                 << e.what();
      return;
    }
    {
      util::MutexLock lock(mu_);
      ++stats_.records_in;
    }
    const std::string_view body(msg.body);
    append_pending(msg.producer, body.substr(0, hlen), body.substr(hlen),
                   {msg.seq}, {msg.delay}, window_of(msg.sim_time),
                   msg.sim_time, child, msg.delivery_tag);
    return;
  }
  // No end-to-end identity: pass through verbatim (preserving whatever
  // PublishInfo it carried) rather than coalescing.
  forward_verbatim(child, msg);
}

void Aggregator::append_pending(const std::string& host,
                                std::string_view header,
                                std::string_view records,
                                const std::vector<std::uint64_t>& seqs,
                                const std::vector<util::SimTime>& delays,
                                util::SimTime window_id,
                                util::SimTime max_time, std::size_t child,
                                std::uint64_t tag) {
  // A crash in any flush below requeues this delivery with the rest, so
  // it is dropped here and rebuilt from the redelivery.
  auto it = pending_.find(host);
  if (it != pending_.end() && !it->second.seqs.empty() &&
      (it->second.window_id != window_id || it->second.header != header)) {
    // Window rolled over (or the host's schemas changed): close the open
    // frame before starting the next one.
    if (!flush_host(host)) return;
    it = pending_.end();
  }
  if (inflight_limit_ > 0 &&
      pending_records_.load() + seqs.size() > inflight_limit_) {
    // In-flight bound: flush the oldest-opened frames until this delivery
    // fits, so a crash requeues at most one bound's worth.
    while (!open_order_.empty() &&
           pending_records_.load() + seqs.size() > inflight_limit_) {
      if (!flush_host(open_order_.begin()->second)) return;
    }
    it = pending_.find(host);
  }
  if (it == pending_.end()) it = pending_.try_emplace(host).first;
  PendingFrame& p = it->second;
  if (p.seqs.empty()) {
    p.header.assign(header);
    p.window_id = window_id;
    p.max_time = 0;
    p.opened = ++open_seq_;
    open_order_.emplace(p.opened, host);
  }
  p.records.append(records);
  p.seqs.insert(p.seqs.end(), seqs.begin(), seqs.end());
  p.delays.insert(p.delays.end(), delays.begin(), delays.end());
  p.max_time = std::max(p.max_time, max_time);
  p.acks.emplace_back(child, tag);
  pending_records_.fetch_add(seqs.size());
  if (options_.batch_records > 0 && p.seqs.size() >= options_.batch_records) {
    flush_host(host);
  }
}

bool Aggregator::flush_host(std::string host) {
  const auto it = pending_.find(host);
  if (it == pending_.end() || it->second.seqs.empty()) return true;
  PendingFrame p = std::move(it->second);
  pending_.erase(it);
  open_order_.erase(p.opened);
  pending_records_.fetch_sub(p.seqs.size());

  AggFrame f;
  f.producer = host;
  f.seqs = std::move(p.seqs);
  f.delays = std::move(p.delays);
  f.header_len = p.header.size();
  f.payload = std::move(p.header);
  f.payload += p.records;
  const std::size_t n = f.seqs.size();
  std::string body = f.serialize();
  const std::uint64_t fseq = ++frame_seq_;
  const std::string rk = options_.routing_prefix + host;

  // A non-empty spool means older frames are still waiting: spool behind
  // them so per-host record order survives (the daemon's rule, one tier
  // up).
  if (spool_.empty() &&
      try_publish(rk, body, name_, fseq, fseq, p.max_time, 0)) {
    if (faults_) {
      const auto fault = faults_->decide(util::kFaultAggregatorCrash, name_,
                                         util::FaultPlan::salt(fseq, 0),
                                         p.max_time);
      if (fault.error) {
        // Crash after the upward publish, before acking the children: the
        // frame is safe upstream, the children redeliver everything
        // unacked, and the root's per-record dedup absorbs the overlap.
        crash_recover();
        return false;
      }
    }
    for (const auto& [c, tag] : p.acks) children_[c]->ack(queue_, tag);
    util::MutexLock lock(mu_);
    ++stats_.frames_out;
    stats_.records_out += n;
    return true;
  }
  // Retries exhausted (or queued behind the spool): take ownership of the
  // records — ack the children — and park the frame locally for replay.
  for (const auto& [c, tag] : p.acks) children_[c]->ack(queue_, tag);
  spool_.push_back(
      SpooledFrame{rk, std::move(body), name_, fseq, fseq, n, p.max_time});
  spool_records_.fetch_add(n);
  {
    util::MutexLock lock(mu_);
    stats_.resilience.spooled += n;
  }
  enforce_spool_limit();
  return true;
}

void Aggregator::flush_all() {
  // std::map: deterministic flush order (host-sorted).
  while (true) {
    auto it = std::find_if(pending_.begin(), pending_.end(),
                           [](const auto& kv) {
                             return !kv.second.seqs.empty();
                           });
    if (it == pending_.end()) break;
    flush_host(it->first);
  }
}

void Aggregator::enforce_spool_limit() {
  const std::size_t limit = options_.retry.spool_limit;
  if (limit == 0) return;
  while (spool_records_.load() > limit && spool_.size() > 1) {
    const std::size_t n = spool_.front().records;
    spool_.pop_front();  // oldest data ages out of a full spool
    spool_records_.fetch_sub(n);
    util::MutexLock lock(mu_);
    stats_.resilience.spool_dropped += n;
  }
}

void Aggregator::try_flush_spool() {
  if (spool_.empty() || parent_->queue_paused(queue_)) return;
  // Each replay round offsets the attempt salt, so a frame whose original
  // attempts all drew errors rolls fresh dice instead of failing forever.
  ++replay_round_;
  const auto attempts =
      static_cast<std::uint64_t>(std::max(1, options_.retry.max_attempts));
  while (!spool_.empty()) {
    const SpooledFrame& f = spool_.front();
    if (!try_publish(f.routing_key, f.body, f.producer, f.seq, f.fault_seq,
                     f.now, replay_round_ * attempts)) {
      break;
    }
    spool_records_.fetch_sub(f.records);
    {
      util::MutexLock lock(mu_);
      stats_.resilience.replayed += f.records;
    }
    spool_.pop_front();
  }
}

bool Aggregator::try_publish(const std::string& routing_key,
                             const std::string& body,
                             const std::string& producer, std::uint64_t seq,
                             std::uint64_t fault_seq, util::SimTime now,
                             std::uint64_t slot_base) {
  const int attempts = std::max(1, options_.retry.max_attempts);
  util::SimTime backoff = options_.retry.backoff_base;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    const std::uint64_t slot = slot_base + static_cast<std::uint64_t>(attempt);
    if (attempt > 0) {
      // Exponential backoff with deterministic jitter, virtual like the
      // daemon's: accounted, not slept.
      util::SimTime wait = backoff;
      if (faults_ && options_.retry.jitter > 0.0) {
        const double u = faults_->uniform(util::kFaultAggregatorPublish,
                                          name_,
                                          util::FaultPlan::salt(fault_seq,
                                                                slot));
        wait += static_cast<util::SimTime>(
            static_cast<double>(wait) * options_.retry.jitter *
            (2.0 * u - 1.0));
      }
      backoff = std::min(backoff * 2, options_.retry.backoff_max);
      util::MutexLock lock(mu_);
      ++stats_.resilience.retries;
      stats_.total_backoff += wait;
    }
    if (faults_) {
      const auto fault = faults_->decide(util::kFaultAggregatorPublish, name_,
                                         util::FaultPlan::salt(fault_seq,
                                                               slot),
                                         now);
      if (fault.error) {
        util::MutexLock lock(mu_);
        ++stats_.resilience.injected_errors;
        continue;
      }
    }
    PublishInfo info;
    info.producer = producer;
    info.seq = seq;
    info.attempt = static_cast<std::uint32_t>(slot);
    info.now = now;
    if (parent_->publish(routing_key, body, info) > 0) return true;
  }
  return false;
}

void Aggregator::crash_recover() {
  std::size_t lost = 0;
  for (const auto& [host, p] : pending_) lost += p.seqs.size();
  pending_.clear();
  open_order_.clear();
  pending_records_.fetch_sub(lost);
  // A restarted aggregator reclaims nothing in memory; the children
  // requeue every unacked delivery (in order) and the pending frames
  // rebuild from the redeliveries. The spool is the node-local durable
  // store and survives, like the daemon's.
  std::size_t requeued = 0;
  for (Broker* c : children_) requeued += c->recover(queue_);
  util::MutexLock lock(mu_);
  ++stats_.crashes;
  stats_.resilience.requeued += requeued;
}

void Aggregator::forward_verbatim(std::size_t child, const Message& msg) {
  {
    util::MutexLock lock(mu_);
    ++stats_.forwarded;
  }
  const std::uint64_t fseq = ++frame_seq_;
  if (spool_.empty() && try_publish(msg.routing_key, msg.body, msg.producer,
                                    msg.seq, fseq, msg.sim_time, 0)) {
    children_[child]->ack(queue_, msg.delivery_tag);
    return;
  }
  children_[child]->ack(queue_, msg.delivery_tag);
  spool_.push_back(SpooledFrame{msg.routing_key, msg.body, msg.producer,
                                msg.seq, fseq, 1, msg.sim_time});
  spool_records_.fetch_add(1);
  {
    util::MutexLock lock(mu_);
    stats_.resilience.spooled += 1;
  }
  enforce_spool_limit();
}

}  // namespace tacc::transport
