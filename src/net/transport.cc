#include "net/transport.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "net/fault_model.h"

namespace unicc {

SimTransport::SimTransport(Simulator* sim, NetworkOptions options, Rng rng,
                           const FaultModel* faults)
    : sim_(sim), options_(options), rng_(rng), faults_(faults) {
  UNICC_CHECK(sim != nullptr);
  UNICC_CHECK_MSG(faults == nullptr || faults->Active(),
                  "a transport's fault model must be active");
}

void SimTransport::RegisterSite(SiteId site, SiteHandler handler) {
  if (handlers_.size() <= site) handlers_.resize(site + 1);
  handlers_[site] = std::move(handler);
}

Duration SimTransport::DelayFor(SiteId from, SiteId to) {
  if (from == to) return options_.local_delay;
  Duration d = options_.base_delay;
  if (options_.jitter_mean > 0) {
    d += static_cast<Duration>(
        rng_.Exponential(static_cast<double>(options_.jitter_mean)));
  }
  return d;
}

std::uint32_t SimTransport::AcquireNode(Message m) {
  if (!pool_free_.empty()) {
    const std::uint32_t node = pool_free_.back();
    pool_free_.pop_back();
    pool_[node] = std::move(m);
    return node;
  }
  pool_.push_back(std::move(m));
  return static_cast<std::uint32_t>(pool_.size() - 1);
}

void SimTransport::Deliver(SiteId from, SiteId to, std::uint32_t node) {
  // Move the message out and recycle the node before invoking the handler:
  // handlers send messages of their own, which may grow the pool.
  Message m = std::move(pool_[node]);
  pool_free_.push_back(node);
  handlers_[to](from, m);
}

void SimTransport::Account(const Message& m, bool remote) {
  ++total_messages_;
  if (remote) ++remote_messages_;
  ++by_kind_[m.index()];
}

void SimTransport::ScheduleDelivery(SimTime when, SiteId from, SiteId to,
                                    Message m) {
  const std::uint32_t node = AcquireNode(std::move(m));
  sim_->ScheduleAt(when, [this, from, to, node]() {
    Deliver(from, to, node);
  });
}

SimTime SimTransport::ClampFifo(SiteId from, SiteId to, SimTime deliver) {
  if (!options_.fifo_per_channel) return deliver;
  // `from` needs no handler, so the matrix covers it explicitly.
  const std::size_t n =
      std::max(handlers_.size(), static_cast<std::size_t>(from) + 1);
  if (channel_stride_ < n) {
    // Sites register before the first send; on the rare late
    // registration, rebuild the (from, to) matrix preserving entries.
    std::vector<SimTime> grown(n * n, 0);
    for (std::size_t f = 0; f < channel_stride_; ++f) {
      for (std::size_t t = 0; t < channel_stride_; ++t) {
        grown[f * n + t] = last_delivery_[f * channel_stride_ + t];
      }
    }
    last_delivery_ = std::move(grown);
    channel_stride_ = n;
  }
  SimTime& last = last_delivery_[from * channel_stride_ + to];
  if (deliver <= last) deliver = last + 1;
  last = deliver;
  return deliver;
}

void SimTransport::Send(SiteId from, SiteId to, Message m) {
  UNICC_CHECK_MSG(to < handlers_.size() && handlers_[to],
                  "message sent to unregistered site");
  if (faults_ != nullptr) {
    SendWithFaults(from, to, std::move(m));
    return;
  }
  Account(m, from != to);
  const Duration delay = DelayFor(from, to);
  const SimTime deliver = ClampFifo(from, to, sim_->Now() + delay);
  const std::uint32_t node = AcquireNode(std::move(m));
  sim_->ScheduleAt(deliver, [this, from, to, node]() {
    Deliver(from, to, node);
  });
}

bool SimTransport::CrashAdjust(MessageKind kind, SiteId from, SiteId to,
                               std::uint64_t seq, SimTime* deliver) {
  if (!faults_->DownAt(to, *deliver)) return true;
  if (!FaultModel::Reliable(kind)) return false;
  // "Retransmit until acked": the message lands one fresh link delay
  // after the receiver recovers.
  *deliver =
      faults_->RecoverTime(to, *deliver) + faults_->LinkDelay(from, to, seq);
  return true;
}

void SimTransport::SendWithFaults(SiteId from, SiteId to, Message m) {
  const MessageKind kind = KindOf(m);
  const std::uint64_t seq =
      fault_seq_[(static_cast<std::uint64_t>(from) << 32) | to]++;
  Account(m, from != to);
  SimTime deliver = sim_->Now() + faults_->LinkDelay(from, to, seq);
  const FaultModel::Decision d = faults_->Decide(kind, from, to, seq);
  if (d.drop) {
    ++dropped_;
    return;
  }
  deliver += d.extra;
  if (!CrashAdjust(kind, from, to, seq, &deliver)) {
    ++dropped_;
    return;
  }
  Message copy;
  if (d.duplicate) copy = m;
  deliver = ClampFifo(from, to, deliver);
  ScheduleDelivery(deliver, from, to, std::move(m));
  if (d.duplicate) {
    ++duplicated_;
    Account(copy, from != to);
    const SimTime dup = ClampFifo(from, to, deliver + d.dup_extra);
    ScheduleDelivery(dup, from, to, std::move(copy));
  }
}

void SimTransport::ResetCounters() {
  total_messages_ = 0;
  remote_messages_ = 0;
  dropped_ = 0;
  duplicated_ = 0;
  by_kind_.fill(0);
}

}  // namespace unicc
