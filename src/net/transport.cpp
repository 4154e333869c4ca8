#include "net/transport.hpp"

#include <algorithm>

namespace dityco::net {

void InProcTransport::send(Packet p, double /*now_us*/) {
  std::lock_guard<std::mutex> lk(mu_);
  if (drop_ && drop_(p)) {
    ++dropped_;
    return;
  }
  bytes_ += p.bytes.size();
  ++packets_;
  ++in_flight_;
  const std::uint32_t dst = p.dst_node;
  inboxes_.at(dst).push_back(std::move(p));
  if (bells_[dst] != nullptr) bells_[dst]->ring();
}

void InProcTransport::set_doorbell(std::uint32_t node, Doorbell* bell) {
  std::lock_guard<std::mutex> lk(mu_);
  bells_.at(node) = bell;
}

void InProcTransport::set_drop_filter(std::function<bool(const Packet&)> f) {
  std::lock_guard<std::mutex> lk(mu_);
  drop_ = std::move(f);
}

std::uint64_t InProcTransport::dropped() const {
  std::lock_guard<std::mutex> lk(mu_);
  return dropped_;
}

bool InProcTransport::recv(std::uint32_t node, Packet& out,
                           double /*now_us*/) {
  std::lock_guard<std::mutex> lk(mu_);
  auto& q = inboxes_.at(node);
  if (q.empty()) return false;
  out = std::move(q.front());
  q.pop_front();
  --in_flight_;
  return true;
}

std::size_t InProcTransport::in_flight() const {
  std::lock_guard<std::mutex> lk(mu_);
  return in_flight_;
}

LinkModel myrinet() { return LinkModel{10.0, 1000.0, 1.0}; }

LinkModel fast_ethernet() { return LinkModel{100.0, 100.0, 1.0}; }

void SimTransport::send(Packet p, double now_us) {
  double arrival = now_us + model_.cost_us(p.bytes.size());
  if (extra_cost_) arrival += extra_cost_(p);
  bytes_ += p.bytes.size();
  ++packets_;
  ++in_flight_;
  auto& q = inboxes_.at(p.dst_node);
  Timed t{arrival, std::move(p)};
  // Insert keeping arrival order (FIFO per link is preserved because
  // cost is monotone in send time for a fixed pair, but packets from
  // different senders interleave by arrival).
  auto it = std::upper_bound(
      q.begin(), q.end(), t,
      [](const Timed& a, const Timed& b) { return a.arrival_us < b.arrival_us; });
  q.insert(it, std::move(t));
}

bool SimTransport::recv(std::uint32_t node, Packet& out, double now_us) {
  auto& q = inboxes_.at(node);
  if (q.empty() || q.front().arrival_us > now_us) return false;
  out = std::move(q.front().packet);
  q.pop_front();
  --in_flight_;
  return true;
}

const Packet* SimTransport::peek(std::uint32_t node,
                                 double& arrival_us) const {
  const auto& q = inboxes_.at(node);
  if (q.empty()) return nullptr;
  arrival_us = q.front().arrival_us;
  return &q.front().packet;
}

std::optional<double> SimTransport::next_arrival(std::uint32_t node) const {
  const auto& q = inboxes_.at(node);
  if (q.empty()) return std::nullopt;
  return q.front().arrival_us;
}

}  // namespace dityco::net
