// Node-to-node transports.
//
// The paper's testbed (section 5, fig. 1) is a 4-node PC cluster with a
// 1 Gb/s Myrinet switch and a 100 Mb/s Fast-Ethernet uplink. We do not
// have that hardware, so two substitutes are provided:
//   * InProcTransport — immediate, thread-safe delivery between nodes in
//     one process; used by the sequential and threaded drivers for
//     functional execution;
//   * SimTransport — virtual-time delivery under a configurable link
//     model (latency + size/bandwidth), used by the discrete-event
//     cluster driver to reproduce the paper's performance claims
//     (latency hiding, granularity limits, local-vs-remote cost).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <vector>

#include "support/doorbell.hpp"

namespace dityco::net {

struct Packet {
  std::uint32_t src_node = 0;
  std::uint32_t dst_node = 0;
  std::vector<std::uint8_t> bytes;
};

class Transport {
 public:
  virtual ~Transport() = default;

  /// Enqueue a packet.
  ///
  /// Clock contract: `now_us` is the sender's *virtual* clock and is
  /// only meaningful to virtual-time transports (SimTransport uses it
  /// to stamp arrival times). Real transports — InProcTransport,
  /// TcpTransport — run on the wall clock and ignore the argument
  /// entirely; callers must not encode ordering or delay assumptions
  /// into it. The same holds for `recv`'s `now_us`.
  virtual void send(Packet p, double now_us) = 0;

  /// Pop one deliverable packet for `node`. `now_us` is the receiver's
  /// clock; packets still "in the wire" at that time are not returned.
  virtual bool recv(std::uint32_t node, Packet& out, double now_us) = 0;

  /// Packets sent but not yet received (for quiescence detection).
  virtual std::size_t in_flight() const = 0;

  /// Stop any background machinery (I/O threads, sockets) and release
  /// waiters blocked in send(). Idempotent; default is a no-op for
  /// passive transports. Drivers call this before tearing down nodes so
  /// a teardown-time quiescence scan cannot race a live I/O thread.
  virtual void shutdown() {}

  /// True when this transport reaches peers *outside* the current
  /// process (tycod over TCP). Remote transports make quiescence
  /// fundamentally approximate — packets can be on another machine's
  /// queue — so drivers extend their drain grace period and keep
  /// serving until the remote side goes idle too.
  virtual bool remote() const { return false; }

  /// Earliest arrival time of any undelivered packet for `node`
  /// (virtual-time transports only; nullopt when none or not simulated).
  virtual std::optional<double> next_arrival(std::uint32_t node) const {
    (void)node;
    return std::nullopt;
  }

  /// Ring `bell` whenever a packet for `node` lands, so the node's
  /// daemon can park between packets instead of polling (threaded
  /// driver). The bell is rung while the inbox lock is held, so a pump
  /// that pops the packet also sees the ring. Virtual-time transports
  /// are driven by one thread and keep the default no-op.
  virtual void set_doorbell(std::uint32_t node, Doorbell* bell) {
    (void)node;
    (void)bell;
  }

  /// Total bytes ever sent (benchmark accounting).
  virtual std::uint64_t bytes_sent() const = 0;
  virtual std::uint64_t packets_sent() const = 0;
};

/// Immediate delivery with per-node FIFO inboxes; thread safe.
class InProcTransport : public Transport {
 public:
  explicit InProcTransport(std::size_t nodes)
      : inboxes_(nodes), bells_(nodes, nullptr) {}

  void send(Packet p, double now_us) override;
  void set_doorbell(std::uint32_t node, Doorbell* bell) override;
  bool recv(std::uint32_t node, Packet& out, double now_us) override;
  std::size_t in_flight() const override;
  std::uint64_t bytes_sent() const override { return bytes_; }
  std::uint64_t packets_sent() const override { return packets_; }

  /// Fault injection: packets the filter claims are silently discarded
  /// at send time (a lossy link). The filter runs under the transport
  /// mutex, so it must not call back into the transport.
  void set_drop_filter(std::function<bool(const Packet&)> f);
  std::uint64_t dropped() const;

 private:
  mutable std::mutex mu_;
  std::vector<std::deque<Packet>> inboxes_;
  std::vector<Doorbell*> bells_;  // per destination node, may be null
  std::function<bool(const Packet&)> drop_;
  std::size_t in_flight_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t packets_ = 0;
  std::uint64_t dropped_ = 0;
};

/// Point-to-point link cost model: one-way delivery time for a packet.
struct LinkModel {
  double latency_us = 10.0;       // per-packet switch + wire latency
  double bandwidth_mbps = 1000.0; // megabits per second
  double per_packet_cpu_us = 1.0; // daemon marshal/dispatch overhead

  double cost_us(std::size_t bytes) const {
    // 1 Mbit/s == 1 bit/us, so bits / Mbps yields microseconds.
    return latency_us + per_packet_cpu_us +
           static_cast<double>(bytes) * 8.0 / bandwidth_mbps;
  }
};

/// The paper's 1 Gb/s Myrinet switch: low single-digit-microsecond-class
/// latency, 1000 Mb/s.
LinkModel myrinet();
/// The paper's 100 Mb/s Fast Ethernet uplink: ~an order of magnitude
/// worse latency and a tenth of the bandwidth.
LinkModel fast_ethernet();

/// Virtual-time transport: packets become visible to the receiver when
/// its clock passes send_time + link cost. Single-threaded use only
/// (driven by the discrete-event driver).
class SimTransport : public Transport {
 public:
  SimTransport(std::size_t nodes, LinkModel model)
      : model_(model), inboxes_(nodes) {}

  void send(Packet p, double now_us) override;
  bool recv(std::uint32_t node, Packet& out, double now_us) override;
  std::size_t in_flight() const override { return in_flight_; }
  std::optional<double> next_arrival(std::uint32_t node) const override;
  std::uint64_t bytes_sent() const override { return bytes_; }
  std::uint64_t packets_sent() const override { return packets_; }

  /// Inspect the head of a node's inbox without removing it (drivers need
  /// the destination site before deciding whether it may be delivered).
  const Packet* peek(std::uint32_t node, double& arrival_us) const;

  const LinkModel& model() const { return model_; }

  /// Per-packet extra delivery cost in µs, added on top of the link
  /// model (fault/latency injection for deterministic slow-path tests).
  void set_extra_cost(std::function<double(const Packet&)> f) {
    extra_cost_ = std::move(f);
  }

 private:
  struct Timed {
    double arrival_us;
    Packet packet;
  };

  LinkModel model_;
  std::function<double(const Packet&)> extra_cost_;
  std::vector<std::deque<Timed>> inboxes_;  // kept sorted by arrival
  std::size_t in_flight_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t packets_ = 0;
};

}  // namespace dityco::net
