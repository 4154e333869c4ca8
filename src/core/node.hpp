// A DiTyCO node (paper, section 5, fig. 4): a pool of sites plus the
// communication daemon TyCOd. One Node corresponds to one IP node of the
// cluster. The daemon logic is exposed as pump functions so that the
// three drivers (sequential, threaded, simulated) can execute it on their
// own schedule; in the threaded driver a dedicated daemon thread runs
// them, exactly as in the paper.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/nameservice.hpp"
#include "core/site.hpp"
#include "net/transport.hpp"
#include "obs/flight.hpp"
#include "obs/trace.hpp"
#include "support/doorbell.hpp"

namespace dityco::ns {
class LeaseCache;
class ShardRouter;
}  // namespace dityco::ns

namespace dityco::core {

/// Destination site id encoded in a packet header (for routing and for
/// the sim driver's clock accounting).
std::uint32_t packet_dst_site(const net::Packet& p);
/// True for packets addressed to the name service rather than a site.
bool packet_is_ns(const net::Packet& p);

class Node {
 public:
  /// A node hosts one NameService instance: the directory slice the
  /// shard router assigns it (everything on node 0 with one shard — the
  /// paper's central service) plus weak follower copies of its
  /// neighbour's slice.
  explicit Node(std::uint32_t id, obs::Registry* metrics = nullptr);

  std::uint32_t id() const { return id_; }

  /// Attach the directory (src/ns): `router` maps each key to its owning
  /// shard, and every site routes its name-service requests through it.
  /// `cache`, when non-null, is this node's lease cache; it also makes
  /// the hosted slice record lease holders so rebinds push kNsInvalidate
  /// frames. Must precede any name-service traffic.
  void set_ns_router(ns::ShardRouter* router, ns::LeaseCache* cache);
  /// Fold gossiped death advisories into the shard map (over TCP; called
  /// by the daemon thread when the transport's advisory set changes).
  /// Moves shard ownership and re-replicates our slice, but never evicts
  /// bindings or writes off credit — those wait for the local detector's
  /// own kPeerDown verdict.
  void ns_merge_dead(const std::vector<std::uint32_t>& dead,
                     net::Transport& t, double now_us);
  NameService& name_service() { return ns_; }
  const NameService& name_service() const { return ns_; }

  Site& add_site(const std::string& name);
  std::vector<std::unique_ptr<Site>>& sites() { return sites_; }
  const std::vector<std::unique_ptr<Site>>& sites() const { return sites_; }

  /// TyCOd, outbound half: drain one site's outgoing queue. Local
  /// destinations (same node) are delivered directly — the paper's
  /// shared-memory optimisation — while remote ones go to the transport.
  /// Returns packets moved.
  std::size_t pump_site_outgoing(net::Transport& t, std::size_t site_idx,
                                 double now_us);
  std::size_t pump_outgoing(net::Transport& t, double now_us);

  /// TyCOd, inbound half: drain the transport inbox and route. Returns
  /// packets moved.
  std::size_t pump_incoming(net::Transport& t, double now_us);

  /// Route one packet addressed to this node (from the transport or from
  /// a local site). Needs the transport to forward name-service replies.
  void route(net::Packet p, net::Transport& t, double now_us);

  /// The daemon's doorbell: every site's outgoing push rings it, and the
  /// transport rings it when a packet for this node lands.
  Doorbell& bell() { return bell_; }

  /// Packets delivered site-to-site within this node without touching the
  /// transport (the shared-memory optimisation of section 5).
  std::uint64_t local_deliveries() const { return local_deliveries_; }

  // -- observability --

  /// Enable event tracing on every current and future site of this node,
  /// plus a daemon-side ring recording packet send/recv and name-service
  /// traffic. The daemon ring is written only by whichever thread runs
  /// the pump functions (one thread per node in the threaded driver).
  /// `sample_every` > 1 keeps 1-in-N trace ids (see obs::trace_id_sampled);
  /// hops honour the wire-carried decision, so every site/daemon of the
  /// network agrees on the sampled id set regardless of who allocated it.
  void enable_tracing(std::size_t capacity, std::uint64_t sample_every = 1,
                      std::uint64_t sample_seed = 0);
  obs::TraceRing& daemon_ring() { return ring_; }
  const obs::TraceRing& daemon_ring() const { return ring_; }

  /// Tail-based retention: record *all* trace ids into the rings (the
  /// flight recorder decides post-hoc which survive) and attach the
  /// recorder to every current and future site. /trace re-filters to the
  /// sampled subset, so head sampling semantics are preserved.
  void set_flight(obs::FlightRecorder* f);
  /// Attach the SLO plane's request ledger to every current and future
  /// site (obs/slo.hpp; the Network owns the plane).
  void set_slo(obs::SloPlane* s);
  /// Enable the sampled VM profiler on every current and future site.
  void enable_profiling(std::uint64_t period);

 private:
  /// Failover: confirm `dead` in the shard map, evict its bindings from
  /// the local slice (pushing lease invalidations), and re-replicate
  /// every binding this node now owns as primary to its new follower.
  void ns_handle_dead(std::uint32_t dead, net::Transport& t, double now_us);
  /// Push a weak copy of every binding this node serves as primary to
  /// its current follower (replication repair after a map change).
  void ns_reshard(net::Transport& t, double now_us);

  std::uint64_t local_deliveries_ = 0;
  std::uint32_t id_;
  NameService ns_;
  obs::Registry* metrics_ = nullptr;
  ns::ShardRouter* router_ = nullptr;     // set by set_ns_router
  ns::LeaseCache* ns_cache_ = nullptr;    // this node's lease cache
  std::vector<std::unique_ptr<Site>> sites_;
  std::size_t trace_capacity_ = 0;  // 0 = tracing off for new sites
  std::uint64_t sample_every_ = 1, sample_seed_ = 0;
  obs::FlightRecorder* flight_ = nullptr;  // set by set_flight
  obs::SloPlane* slo_ = nullptr;           // set by set_slo
  std::uint64_t prof_period_ = 0;          // 0 = profiling off
  obs::TraceRing ring_;             // daemon-side events
  Doorbell bell_;
};

}  // namespace dityco::core
