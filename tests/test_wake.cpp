// Wake-on-push: the doorbell (support/doorbell.hpp), the transports that
// ring it, and the threaded driver that parks on it.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>

#include "core/network.hpp"
#include "net/tcp.hpp"
#include "net/transport.hpp"
#include "support/doorbell.hpp"

namespace dityco {
namespace {

using Clock = std::chrono::steady_clock;
using namespace std::chrono_literals;

// A counted mailbox whose consumer parks as soon as it finds nothing —
// no yield streak — so every round goes through the futex path.
struct Mailbox {
  std::mutex mu;
  int items = 0;
  Doorbell bell;
  std::uint64_t parks = 0, expiries = 0;  // consumer thread only

  void post() {
    std::lock_guard<std::mutex> lk(mu);
    ++items;
    bell.ring();
  }
  void take() {
    for (;;) {
      const Doorbell::Ticket t = bell.ticket();
      {
        std::lock_guard<std::mutex> lk(mu);
        if (items > 0) {
          --items;
          return;
        }
      }
      ++parks;
      if (!bell.wait(t, 1s)) ++expiries;
    }
  }
};

TEST(Doorbell, PingPongHundredThousandRoundsNeverWaitsOutTheBackstop) {
  constexpr int kRounds = 100'000;
  Mailbox ping, pong;
  std::thread echo([&] {
    for (int i = 0; i < kRounds; ++i) {
      ping.take();
      pong.post();
    }
  });
  for (int i = 0; i < kRounds; ++i) {
    ping.post();
    pong.take();
  }
  echo.join();
  EXPECT_EQ(ping.expiries + pong.expiries, 0u);
  EXPECT_EQ(ping.items, 0);
  EXPECT_EQ(pong.items, 0);
  EXPECT_GT(ping.parks + pong.parks, 0u) << "the futex path must be taken";
}

TEST(Doorbell, RingAfterTicketVoidsThePark) {
  Doorbell bell;
  const Doorbell::Ticket t = bell.ticket();
  EXPECT_FALSE(bell.rung_since(t));
  bell.ring();
  EXPECT_TRUE(bell.rung_since(t));
  const auto t0 = Clock::now();
  EXPECT_TRUE(bell.wait(t, 10s));
  EXPECT_LT(Clock::now() - t0, 1s);
}

TEST(Doorbell, BackstopEndsAnUnrungPark) {
  Doorbell bell;
  const auto t0 = Clock::now();
  EXPECT_FALSE(bell.wait(bell.ticket(), 2ms));
  EXPECT_GE(Clock::now() - t0, 2ms);
}

TEST(Doorbell, RingWakesAParkedThread) {
  Doorbell bell;
  std::atomic<bool> woke{false};
  const Doorbell::Ticket t = bell.ticket();
  std::thread waiter([&] { woke = bell.wait(t, 10s); });
  std::this_thread::sleep_for(5ms);
  const auto t0 = Clock::now();
  bell.ring();
  waiter.join();
  EXPECT_TRUE(woke.load());
  EXPECT_LT(Clock::now() - t0, 1s);
}

// ---------------------------------------------------------------------
// Transports ring the destination node's bell
// ---------------------------------------------------------------------

TEST(TransportBell, InProcRingsOnlyTheDestination) {
  net::InProcTransport t(2);
  Doorbell b0, b1;
  t.set_doorbell(0, &b0);
  t.set_doorbell(1, &b1);
  const auto t0 = b0.ticket(), t1 = b1.ticket();
  t.send(net::Packet{0, 1, {1, 2, 3}}, 0);
  EXPECT_FALSE(b0.rung_since(t0));
  EXPECT_TRUE(b1.rung_since(t1));
  net::Packet p;
  EXPECT_TRUE(t.recv(1, p, 0));
}

TEST(TransportBell, TcpMeshRingsWhenTheFrameLands) {
  net::TcpMeshTransport t(2);
  Doorbell b1;
  t.set_doorbell(1, &b1);
  const auto ticket = b1.ticket();
  t.send(net::Packet{0, 1, {7, 7, 7, 7, 7}}, 0);
  ASSERT_TRUE(b1.wait(ticket, 10s)) << "the I/O thread must ring";
  net::Packet p;
  ASSERT_TRUE(t.recv(1, p, 0));
  EXPECT_EQ(p.bytes.size(), 5u);
  t.shutdown();
}

TEST(TransportBell, SitesRingTheirExecutorAndTheirDaemon) {
  core::Network net;  // sequential: rings are plain increments here
  net.add_node();
  net.add_site(0, "a");
  net.add_site(0, "b");
  Doorbell& daemon = net.nodes()[0]->bell();
  Doorbell& b = net.find_site("b")->bell();
  const auto td = daemon.ticket(), tb = b.ticket();
  net.submit_network_source(
      "site a { import p from b in p![1] }\n"
      "site b { export new p in p?(x) = print[x] }");
  ASSERT_TRUE(net.run().quiescent);
  EXPECT_EQ(net.output("b"), std::vector<std::string>{"1"});
  EXPECT_TRUE(daemon.rung_since(td)) << "Site::send_packet rings the daemon";
  EXPECT_TRUE(b.rung_since(tb)) << "Site::push_incoming rings the executor";
}

// ---------------------------------------------------------------------
// The threaded driver parks on the bells and never loses a wakeup
// ---------------------------------------------------------------------

std::uint64_t counter(const core::Network& net, const std::string& name) {
  const auto snap = net.metrics().snapshot(/*live_only=*/true);
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

TEST(ThreadedWake, InProcRpcChainNeverWaitsOutABackstop) {
  core::Network::Config cfg;
  cfg.mode = core::Network::Mode::kThreaded;
  cfg.timeout_ms = 30'000;
  core::Network net(cfg);
  net.add_node();
  net.add_node();
  net.add_site(0, "server");
  net.add_site(1, "client");
  // 300 request/reply round trips in sequence: every hop is an
  // executor -> daemon -> daemon -> executor handoff.
  net.submit_network_source(
      "site server { export new p in "
      "def Serve(self) = self?{ val(x, r) = (r![x + 1] | Serve[self]) } "
      "in Serve[p] }\n"
      "site client { import p from server in "
      "def Loop(n, acc) = if n == 0 then print[acc] else "
      "new r (p!val[acc, r] | r?(v) = Loop[n - 1, v]) in Loop[300, 0] }");
  const auto t0 = Clock::now();
  const auto res = net.run();
  const auto took = Clock::now() - t0;
  ASSERT_TRUE(res.quiescent);
  EXPECT_TRUE(net.all_errors().empty());
  EXPECT_EQ(net.output("client"), std::vector<std::string>{"300"});
  EXPECT_EQ(counter(net, "driver_park_backstops_total"), 0u);
  EXPECT_LT(took, 20s);
}

TEST(ThreadedWake, ParkedThreadsStopPromptly) {
  // Many short runs: each ends with every thread parked, and stopping
  // must ring them awake rather than wait out a backstop each.
  core::Network::Config cfg;
  cfg.mode = core::Network::Mode::kThreaded;
  core::Network net(cfg);
  net.add_node();
  net.add_site(0, "a");
  for (int i = 0; i < 20; ++i) {
    net.submit_source("a", "print[1]");
    ASSERT_TRUE(net.run().quiescent);
  }
  EXPECT_EQ(net.output("a").size(), 20u);
  EXPECT_EQ(counter(net, "driver_park_backstops_total"), 0u);
}

}  // namespace
}  // namespace dityco
