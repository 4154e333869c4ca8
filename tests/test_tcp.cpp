// The TCP transport and its failure machinery (docs/NETWORKING.md):
// framing against partial reads, the phi-accrual detector on a fake
// clock, loopback socket pairs, reconnect after a peer restart,
// backpressure, confirmed-death frames, the GC write-off they trigger,
// and two real tycod processes completing SHIPO/FETCH over loopback —
// including one being SIGKILLed mid-run.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <map>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/network.hpp"
#include "core/wire.hpp"
#include "net/failure.hpp"
#include "net/tcp.hpp"
#include "obs/fleet.hpp"
#include "obs/trace.hpp"
#include "support/bytes.hpp"
#include "vm/machine.hpp"

namespace dityco {
namespace {

using net::FrameKind;
using net::FrameParser;
using net::PhiAccrualDetector;
using net::TcpConfig;
using net::TcpTransport;

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

std::vector<std::uint8_t> payload_of(char kind, const std::string& body) {
  std::vector<std::uint8_t> p;
  p.push_back(static_cast<std::uint8_t>(kind));
  p.insert(p.end(), body.begin(), body.end());
  return p;
}

TEST(Framing, RoundTripByteAtATime) {
  const auto a = payload_of(2, "hello");
  const auto b = payload_of(3, std::string(1000, 'x'));
  std::vector<std::uint8_t> stream;
  for (const auto* p : {&a, &b}) {
    const auto f = net::encode_frame(*p);
    stream.insert(stream.end(), f.begin(), f.end());
  }
  FrameParser parser;
  std::vector<std::vector<std::uint8_t>> out;
  // TCP has no message boundaries: feed the worst case, one byte per
  // read, and expect the exact payload sequence back.
  for (std::uint8_t byte : stream) ASSERT_TRUE(parser.feed(&byte, 1, out));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], a);
  EXPECT_EQ(out[1], b);
  EXPECT_EQ(parser.buffered(), 0u);
}

TEST(Framing, ManyFramesOneRead) {
  std::vector<std::uint8_t> stream;
  for (int i = 0; i < 50; ++i) {
    const auto f = net::encode_frame(payload_of(2, std::to_string(i)));
    stream.insert(stream.end(), f.begin(), f.end());
  }
  FrameParser parser;
  std::vector<std::vector<std::uint8_t>> out;
  ASSERT_TRUE(parser.feed(stream.data(), stream.size(), out));
  ASSERT_EQ(out.size(), 50u);
  EXPECT_EQ(out[49], payload_of(2, "49"));
}

TEST(Framing, OversizedFramePoisonsStream) {
  // A hostile length prefix must not become an allocation.
  std::uint32_t len = net::kMaxFrameBytes + 1;
  std::uint8_t hdr[4];
  std::memcpy(hdr, &len, 4);
  FrameParser parser;
  std::vector<std::vector<std::uint8_t>> out;
  EXPECT_FALSE(parser.feed(hdr, 4, out));
  EXPECT_TRUE(parser.error());
  EXPECT_TRUE(out.empty());
}

TEST(Framing, ZeroLengthFrameIsError) {
  std::uint8_t hdr[4] = {0, 0, 0, 0};
  FrameParser parser;
  std::vector<std::vector<std::uint8_t>> out;
  EXPECT_FALSE(parser.feed(hdr, 4, out));
}

TEST(Framing, ConsumeWrittenKeepsAlignment) {
  net::BufferPool pool;
  const auto f1 = net::encode_frame(payload_of(2, "first"));
  const auto f2 = net::encode_frame(payload_of(2, "second!"));
  std::deque<net::BufPtr> q;
  q.push_back(std::make_unique<net::Buf>(f1));
  q.push_back(std::make_unique<net::Buf>(f2));
  // Mid-frame: nothing may be popped — a disconnect must be able to
  // rewind to the start of the partially written frame and resend it
  // whole, or the reconnect stream would carry a dangling tail.
  std::size_t wr = 0;
  net::consume_written(q, wr, f1.size() - 2, pool);
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(wr, f1.size() - 2);
  // Past the first frame boundary: exactly that frame goes (back to the
  // pool), the offset lands inside the new head frame.
  net::consume_written(q, wr, 2 + 3, pool);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(wr, 3u);
  EXPECT_EQ(pool.stats().free_buffers, 1u);
  // Everything written: the queue drains completely, offset back to 0.
  net::consume_written(q, wr, f2.size() - 3, pool);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(wr, 0u);
  EXPECT_EQ(pool.stats().free_buffers, 2u);
}

TEST(Framing, GatherFramesHonoursBudgetsAndOffset) {
  std::deque<net::BufPtr> q;
  std::vector<std::size_t> sizes;
  for (int i = 0; i < 6; ++i) {
    const auto f =
        net::encode_frame(payload_of(2, std::string(10 + i, 'x')));
    sizes.push_back(f.size());
    q.push_back(std::make_unique<net::Buf>(f));
  }
  struct iovec iov[net::kIovMax];
  // Unbounded budgets: every frame gathers, head offset honoured.
  std::size_t cnt = net::gather_frames(q, 3, 1u << 20, 64, iov, net::kIovMax);
  ASSERT_EQ(cnt, 6u);
  EXPECT_EQ(iov[0].iov_len, sizes[0] - 3);
  EXPECT_EQ(iov[0].iov_base, q[0]->data() + 3);
  EXPECT_EQ(iov[5].iov_len, sizes[5]);
  // Frame budget: flush_frames = 1 is the one-write-per-frame path.
  cnt = net::gather_frames(q, 0, 1u << 20, 1, iov, net::kIovMax);
  EXPECT_EQ(cnt, 1u);
  // Byte budget: stop once the gathered bytes cross flush_bytes — but
  // always make progress (at least one frame).
  cnt = net::gather_frames(q, 0, sizes[0] + 1, 64, iov, net::kIovMax);
  EXPECT_EQ(cnt, 2u);
  cnt = net::gather_frames(q, 0, 1, 64, iov, net::kIovMax);
  EXPECT_EQ(cnt, 1u);
}

TEST(Framing, CoalescedBatchSplitAtEveryBoundary) {
  // A coalesced writev lands many frames in one TCP segment, but the
  // receiver may still wake at any byte offset. Split the batch at
  // every position and demand identical output.
  std::vector<std::vector<std::uint8_t>> frames;
  std::vector<std::uint8_t> stream;
  for (int i = 0; i < 8; ++i) {
    auto p = payload_of(2, "b" + std::to_string(i) + std::string(i * 3, 'y'));
    frames.push_back(p);
    const auto f = net::encode_frame(p);
    stream.insert(stream.end(), f.begin(), f.end());
  }
  for (std::size_t split = 0; split <= stream.size(); ++split) {
    FrameParser parser;
    std::vector<std::vector<std::uint8_t>> out;
    ASSERT_TRUE(parser.feed(stream.data(), split, out));
    ASSERT_TRUE(
        parser.feed(stream.data() + split, stream.size() - split, out));
    ASSERT_EQ(out.size(), frames.size()) << "split at " << split;
    for (std::size_t i = 0; i < frames.size(); ++i)
      EXPECT_EQ(out[i], frames[i]) << "split at " << split;
    EXPECT_EQ(parser.buffered(), 0u);
  }
}

TEST(Framing, FuzzRandomChunksNeverTearFrames) {
  // Randomized read-boundary torture: random frame batches, possibly
  // truncated mid-frame, fed in random slices. The parser must emit
  // exactly the whole frames the bytes contain — never a partial one —
  // and hold exactly the unconsumed tail.
  std::mt19937_64 rng(0xd117c0de5eedull);
  for (int round = 0; round < 200; ++round) {
    const std::size_t nf = 1 + rng() % 20;
    std::vector<std::vector<std::uint8_t>> frames;
    std::vector<std::uint8_t> stream;
    for (std::size_t i = 0; i < nf; ++i) {
      std::vector<std::uint8_t> p(1 + rng() % 600);
      for (auto& b : p) b = static_cast<std::uint8_t>(rng());
      frames.push_back(p);
      const auto f = net::encode_frame(p);
      stream.insert(stream.end(), f.begin(), f.end());
    }
    // Half the rounds stop mid-stream (a peer died mid-batch).
    const std::size_t cut =
        rng() % 2 ? stream.size() : rng() % (stream.size() + 1);
    FrameParser parser;
    std::vector<std::vector<std::uint8_t>> out;
    std::size_t off = 0;
    while (off < cut) {
      const std::size_t n = std::min<std::size_t>(1 + rng() % 97, cut - off);
      ASSERT_TRUE(parser.feed(stream.data() + off, n, out));
      off += n;
    }
    std::size_t consumed = 0, expect = 0;
    for (const auto& f : frames) {
      if (consumed + 4 + f.size() > cut) break;
      consumed += 4 + f.size();
      ++expect;
    }
    ASSERT_EQ(out.size(), expect) << "round " << round << " cut " << cut;
    for (std::size_t i = 0; i < expect; ++i)
      EXPECT_EQ(out[i], frames[i]) << "round " << round;
    EXPECT_EQ(parser.buffered(), cut - consumed) << "round " << round;
    EXPECT_FALSE(parser.error());
  }
}

TEST(Framing, FuzzGarbageNeverCrashesAndPoisonSticks) {
  // Pure garbage: most 4-byte prefixes decode to an oversized length
  // and must poison the stream without allocating; a lucky small prefix
  // just buffers. Either way: no crash, no zero-length payloads, and a
  // poisoned parser stays poisoned.
  std::mt19937_64 rng(0xbadc0ffeull);
  for (int round = 0; round < 300; ++round) {
    FrameParser parser;
    std::vector<std::vector<std::uint8_t>> out;
    bool poisoned = false;
    for (int chunk = 0; chunk < 20; ++chunk) {
      std::vector<std::uint8_t> junk(1 + rng() % 64);
      for (auto& b : junk) b = static_cast<std::uint8_t>(rng());
      const bool ok = parser.feed(junk.data(), junk.size(), out);
      if (poisoned) {
        EXPECT_FALSE(ok);
      }
      if (!ok) {
        EXPECT_TRUE(parser.error());
        poisoned = true;
      }
    }
    for (const auto& p : out) {
      EXPECT_GE(p.size(), 1u);
      EXPECT_LE(p.size(), net::kMaxFrameBytes);
    }
  }
}

// ---------------------------------------------------------------------
// Buffer pool
// ---------------------------------------------------------------------

TEST(BufferPool, RecyclesAndCountsAccurately) {
  net::BufferPool pool(net::BufferPool::Options{2, 1024});
  auto a = pool.acquire(100);
  auto b = pool.acquire(100);
  auto s = pool.stats();
  EXPECT_EQ(s.outstanding, 2u);
  EXPECT_EQ(s.misses, 2u);
  pool.release(std::move(a));
  pool.release(std::move(b));
  s = pool.stats();
  EXPECT_EQ(s.outstanding, 0u);
  EXPECT_EQ(s.free_buffers, 2u);
  auto c = pool.acquire(10);
  EXPECT_EQ(pool.stats().hits, 1u);
  // A buffer grown past max_buffer_bytes is freed, not cached — one
  // giant frame must not pin its capacity forever.
  c->reserve(4096);
  pool.release(std::move(c));
  s = pool.stats();
  EXPECT_EQ(s.trimmed, 1u);
  EXPECT_EQ(s.free_buffers, 1u);
  // A full free list trims instead of growing without bound.
  auto d = pool.acquire(1);
  auto e = pool.acquire(1);
  auto f = pool.acquire(1);
  pool.release(std::move(d));
  pool.release(std::move(e));
  pool.release(std::move(f));
  s = pool.stats();
  EXPECT_EQ(s.free_buffers, 2u);
  EXPECT_EQ(s.trimmed, 2u);
  EXPECT_EQ(s.releases, 6u);
}

TEST(BufferPool, ConcurrentAcquireReleaseIsRaceFree) {
  // TSan target: four threads hammer one pool; the gauges must balance
  // exactly when they drain (no lost or double-counted buffer).
  net::BufferPool pool;
  std::vector<std::thread> ts;
  for (int t = 0; t < 4; ++t)
    ts.emplace_back([&pool, t] {
      std::mt19937 rng(static_cast<unsigned>(t));
      for (int i = 0; i < 2000; ++i) {
        auto b = pool.acquire(64 + rng() % 512);
        b->push_back(static_cast<std::uint8_t>(i));
        pool.release(std::move(b));
      }
    });
  for (auto& th : ts) th.join();
  const auto s = pool.stats();
  EXPECT_EQ(s.outstanding, 0u);
  EXPECT_EQ(s.hits + s.misses, 8000u);
  EXPECT_EQ(s.releases, 8000u);
}

TEST(Framing, ParseHostport) {
  const auto [h, p] = net::parse_hostport("10.1.2.3:7100");
  EXPECT_EQ(h, "10.1.2.3");
  EXPECT_EQ(p, 7100);
  EXPECT_THROW(net::parse_hostport("nocolon"), std::invalid_argument);
  EXPECT_THROW(net::parse_hostport("host:"), std::invalid_argument);
  EXPECT_THROW(net::parse_hostport("host:notaport"), std::invalid_argument);
  EXPECT_THROW(net::parse_hostport("host:99999"), std::invalid_argument);
}

// ---------------------------------------------------------------------
// Phi-accrual failure detector (fake clock)
// ---------------------------------------------------------------------

TEST(PhiAccrual, SilentPeerNeverSuspected) {
  PhiAccrualDetector d;
  EXPECT_FALSE(d.started());
  // A peer that never spoke can only be unreachable, not dead.
  EXPECT_EQ(d.phi(1e9), 0.0);
}

TEST(PhiAccrual, RegularHeartbeatsKeepPhiLow) {
  PhiAccrualDetector d;
  double now = 0;
  for (int i = 0; i < 100; ++i) {
    d.heartbeat(now);
    now += 100;
  }
  EXPECT_NEAR(d.mean_interval_ms(), 100.0, 1.0);
  // Right on schedule: suspicion stays near zero.
  EXPECT_LT(d.phi(now), 1.0);
  // One missed beat is not yet damning, ten are.
  EXPECT_LT(d.phi(now + 200), 2.0);
  EXPECT_GT(d.phi(now + 1000), 4.0);
}

TEST(PhiAccrual, PhiGrowsLinearlyWithSilence) {
  PhiAccrualDetector d;
  for (double t = 0; t <= 1000; t += 100) d.heartbeat(t);
  const double p1 = d.phi(1000 + 500);
  const double p2 = d.phi(1000 + 1000);
  EXPECT_GT(p2, p1);
  EXPECT_NEAR(p2 / p1, 2.0, 0.01);  // linear in elapsed time
}

TEST(PhiAccrual, WindowSlidesAndResetForgets) {
  PhiAccrualDetector d(PhiAccrualDetector::Options{.window = 4});
  for (double t = 0; t <= 400; t += 100) d.heartbeat(t);
  EXPECT_EQ(d.samples(), 4u);  // window bound holds
  // Faster cadence takes over once the old samples slide out.
  for (double t = 420; t <= 500; t += 20) d.heartbeat(t);
  EXPECT_LT(d.mean_interval_ms(), 100.0);
  d.reset();
  EXPECT_FALSE(d.started());
  EXPECT_EQ(d.samples(), 0u);
}

TEST(PhiAccrual, MinIntervalFloorGuardsBursts) {
  PhiAccrualDetector d;
  // A burst of back-to-back arrivals must not make the detector
  // hair-triggered: the mean is floored at min_interval_ms (10).
  for (double t = 0; t < 5; t += 0.1) d.heartbeat(t);
  EXPECT_GE(d.mean_interval_ms(), 10.0);
}

// ---------------------------------------------------------------------
// Loopback TcpTransport pairs
// ---------------------------------------------------------------------

net::Packet make_packet(std::uint32_t src, std::uint32_t dst,
                        const std::string& body) {
  net::Packet p;
  p.src_node = src;
  p.dst_node = dst;
  p.bytes.assign(body.begin(), body.end());
  return p;
}

bool recv_wait(net::Transport& t, std::uint32_t node, net::Packet& out,
               int ms = 5000) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (t.recv(node, out, 0)) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

TEST(TcpTransport, LoopbackPairExchanges) {
  TcpConfig ca;
  ca.self = 0;
  ca.detect_failures = false;
  TcpTransport a(ca);
  TcpConfig cb;
  cb.self = 1;
  cb.detect_failures = false;
  cb.peers[0] = "127.0.0.1:" + std::to_string(a.port());
  TcpTransport b(cb);
  a.add_peer(1, "127.0.0.1:" + std::to_string(b.port()));

  a.send(make_packet(0, 1, "ping"), 0);
  net::Packet got;
  ASSERT_TRUE(recv_wait(b, 1, got));
  EXPECT_EQ(std::string(got.bytes.begin(), got.bytes.end()), "ping");
  EXPECT_EQ(got.src_node, 0u);

  b.send(make_packet(1, 0, "pong"), 0);
  ASSERT_TRUE(recv_wait(a, 0, got));
  EXPECT_EQ(std::string(got.bytes.begin(), got.bytes.end()), "pong");
  EXPECT_GE(a.stats().connects.load(), 1u);
  EXPECT_GE(b.stats().accepts.load(), 0u);
  EXPECT_EQ(a.in_flight() + b.in_flight(), 0u);
  a.shutdown();
  b.shutdown();
}

TEST(TcpTransport, SelfSendStaysLocal) {
  TcpConfig c;
  c.self = 3;
  c.detect_failures = false;
  TcpTransport t(c);
  t.send(make_packet(3, 3, "loop"), 0);
  net::Packet got;
  ASSERT_TRUE(recv_wait(t, 3, got));
  EXPECT_EQ(std::string(got.bytes.begin(), got.bytes.end()), "loop");
}

TEST(TcpTransport, QueuedFramesSurviveLateConnect) {
  // Frames queue before any connection exists (connect on first send)
  // and flush once the listener appears at the configured address.
  TcpConfig ca;
  ca.self = 0;
  ca.detect_failures = false;
  ca.backoff_min_ms = 10;
  ca.backoff_max_ms = 50;
  TcpTransport a(ca);
  // Reserve a port by binding, then release it for the late listener.
  std::uint16_t port = 0;
  {
    TcpConfig probe;
    probe.self = 9;
    TcpTransport reserve(probe);
    port = reserve.port();
    reserve.shutdown();
  }
  a.add_peer(1, "127.0.0.1:" + std::to_string(port));
  for (int i = 0; i < 5; ++i)
    a.send(make_packet(0, 1, "m" + std::to_string(i)), 0);
  EXPECT_EQ(a.in_flight(), 5u);  // unflushed frames stay visible
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  TcpConfig cb;
  cb.self = 1;
  cb.detect_failures = false;
  cb.listen_port = port;
  TcpTransport b(cb);
  net::Packet got;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(recv_wait(b, 1, got)) << "frame " << i;
    EXPECT_EQ(std::string(got.bytes.begin(), got.bytes.end()),
              "m" + std::to_string(i));
  }
  a.shutdown();
  b.shutdown();
}

TEST(TcpTransport, ReconnectAfterPeerRestart) {
  TcpConfig ca;
  ca.self = 0;
  ca.detect_failures = false;
  ca.backoff_min_ms = 10;
  ca.backoff_max_ms = 100;
  TcpTransport a(ca);

  std::uint16_t bport = 0;
  {
    TcpConfig cb;
    cb.self = 1;
    cb.detect_failures = false;
    auto b = std::make_unique<TcpTransport>(cb);
    bport = b->port();
    a.add_peer(1, "127.0.0.1:" + std::to_string(bport));
    a.send(make_packet(0, 1, "before"), 0);
    net::Packet got;
    ASSERT_TRUE(recv_wait(*b, 1, got));
    b->shutdown();
  }
  // Peer is down; the send queues and the connector backs off.
  a.send(make_packet(0, 1, "after"), 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  {
    TcpConfig cb;
    cb.self = 1;
    cb.detect_failures = false;
    cb.listen_port = bport;  // restart on the same address
    TcpTransport b2(cb);
    net::Packet got;
    ASSERT_TRUE(recv_wait(b2, 1, got));
    EXPECT_EQ(std::string(got.bytes.begin(), got.bytes.end()), "after");
    b2.shutdown();
  }
  EXPECT_GE(a.stats().reconnects.load() + a.stats().connects.load(), 2u);
  a.shutdown();
}

TEST(TcpTransport, BackpressureBlocksAndShutdownReleases) {
  TcpConfig ca;
  ca.self = 0;
  ca.detect_failures = false;
  ca.max_queue_bytes = 4096;
  // Unreachable peer: everything queues, nothing drains.
  TcpConfig probe;
  probe.self = 9;
  auto reserve = std::make_unique<TcpTransport>(probe);
  const std::uint16_t dead_port = reserve->port();
  reserve->shutdown();
  reserve.reset();

  TcpTransport a(ca);
  a.add_peer(1, "127.0.0.1:" + std::to_string(dead_port));
  std::atomic<bool> done{false};
  std::thread sender([&] {
    const std::string big(2048, 'b');
    for (int i = 0; i < 64; ++i) a.send(make_packet(0, 1, big), 0);
    done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  // The queue bound held (a few frames, not 64 x 2KB) and the sender is
  // parked in backpressure.
  EXPECT_FALSE(done.load());
  EXPECT_GT(a.stats().backpressure_waits.load(), 0u);
  EXPECT_LE(a.queued_bytes(), 4096u + 3000u);
  // Teardown must release blocked senders, not deadlock.
  a.shutdown();
  sender.join();
}

TEST(TcpTransport, MalformedFrameDropsConnectionNotProcess) {
  TcpConfig ca;
  ca.self = 0;
  ca.detect_failures = false;
  TcpTransport a(ca);
  // Hand-roll a hostile client: a well-framed kHello whose body is
  // truncated (needs node u32 + port u16, carries one byte). Decoding
  // it must not let DecodeError escape the I/O thread and terminate
  // the process — the connection is dropped like any framing error.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(a.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
            0);
  const auto bad = net::encode_frame(
      {static_cast<std::uint8_t>(FrameKind::kHello), 0x01});
  ASSERT_EQ(::write(fd, bad.data(), bad.size()),
            static_cast<ssize_t>(bad.size()));
  // The transport closes the poisoned connection: our blocking read
  // observes EOF (a crashed daemon would reset or hang instead).
  char byte;
  EXPECT_EQ(::read(fd, &byte, 1), 0);
  ::close(fd);
  EXPECT_GE(a.stats().frames_malformed.load(), 1u);
  // And the transport still serves well-formed traffic afterwards.
  TcpConfig cb;
  cb.self = 1;
  cb.detect_failures = false;
  cb.peers[0] = "127.0.0.1:" + std::to_string(a.port());
  TcpTransport b(cb);
  b.send(make_packet(1, 0, "still alive"), 0);
  net::Packet got;
  ASSERT_TRUE(recv_wait(a, 0, got));
  EXPECT_EQ(std::string(got.bytes.begin(), got.bytes.end()), "still alive");
  a.shutdown();
  b.shutdown();
}

TEST(TcpTransport, GarbageFramingCountsMalformedAndDropsConnection) {
  // A framing-level poison (zero-length prefix — never valid) from a
  // raw client must be counted in tcp_frames_malformed and cost only
  // that connection, exactly like an undecodable body.
  TcpConfig ca;
  ca.self = 0;
  ca.detect_failures = false;
  TcpTransport a(ca);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(a.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
            0);
  const std::uint8_t zero[4] = {0, 0, 0, 0};
  ASSERT_EQ(::write(fd, zero, sizeof zero), 4);
  char byte;
  EXPECT_EQ(::read(fd, &byte, 1), 0);  // transport dropped us
  ::close(fd);
  EXPECT_GE(a.stats().frames_malformed.load(), 1u);
  a.shutdown();
}

TEST(TcpTransport, ConcurrentSendersRecycleThroughThePool) {
  // TSan target for the pool's hot path: executor threads encode into
  // pooled buffers while the I/O thread flushes and releases them. At
  // shutdown every buffer must be back (use-after-return would tear the
  // gauges; TSan catches the races themselves).
  TcpConfig ca;
  ca.self = 0;
  ca.detect_failures = false;
  TcpTransport a(ca);
  TcpConfig cb;
  cb.self = 1;
  cb.detect_failures = false;
  cb.peers[0] = "127.0.0.1:" + std::to_string(a.port());
  TcpTransport b(cb);
  a.add_peer(1, "127.0.0.1:" + std::to_string(b.port()));

  // Two waves: wave 1's buffers are all back in the pool before wave 2
  // encodes (receipt implies the flush released them), so wave 2 MUST
  // recycle — a hungry scheduler can starve the I/O thread long enough
  // for a single wave to be all misses.
  constexpr int kThreads = 4, kEach = 100;
  for (int wave = 0; wave < 2; ++wave) {
    std::vector<std::thread> senders;
    for (int t = 0; t < kThreads; ++t)
      senders.emplace_back([&a, t] {
        for (int i = 0; i < kEach; ++i)
          a.send(make_packet(0, 1, "t" + std::to_string(t) + ":" +
                                       std::to_string(i)),
                 0);
      });
    for (auto& th : senders) th.join();
    net::Packet got;
    for (int i = 0; i < kThreads * kEach; ++i)
      ASSERT_TRUE(recv_wait(b, 1, got)) << "wave " << wave << " packet " << i;
  }
  a.shutdown();
  b.shutdown();
  const auto pa = a.pool_stats();
  EXPECT_EQ(pa.outstanding, 0u) << "sender leaked pooled buffers";
  EXPECT_GT(pa.hits, 0u) << "steady state never recycled";
  EXPECT_EQ(b.pool_stats().outstanding, 0u) << "receiver leaked";
}

TEST(TcpTransport, BackpressureTimeoutDropsInsteadOfWedging) {
  TcpConfig ca;
  ca.self = 0;
  ca.detect_failures = false;
  ca.max_queue_bytes = 1024;
  ca.send_timeout_ms = 100;
  TcpConfig probe;
  probe.self = 9;
  auto reserve = std::make_unique<TcpTransport>(probe);
  const std::uint16_t dead_port = reserve->port();
  reserve->shutdown();
  reserve.reset();

  TcpTransport a(ca);
  a.add_peer(1, "127.0.0.1:" + std::to_string(dead_port));
  // The peer is unreachable, so the queue never drains; bounded waits
  // must hand control back (dropping the frame) instead of parking the
  // sending thread forever.
  const std::string big(2048, 'b');
  for (int i = 0; i < 4; ++i) a.send(make_packet(0, 1, big), 0);
  EXPECT_GT(a.stats().backpressure_waits.load(), 0u);
  EXPECT_GT(a.stats().send_timeouts.load(), 0u);
  EXPECT_GT(a.stats().frames_dropped.load(), 0u);
  a.shutdown();
}

TEST(TcpTransport, NeverConnectedPeerDeclaredDeadAfterDeadline) {
  // phi is 0 for a peer that never spoke, so an unreachable or wrong
  // address needs its own verdict: demand without a first connection
  // for connect_deadline_ms is a death, with the usual write-off frame.
  TcpConfig ca;
  ca.self = 0;
  ca.connect_deadline_ms = 150;
  ca.backoff_min_ms = 10;
  ca.backoff_max_ms = 40;
  TcpConfig probe;
  probe.self = 9;
  auto reserve = std::make_unique<TcpTransport>(probe);
  const std::uint16_t dead_port = reserve->port();
  reserve->shutdown();
  reserve.reset();

  TcpTransport a(ca);
  a.set_death_frame([](std::uint32_t dead) {
    return std::vector<std::uint8_t>{0xDD, static_cast<std::uint8_t>(dead)};
  });
  a.add_peer(1, "127.0.0.1:" + std::to_string(dead_port));
  a.send(make_packet(0, 1, "anyone there?"), 0);
  net::Packet got;
  ASSERT_TRUE(recv_wait(a, 0, got, 5000)) << "no death frame";
  EXPECT_EQ(got.src_node, 1u);
  ASSERT_EQ(got.bytes.size(), 2u);
  EXPECT_EQ(got.bytes[0], 0xDD);
  EXPECT_TRUE(a.peer_dead(1));
  // Later sends drop instead of queueing toward a dead address.
  const auto dropped_before = a.stats().frames_dropped.load();
  a.send(make_packet(0, 1, "too late"), 0);
  EXPECT_GT(a.stats().frames_dropped.load(), dropped_before);
  a.shutdown();
}

TEST(TcpTransport, WildcardBindAdvertisesRoutableHost) {
  // Gossiping 0.0.0.0 would make peers dial an unroutable address; the
  // advertised reach-back falls back to loopback (or the configured
  // advertise_host) instead.
  TcpConfig c;
  c.self = 0;
  c.detect_failures = false;
  c.listen_host = "0.0.0.0";
  TcpTransport t(c);
  EXPECT_EQ(t.advertised_hostport(),
            "127.0.0.1:" + std::to_string(t.port()));
  TcpConfig c2 = c;
  c2.advertise_host = "10.9.8.7";
  TcpTransport t2(c2);
  EXPECT_EQ(t2.advertised_hostport(),
            "10.9.8.7:" + std::to_string(t2.port()));
  t.shutdown();
  t2.shutdown();
}

TEST(TcpTransport, FailureDetectorInjectsDeathFrame) {
  TcpConfig ca;
  ca.self = 0;
  ca.heartbeat_ms = 10;
  ca.phi_threshold = 3.0;
  ca.confirm_ms = 100;
  ca.phi.min_interval_ms = 5.0;
  ca.phi.first_interval_ms = 50.0;
  TcpTransport a(ca);
  a.set_death_frame([](std::uint32_t dead) {
    return std::vector<std::uint8_t>{0xDE, static_cast<std::uint8_t>(dead)};
  });

  TcpConfig cb;
  cb.self = 1;
  cb.heartbeat_ms = 10;
  cb.peers[0] = "127.0.0.1:" + std::to_string(a.port());
  auto b = std::make_unique<TcpTransport>(cb);
  a.add_peer(1, "127.0.0.1:" + std::to_string(b->port()));
  // Make the pair exchange so both detectors are primed.
  a.send(make_packet(0, 1, "hi"), 0);
  net::Packet got;
  ASSERT_TRUE(recv_wait(*b, 1, got));
  b->send(make_packet(1, 0, "yo"), 0);
  ASSERT_TRUE(recv_wait(a, 0, got));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  b->shutdown();  // peer goes silent
  b.reset();
  ASSERT_TRUE(recv_wait(a, 0, got, 5000)) << "no death frame";
  EXPECT_EQ(got.src_node, 1u);  // the obituary names the dead peer
  ASSERT_EQ(got.bytes.size(), 2u);
  EXPECT_EQ(got.bytes[0], 0xDE);
  EXPECT_EQ(got.bytes[1], 1u);
  EXPECT_TRUE(a.peer_dead(1));
  EXPECT_GE(a.stats().peers_suspected.load(), 1u);
  EXPECT_EQ(a.stats().peers_dead.load(), 1u);
  // Sends to a confirmed-dead peer drop instead of queueing forever.
  const auto dropped_before = a.stats().frames_dropped.load();
  a.send(make_packet(0, 1, "too late"), 0);
  EXPECT_GT(a.stats().frames_dropped.load(), dropped_before);
  a.shutdown();
}

// ---------------------------------------------------------------------
// Socket-level trace spans (tcp-send / tcp-recv, trace-id propagation)
// ---------------------------------------------------------------------

/// Daemon-packet bytes in the v2 wire header: [type|flags][dst_site u32]
/// [trace_id u64][payload]. The transport treats packets as opaque but
/// peeks exactly these fields for its span events.
std::vector<std::uint8_t> traced_bytes(std::uint64_t id, bool sampled) {
  std::vector<std::uint8_t> b;
  b.push_back(static_cast<std::uint8_t>(0x01 | 0x80 | (sampled ? 0x40 : 0)));
  b.resize(13);  // dst_site u32 (zero) + trace_id u64
  std::memcpy(b.data() + 5, &id, sizeof id);
  b.push_back(0x7f);  // payload
  return b;
}

bool ring_has(const obs::TraceRing& r, obs::EventType t, std::uint64_t id,
              std::uint64_t* arg = nullptr) {
  for (const auto& e : r.snapshot())
    if (e.type == t && e.trace_id == id) {
      if (arg) *arg = e.arg;
      return true;
    }
  return false;
}

TEST(TcpTrace, SendRecvSpansCarryThePropagatedTraceId) {
  TcpConfig ca;
  ca.self = 0;
  ca.detect_failures = false;
  TcpTransport a(ca);
  a.enable_trace(1024);
  TcpConfig cb;
  cb.self = 1;
  cb.detect_failures = false;
  cb.peers[0] = "127.0.0.1:" + std::to_string(a.port());
  TcpTransport b(cb);
  b.enable_trace(1024);
  a.add_peer(1, "127.0.0.1:" + std::to_string(b.port()));

  const std::uint64_t id = obs::next_trace_id();
  net::Packet p;
  p.src_node = 0;
  p.dst_node = 1;
  p.bytes = traced_bytes(id, /*sampled=*/true);
  a.send(std::move(p), 0);
  net::Packet got;
  ASSERT_TRUE(recv_wait(b, 1, got));

  // The sender recorded the socket hop out, the receiver the hop in,
  // both under the id peeked from the packet's v2 header — this is what
  // lets the exporter draw one flow arrow across the process boundary.
  std::uint64_t arg = 0;
  EXPECT_TRUE(ring_has(a.trace_ring(), obs::EventType::kTcpSend, id, &arg));
  EXPECT_EQ(arg, 1u);  // arg = destination node
  EXPECT_TRUE(ring_has(b.trace_ring(), obs::EventType::kTcpRecv, id, &arg));
  EXPECT_EQ(arg, 0u);  // arg = source node
  a.shutdown();
  b.shutdown();
}

TEST(TcpTrace, UnsampledFramesCrossButAreNotRecorded) {
  TcpConfig ca;
  ca.self = 0;
  ca.detect_failures = false;
  TcpTransport a(ca);
  a.enable_trace(1024, /*sample_every=*/4);
  TcpConfig cb;
  cb.self = 1;
  cb.detect_failures = false;
  cb.peers[0] = "127.0.0.1:" + std::to_string(a.port());
  TcpTransport b(cb);
  b.enable_trace(1024, /*sample_every=*/4);
  a.add_peer(1, "127.0.0.1:" + std::to_string(b.port()));

  // kTraceFlag without kSampledFlag: the id crosses the socket (reply
  // routing still needs it) but no hop spends a ring slot on it.
  const std::uint64_t unsampled = obs::next_trace_id();
  net::Packet p;
  p.src_node = 0;
  p.dst_node = 1;
  p.bytes = traced_bytes(unsampled, /*sampled=*/false);
  a.send(std::move(p), 0);
  net::Packet got;
  ASSERT_TRUE(recv_wait(b, 1, got));
  EXPECT_EQ(got.bytes, traced_bytes(unsampled, false));
  EXPECT_FALSE(ring_has(a.trace_ring(), obs::EventType::kTcpSend, unsampled));
  EXPECT_FALSE(ring_has(b.trace_ring(), obs::EventType::kTcpRecv, unsampled));

  // A sampled frame through the same pair IS recorded: the decision is
  // the wire bit, not anything local to the transport.
  const std::uint64_t sampled = obs::next_trace_id();
  net::Packet q;
  q.src_node = 0;
  q.dst_node = 1;
  q.bytes = traced_bytes(sampled, /*sampled=*/true);
  a.send(std::move(q), 0);
  ASSERT_TRUE(recv_wait(b, 1, got));
  EXPECT_TRUE(ring_has(a.trace_ring(), obs::EventType::kTcpSend, sampled));
  EXPECT_TRUE(ring_has(b.trace_ring(), obs::EventType::kTcpRecv, sampled));
  a.shutdown();
  b.shutdown();
}

TEST(TcpTrace, ReconnectLandsInRingAndFiresPeerEventHook) {
  TcpConfig ca;
  ca.self = 0;
  ca.detect_failures = false;
  ca.backoff_min_ms = 10;
  ca.backoff_max_ms = 100;
  TcpTransport a(ca);
  a.enable_trace(1024);
  a.set_trace_record_all(true);
  std::atomic<int> reconnect_hooks{0};
  a.set_peer_event_hook(
      [&](TcpTransport::PeerEvent ev, std::uint32_t node, std::uint64_t) {
        if (ev == TcpTransport::PeerEvent::kReconnect && node == 1)
          reconnect_hooks.fetch_add(1);
      });

  std::uint16_t bport = 0;
  {
    TcpConfig cb;
    cb.self = 1;
    cb.detect_failures = false;
    auto b = std::make_unique<TcpTransport>(cb);
    bport = b->port();
    a.add_peer(1, "127.0.0.1:" + std::to_string(bport));
    a.send(make_packet(0, 1, "before"), 0);
    net::Packet got;
    ASSERT_TRUE(recv_wait(*b, 1, got));
    b->shutdown();
  }
  a.send(make_packet(0, 1, "after"), 0);
  {
    TcpConfig cb;
    cb.self = 1;
    cb.detect_failures = false;
    cb.listen_port = bport;
    TcpTransport b2(cb);
    net::Packet got;
    ASSERT_TRUE(recv_wait(b2, 1, got));
    b2.shutdown();
  }
  // The re-established connection shows up as a flight-recorder-grade
  // event: a ring entry (for the timeline) plus the hook (for
  // promotion into tail-based retention).
  bool found = false;
  for (const auto& e : a.trace_ring().snapshot())
    if (e.type == obs::EventType::kTcpReconnect && e.arg == 1) found = true;
  EXPECT_TRUE(found);
  EXPECT_GE(reconnect_hooks.load(), 1);
  a.shutdown();
}

TEST(TcpTrace, PeerInfoReportsTransportState) {
  TcpConfig ca;
  ca.self = 0;
  ca.heartbeat_ms = 20;
  TcpTransport a(ca);
  TcpConfig cb;
  cb.self = 1;
  cb.heartbeat_ms = 20;
  cb.peers[0] = "127.0.0.1:" + std::to_string(a.port());
  TcpTransport b(cb);
  a.add_peer(1, "127.0.0.1:" + std::to_string(b.port()));
  a.send(make_packet(0, 1, "hi"), 0);
  net::Packet got;
  ASSERT_TRUE(recv_wait(b, 1, got));
  // Give a couple of heartbeat round trips time to land.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));

  const auto infos = a.peer_info();
  ASSERT_EQ(infos.size(), 1u);
  const auto& pi = infos[0];
  EXPECT_EQ(pi.node, 1u);
  EXPECT_TRUE(pi.connected);
  EXPECT_FALSE(pi.dead);
  EXPECT_GE(pi.last_heard_age_ms, 0.0);
  EXPECT_GT(pi.last_rtt_us, 0u);          // heartbeat ack RTT attributed
  EXPECT_GT(pi.rtt_us.total, 0u);         // ... and histogrammed
  EXPECT_EQ(pi.queue_bytes, 0u);          // drained
  a.shutdown();
  b.shutdown();
}

// ---------------------------------------------------------------------
// PEER-DOWN -> GC write-off (single process, forged death notice)
// ---------------------------------------------------------------------

TEST(WriteOff, PeerDownWritesOffDeadHoldersCredit) {
  core::Network::Config cfg;
  cfg.mode = core::Network::Mode::kSequential;
  core::Network net(cfg);
  net.add_node();
  net.add_node();
  net.add_site(0, "server");
  net.add_site(1, "client");
  net.submit_source("server",
                    "export new p in p?{ val(x, rep) = rep![x * 2] }");
  // The client imports p and then parks forever holding the netref, so
  // at quiescence the server's export entry still carries the client's
  // attributed credit share.
  net.submit_source("client",
                    "import p from server in import never from server in "
                    "p!val[1, p]");
  auto res = net.run();
  EXPECT_TRUE(res.stalled);
  core::Site* server = net.find_site("server");
  ASSERT_NE(server, nullptr);
  ASSERT_EQ(server->machine().live_exports(), 1u);
  EXPECT_GT(server->machine().exports_outstanding(), 0u);
  EXPECT_EQ(server->machine().gc_stats().credit_written_off.value(), 0u);

  // Forge the transport's death notice for node 1 and route it through
  // node 0 exactly as the daemon would.
  net::Packet obit;
  obit.src_node = 1;
  obit.dst_node = 0;
  obit.bytes = core::make_peer_down(1);
  net.nodes()[0]->route(std::move(obit), net.transport(), 0);
  server->process_incoming();

  EXPECT_GT(server->machine().gc_stats().credit_written_off.value(), 0u);
  EXPECT_EQ(server->mobility().peers_down.value(), 1u);
  EXPECT_EQ(server->dead_peers().count(1), 1u);

  // The name service (hosted by node 0) dropped the dead node's rows.
  EXPECT_GT(net.nodes()[0]->name_service().stats().evictions.value(), 0u);

  // Premature reclamation must not happen: the NS still holds its own
  // credit share, so the entry survives until the final epoch returns
  // it — then everything drains.
  auto gc = net.collect_garbage();
  EXPECT_EQ(gc.exports_live, 0u);
  EXPECT_EQ(gc.ns_ids, 0u);
}

TEST(WriteOff, LiveHoldersAreNotWrittenOff) {
  // Two importers; only one dies. The survivor's credit must stay on
  // the books (no premature reclamation of a live holder's share).
  core::Network::Config cfg;
  cfg.mode = core::Network::Mode::kSequential;
  core::Network net(cfg);
  net.add_node();
  net.add_node();
  net.add_node();
  net.add_site(0, "server");
  net.add_site(1, "c1");
  net.add_site(2, "c2");
  net.submit_source("server",
                    "export new p in p?{ val(x, rep) = rep![x * 2] }");
  net.submit_source("c1",
                    "import p from server in import never from server in "
                    "p!val[1, p]");
  net.submit_source("c2",
                    "import p from server in import never from server in "
                    "p!val[2, p]");
  (void)net.run();
  core::Site* server = net.find_site("server");
  ASSERT_NE(server, nullptr);
  const auto outstanding_before = server->machine().exports_outstanding();
  ASSERT_GT(outstanding_before, 0u);

  net::Packet obit;
  obit.src_node = 1;
  obit.dst_node = 0;
  obit.bytes = core::make_peer_down(1);
  net.nodes()[0]->route(std::move(obit), net.transport(), 0);
  server->process_incoming();

  const auto written = server->machine().gc_stats().credit_written_off.value();
  EXPECT_GT(written, 0u);
  // Strictly less than everything outstanding: c2's share survives.
  EXPECT_LT(written, outstanding_before);
  EXPECT_EQ(server->machine().live_exports(), 1u);
}

TEST(WriteOff, NameServiceEvictsDeadNode) {
  core::NameService ns(0);
  std::vector<net::Packet> replies;
  ns.register_site("alpha", 1, 0);
  ns.register_site("beta", 2, 0);
  vm::NetRef dead_ref{vm::NetRef::Kind::kChan, 1, 0, 7};
  vm::NetRef live_ref{vm::NetRef::Kind::kChan, 2, 0, 8};
  ns.register_id("alpha", "x", dead_ref, "", replies);
  ns.register_id("beta", "y", live_ref, "", replies);
  EXPECT_EQ(ns.id_count(), 2u);

  const std::size_t dropped = ns.evict_node(1);
  EXPECT_GT(dropped, 0u);
  EXPECT_EQ(ns.id_count(), 1u);
  EXPECT_FALSE(ns.lookup_site("alpha").has_value());
  EXPECT_TRUE(ns.lookup_site("beta").has_value());
  EXPECT_FALSE(ns.lookup_id("alpha", "x").has_value());
  EXPECT_GT(ns.stats().evictions.value(), 0u);
}

// ---------------------------------------------------------------------
// In-process TCP mesh under the real drivers
// ---------------------------------------------------------------------

TEST(TcpMesh, ThreadedShipObjectAndFetchOverSockets) {
  core::Network::Config cfg;
  cfg.mode = core::Network::Mode::kThreaded;
  cfg.transport = core::Network::TransportKind::kTcp;
  core::Network net(cfg);
  net.add_node();
  net.add_node();
  net.add_site(0, "server");
  net.add_site(1, "client");
  // Code mobility over real sockets: the client fetches the class
  // definition (FETCH) and instantiates locally (SHIPO on the way out).
  net.submit_network_source(
      "site server { export def Applet(out) = out![7] in 0 }\n"
      "site client { import Applet from server in "
      "new r (Applet[r] | r?(v) = print[v]) }");
  auto res = net.run();
  EXPECT_TRUE(res.quiescent);
  ASSERT_EQ(net.output("client").size(), 1u);
  EXPECT_EQ(net.output("client")[0], "7");
  auto gc = net.collect_garbage();
  EXPECT_EQ(gc.exports_live, 0u);
  EXPECT_EQ(gc.ns_ids, 0u);
}

TEST(TcpMesh, SequentialDriverAlsoWorks) {
  core::Network::Config cfg;
  cfg.mode = core::Network::Mode::kSequential;
  cfg.transport = core::Network::TransportKind::kTcp;
  core::Network net(cfg);
  net.add_node();
  net.add_node();
  net.add_site(0, "a");
  net.add_site(1, "b");
  net.submit_network_source(
      "site a { export new x in x![10] }\n"
      "site b { import x from a in x?(v) = print[v + 1] }");
  auto res = net.run();
  EXPECT_TRUE(res.quiescent);
  ASSERT_EQ(net.output("a").size(), 1u);
  EXPECT_EQ(net.output("a")[0], "11");
}

TEST(TcpMesh, PoolDrainsToZeroAfterImportStorm) {
  // ASan-job leak check (ISSUE 8): after a full C6-shaped mesh run every
  // pooled buffer is back — encode buffers released by the flush path,
  // read buffers released at I/O-loop exit, queued frames released by
  // shutdown. A nonzero gauge here is a leak even when ASan is silent
  // (the pool would pin the memory live).
  core::Network::Config cfg;
  cfg.mode = core::Network::Mode::kThreaded;
  cfg.transport = core::Network::TransportKind::kTcp;
  core::Network net(cfg);
  net.add_node();
  net.add_site(0, "server");
  std::string exports;
  for (int i = 0; i < 8; ++i)
    exports += "export new a" + std::to_string(i) + " in ";
  net.submit_source("server", exports + "0");
  for (int s = 0; s < 4; ++s) {
    net.add_node();
    const std::string name = "c" + std::to_string(s);
    net.add_site(static_cast<std::size_t>(s) + 1, name);
    std::string prog;
    for (int i = 0; i < 8; ++i)
      prog += "import a" + std::to_string(i) + " from server in ";
    net.submit_source(name, prog + "print[\"ok\"]");
  }
  auto res = net.run();
  EXPECT_TRUE(res.quiescent);
  auto* mesh = dynamic_cast<net::TcpMeshTransport*>(&net.transport());
  ASSERT_NE(mesh, nullptr);
  mesh->shutdown();
  for (std::size_t i = 0; i < mesh->parts_count(); ++i) {
    const auto ps = mesh->part(i).pool_stats();
    EXPECT_EQ(ps.outstanding, 0u) << "mesh part " << i;
    EXPECT_EQ(ps.hits + ps.misses, ps.releases) << "mesh part " << i;
  }
}

TEST(TcpMesh, SimModeRejectsTcp) {
  core::Network::Config cfg;
  cfg.mode = core::Network::Mode::kSim;
  cfg.transport = core::Network::TransportKind::kTcp;
  core::Network net(cfg);
  net.add_node();
  EXPECT_THROW(net.transport(), std::logic_error);
}

// ---------------------------------------------------------------------
// Multi-process e2e: real tycod daemons over loopback
// ---------------------------------------------------------------------

#ifdef TYCOD_PATH

/// Start `cmd` via popen, read lines until one contains `until` (which is
/// returned) or EOF.
std::string read_until(FILE* f, const std::string& until) {
  char buf[512];
  while (fgets(buf, sizeof buf, f)) {
    std::string line(buf);
    if (line.find(until) != std::string::npos) return line;
  }
  return {};
}

std::string slurp(FILE* f) {
  std::string all;
  char buf[512];
  while (fgets(buf, sizeof buf, f)) all += buf;
  return all;
}

std::string parse_port(const std::string& listening_line) {
  const auto colon = listening_line.rfind(':');
  return listening_line.substr(colon + 1,
                               listening_line.find_last_not_of(" \n\r") -
                                   colon);
}

TEST(TycodE2E, TwoProcessesCompleteShipAndFetch) {
  const std::string tycod = TYCOD_PATH;
  FILE* p0 = popen((tycod +
                    " --node 0 --idle-exit-ms 1200 --serve-ms 20000 -e "
                    "'site server { export def Applet(out) = out![7] in "
                    "export new p in p?{ val(x, rep) = rep![x * 2] } }' 2>&1")
                       .c_str(),
                   "r");
  ASSERT_NE(p0, nullptr);
  const std::string line = read_until(p0, "listening on");
  ASSERT_FALSE(line.empty()) << "node 0 never bound";
  const std::string port = parse_port(line);

  FILE* p1 = popen((tycod + " --node 1 --join 127.0.0.1:" + port +
                    " --idle-exit-ms 1200 --serve-ms 20000 -e "
                    "'site client { import Applet from server in "
                    "import p from server in new r (Applet[r] | r?(v) = "
                    "let z = p![v * 3] in print[z + v]) }' 2>&1")
                       .c_str(),
                   "r");
  ASSERT_NE(p1, nullptr);
  const std::string out1 = slurp(p1);
  const int rc1 = pclose(p1);
  const std::string out0 = slurp(p0);
  const int rc0 = pclose(p0);

  // Applet ran at the client (code mobility), the remote method call
  // round-tripped (7*3*2 + 7 = 49), and both processes drained their
  // export tables to empty.
  EXPECT_NE(out1.find("[client] 49"), std::string::npos) << out1;
  EXPECT_NE(out1.find("exports_live=0"), std::string::npos) << out1;
  EXPECT_NE(out0.find("exports_live=0"), std::string::npos) << out0;
  EXPECT_EQ(WEXITSTATUS(rc0), 0) << out0;
  EXPECT_EQ(WEXITSTATUS(rc1), 0) << out1;
}

TEST(TycodE2E, TraceIdsStitchAcrossTwoProcesses) {
  // Two --trace'd daemons; scrape both TyCOmon /trace documents while
  // they serve and stitch them. A FETCH allocates its trace id on the
  // client, so finding that id in BOTH processes' rings proves the id
  // (and kSampledFlag) survived the real socket hop.
  const std::string tycod = TYCOD_PATH;
  FILE* p0 = popen((tycod +
                    " --node 0 --monitor 0 --trace --idle-exit-ms 4000 "
                    "--serve-ms 20000 -e "
                    "'site server { export def Applet(out) = out![7] in 0 }'"
                    " 2>&1")
                       .c_str(),
                   "r");
  ASSERT_NE(p0, nullptr);
  const std::string mon0_line = read_until(p0, "tycomon listening");
  ASSERT_FALSE(mon0_line.empty()) << "node 0 monitor never bound";
  const std::string mon0 = parse_port(mon0_line);
  const std::string port = parse_port(read_until(p0, "tycod node0"));
  ASSERT_FALSE(port.empty());

  FILE* p1 = popen((tycod + " --node 1 --join 127.0.0.1:" + port +
                    " --monitor 0 --trace --idle-exit-ms 4000 "
                    "--serve-ms 20000 -e "
                    "'site client { import Applet from server in "
                    "new r (Applet[r] | r?(v) = print[v]) }' 2>&1")
                       .c_str(),
                   "r");
  ASSERT_NE(p1, nullptr);
  const std::string mon1_line = read_until(p1, "tycomon listening");
  ASSERT_FALSE(mon1_line.empty()) << "node 1 monitor never bound";
  const std::string mon1 = parse_port(mon1_line);

  // Let the FETCH complete, then scrape both nodes' rings over HTTP.
  namespace fleet = obs::fleet;
  std::this_thread::sleep_for(std::chrono::milliseconds(2000));
  const std::string doc0 = fleet::http_get(
      "127.0.0.1", static_cast<std::uint16_t>(std::stoi(mon0)), "/trace");
  const std::string doc1 = fleet::http_get(
      "127.0.0.1", static_cast<std::uint16_t>(std::stoi(mon1)), "/trace");
  ASSERT_FALSE(doc0.empty());
  ASSERT_FALSE(doc1.empty());

  const fleet::MergedTrace merged = fleet::merge_traces({doc0, doc1});
  EXPECT_EQ(merged.nodes, 2u);
  EXPECT_EQ(merged.anchored, 2u);  // both docs carried a clock anchor
  // Some nonzero trace id must have events in both processes.
  std::map<std::uint64_t, std::set<std::uint32_t>> pids_by_id;
  for (const auto& e : merged.events)
    if (e.trace_id != 0) pids_by_id[e.trace_id].insert(e.pid);
  bool crossed = false;
  for (const auto& [id, pids] : pids_by_id)
    if (pids.size() >= 2) crossed = true;
  EXPECT_TRUE(crossed) << "no trace id appeared on both nodes";

  (void)slurp(p1);
  pclose(p1);
  (void)slurp(p0);
  pclose(p0);
}

TEST(TycodE2E, KilledPeerIsWrittenOff) {
  const std::string tycod = TYCOD_PATH;
  FILE* p0 = popen((tycod +
                    " --node 0 --heartbeat-ms 25 --confirm-ms 200 "
                    "--idle-exit-ms 3000 --serve-ms 30000 -e "
                    "'site server { export new p in "
                    "p?{ val(x, rep) = rep![x * 2] } }' 2>&1")
                       .c_str(),
                   "r");
  ASSERT_NE(p0, nullptr);
  const std::string line = read_until(p0, "listening on");
  ASSERT_FALSE(line.empty()) << "node 0 never bound";
  const std::string port = parse_port(line);

  // The client imports p (so it holds attributed credit) and parks
  // forever; we SIGKILL it mid-run.
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Child: silence stdio and become tycod node 1.
    freopen("/dev/null", "w", stdout);
    freopen("/dev/null", "w", stderr);
    execl(TYCOD_PATH, "tycod", "--node", "1", "--join",
          ("127.0.0.1:" + port).c_str(), "--heartbeat-ms", "25",
          "--timeout-ms", "25000", "-e",
          "site client { import p from server in "
          "import never from server in p!val[1, p] }",
          static_cast<char*>(nullptr));
    _exit(127);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(1500));
  ASSERT_EQ(kill(child, SIGKILL), 0);
  int wstatus = 0;
  waitpid(child, &wstatus, 0);

  const std::string out0 = slurp(p0);
  const int rc0 = pclose(p0);
  // The survivor's failure detector fired, the dead holder's credit was
  // written off (> 0), tables drained, and shutdown was clean.
  EXPECT_NE(out0.find("peers_down=1"), std::string::npos) << out0;
  EXPECT_NE(out0.find("exports_live=0"), std::string::npos) << out0;
  const auto pos = out0.find("credit_written_off=");
  ASSERT_NE(pos, std::string::npos) << out0;
  EXPECT_EQ(out0.find("credit_written_off=0 ", pos), std::string::npos)
      << out0;
  EXPECT_EQ(WEXITSTATUS(rc0), 0) << out0;
}

TEST(TycodE2E, CoalescedRpcSoakSurvivesMidBatchKill) {
  // Soak: sustained C2-style RPC load with coalescing explicitly on
  // (the new --flush-* / writev path carries every frame), then SIGKILL
  // the client mid-batch. The survivor's failure detector must fire and
  // the GC write-off converge — a torn or replayed partial frame after
  // the kill would poison the server's framing and show up as a decode
  // error or a wedged daemon instead.
  const std::string tycod = TYCOD_PATH;
  FILE* p0 = popen((tycod +
                    " --node 0 --heartbeat-ms 25 --confirm-ms 200 "
                    "--flush-bytes 262144 --flush-frames 64 "
                    "--idle-exit-ms 3000 --serve-ms 30000 -e "
                    "'site server { export new svc in "
                    "def Serve(self) = self?{ val(x, r) = (r![x + 1] | "
                    "Serve[self]) } in Serve[svc] }' 2>&1")
                       .c_str(),
                   "r");
  ASSERT_NE(p0, nullptr);
  const std::string line = read_until(p0, "listening on");
  ASSERT_FALSE(line.empty()) << "node 0 never bound";
  const std::string port = parse_port(line);

  // The client RPCs in an unbounded loop — load is still flowing in
  // both directions when the SIGKILL lands.
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    freopen("/dev/null", "w", stdout);
    freopen("/dev/null", "w", stderr);
    execl(TYCOD_PATH, "tycod", "--node", "1", "--join",
          ("127.0.0.1:" + port).c_str(), "--heartbeat-ms", "25",
          "--flush-bytes", "262144", "--flush-frames", "64", "--timeout-ms",
          "25000", "-e",
          "site client { import svc from server in "
          "def Loop(i) = let v = svc![i] in Loop[v] in Loop[0] }",
          static_cast<char*>(nullptr));
    _exit(127);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(1500));
  ASSERT_EQ(kill(child, SIGKILL), 0);
  int wstatus = 0;
  waitpid(child, &wstatus, 0);

  const std::string out0 = slurp(p0);
  const int rc0 = pclose(p0);
  EXPECT_NE(out0.find("peers_down=1"), std::string::npos) << out0;
  EXPECT_NE(out0.find("exports_live=0"), std::string::npos) << out0;
  const auto pos = out0.find("credit_written_off=");
  ASSERT_NE(pos, std::string::npos) << out0;
  EXPECT_EQ(out0.find("credit_written_off=0 ", pos), std::string::npos)
      << out0;
  EXPECT_EQ(WEXITSTATUS(rc0), 0) << out0;
}

#endif  // TYCOD_PATH

}  // namespace
}  // namespace dityco
