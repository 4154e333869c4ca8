// Open-loop load generator for a tycod fleet (workloads rpc_fleet and
// mobility_fleet). It joins the mesh as an ephemeral node over the real
// wire protocol, resolves its targets through the name service, prints
// {"event":"ready"} and then runs the phases run.py sends on stdin:
//
//   phase TAG RATE SECONDS TIMEOUT_MS   open-loop Poisson load
//   probe N                             N sequential NS lookups, timed
//   quit                                release credit, shut down
//
// Measurement rules:
//   * intended send times are seeded Poisson arrivals at RATE; every
//     latency runs from the *intended* start, so a stalled fleet cannot
//     pause the clock (coordinated omission);
//   * the generator never sleeps past the next intended send, and polls
//     for replies at least every --poll-us (0 = spin, for a generator
//     pinned to CPUs of its own); its own lateness (actual -
//     intended send) is reported so run.py can refuse a run in which the
//     generator, not the fleet, set the numbers;
//   * there is no outstanding cap: backlog shows up as latency, and a
//     request still unanswered after TIMEOUT_MS counts as failed;
//   * every reply value is checked: x + 1 (rpc) or the applet's value,
//     computed natively here (mob). A wrong value counts as failed.
#include <sys/prctl.h>

#include <cstdio>
#include <cstring>
#include <deque>
#include <iostream>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/nameservice.hpp"
#include "core/wire.hpp"
#include "driver/common.hpp"
#include "net/tcp.hpp"
#include "obs/trace.hpp"

namespace pb {

namespace {

using dityco::Reader;
using dityco::Writer;
using dityco::core::MsgType;
using dityco::core::NameService;
using dityco::net::Packet;

// Wire value tags (core/wire.cpp): the generator has no VM, so it
// writes and reads SHIPM payloads by hand.
constexpr std::uint8_t kTagInt = 1;
constexpr std::uint8_t kTagNetRef = 5;

/// One seeded applet: acc = x, then `n` times acc = (acc * c1 + c2) % m.
struct Applet {
  std::int64_t n = 0, c1 = 0, c2 = 0, m = 1;
  std::int64_t eval(std::int64_t x) const {
    std::int64_t acc = x;
    for (std::int64_t i = 0; i < n; ++i) acc = (acc * c1 + c2) % m;
    return acc;
  }
};

struct Target {
  std::string site, name;
  dityco::vm::NetRef ref;
  std::uint64_t credit = 0;
  bool ok = false;
};

/// One request in flight. Request ids are consecutive, so the pending
/// set is a deque indexed by id - base: no hashing on the hot path.
struct Pending {
  std::uint64_t intended = 0;
  std::int64_t expect = 0;
  std::uint64_t span = 0;
  bool open = false;
};

/// A SHIPM request [int x, weak reply netref] for one method label, built
/// once with Writer; each request copies it and patches three fields.
struct RequestTemplate {
  static constexpr std::uint64_t kTraceMark = 0x7ace0000aaaa5555ull;
  static constexpr std::uint64_t kReqMark = 0x0e0e0000bbbb7777ull;
  std::vector<std::uint8_t> bytes;
  std::size_t trace_off = 0, x_off = 0, req_off = 0;

  RequestTemplate(const Target& t, const std::string& label,
                  std::uint32_t self) {
    Writer w;
    dityco::core::write_header(w, MsgType::kShipMsg, t.ref.site, kTraceMark,
                               true);
    w.u64(t.ref.heap_id);
    w.str(label);
    w.u32(2);
    w.u8(kTagInt);
    x_off = w.size();
    w.i64(0);
    w.u8(kTagNetRef);
    // A weak (zero-credit) reply netref into this node: serving daemons
    // never hold credit against the generator.
    dityco::core::write_netref(
        w, dityco::vm::NetRef{dityco::vm::NetRef::Kind::kChan, self, 0,
                              kReqMark});
    bytes = w.take();
    trace_off = find(kTraceMark);
    req_off = find(kReqMark);
  }

  std::vector<std::uint8_t> make(std::uint64_t trace, std::int64_t x,
                                 std::uint64_t req) const {
    std::vector<std::uint8_t> b = bytes;
    std::memcpy(b.data() + trace_off, &trace, 8);
    std::memcpy(b.data() + x_off, &x, 8);
    std::memcpy(b.data() + req_off, &req, 8);
    return b;
  }

 private:
  std::size_t find(std::uint64_t mark) const {
    for (std::size_t i = 0; i + 8 <= bytes.size(); ++i)
      if (std::memcmp(bytes.data() + i, &mark, 8) == 0) return i;
    throw std::runtime_error("request template: field not found");
  }
};

class Generator {
 public:
  explicit Generator(const Args& a)
      : mob_(a.str("scenario", "rpc") == "mob"),
        poll_ns_(static_cast<std::uint64_t>(a.num("poll-us", 20) * 1e3)),
        rng_(static_cast<std::uint64_t>(a.num("seed", 1))),
        spans_(a.str("spans")) {
    for (const auto& spec : a.all("import")) {
      const auto colon = spec.find(':');
      targets_.push_back(Target{spec.substr(0, colon), spec.substr(colon + 1),
                                {}, 0, false});
    }
    for (const auto& spec : a.all("applet")) {
      Applet ap;
      if (std::sscanf(spec.c_str(), "%ld:%ld:%ld:%ld", &ap.n, &ap.c1, &ap.c2,
                      &ap.m) != 4)
        throw std::runtime_error("bad --applet " + spec);
      applets_.push_back(ap);
    }
    if (targets_.empty() || (mob_ && applets_.empty()))
      throw std::runtime_error("need --import (and --applet for mob)");
    dityco::net::TcpConfig cfg;
    cfg.self = self_;
    cfg.listen_host = "127.0.0.1";
    cfg.listen_port = 0;
    cfg.multiprocess = true;
    cfg.peers[0] = a.str("join");
    tcp_ = std::make_unique<dityco::net::TcpTransport>(cfg);
    tcp_->set_death_frame(
        [](std::uint32_t dead) { return dityco::core::make_peer_down(dead); });
  }

  /// Resolve every target through the name service on node 0.
  bool resolve() {
    for (std::size_t i = 0; i < targets_.size(); ++i)
      send_lookup(targets_[i], i);
    std::size_t left = targets_.size();
    const std::uint64_t deadline = now_ns() + 10'000'000'000ull;
    Packet pkt;
    while (left > 0 && now_ns() < deadline) {
      if (!tcp_->recv(self_, pkt, 0.0)) {
        nap(now_ns() + poll_ns_);
        continue;
      }
      if (dityco::core::packet_type(pkt.bytes) != MsgType::kNsReply) continue;
      const auto [token, ok] = read_ns_reply(pkt);
      if (token < targets_.size() && ok && !targets_[token].ok) {
        targets_[token].ok = true;
        --left;
      }
    }
    return left == 0;
  }

  std::string phase(const std::string& tag, double rate, double seconds,
                    double timeout_ms) {
    std::exponential_distribution<double> gap(rate / 1e9);  // ns
    std::uniform_int_distribution<std::int64_t> xdist(0, 999'999);
    std::uniform_int_distribution<std::size_t> adist(
        0, applets_.empty() ? 0 : applets_.size() - 1);
    const Target& t = targets_[0];
    std::vector<RequestTemplate> templates;
    if (mob_) {
      for (std::size_t k = 0; k < applets_.size(); ++k)
        templates.emplace_back(t, "a" + std::to_string(k), self_);
    } else {
      templates.emplace_back(t, "val", self_);
    }
    const std::uint64_t timeout_ns = static_cast<std::uint64_t>(timeout_ms * 1e6);
    const std::uint64_t start = now_ns() + 1'000'000;  // 1 ms lead-in
    const std::uint64_t dur = static_cast<std::uint64_t>(seconds * 1e9);
    const std::uint64_t end = start + dur;
    const std::uint64_t half = start + dur / 2;

    std::deque<Pending> pending;
    std::uint64_t base = next_req_;  // id of pending.front()
    std::size_t open = 0;
    const auto lookup = [&](std::uint64_t req) -> Pending* {
      if (req < base || req - base >= pending.size()) return nullptr;
      Pending& p = pending[req - base];
      return p.open ? &p : nullptr;
    };
    const auto close = [&](Pending& p) {
      p.open = false;
      --open;
      spans_.end(p.span);
      while (!pending.empty() && !pending.front().open) {
        pending.pop_front();
        ++base;
      }
    };
    std::vector<double> lat_us, late_us;
    lat_us.reserve(static_cast<std::size_t>(rate * seconds) + 16);
    late_us.reserve(static_cast<std::size_t>(rate * seconds) + 16);
    std::vector<std::pair<std::uint64_t, double>> by_intent;  // drift
    std::uint64_t attempted = 0, ok = 0, wrong = 0, timeouts = 0,
                  refused = 0;
    std::size_t max_out[2] = {0, 0};
    std::vector<double> late_half[2];
    std::uint64_t next_send = start + static_cast<std::uint64_t>(gap(rng_));
    std::uint64_t next_sweep = start;
    const std::uint64_t bytes_in0 =
        tcp_->stats().bytes_in.load(std::memory_order_relaxed);

    // A confirmed-dead daemon refuses everything still in flight (every
    // request of a phase goes to the same target node).
    const auto fail_all = [&] {
      for (Pending& p : pending)
        if (p.open) {
          ++refused;
          p.open = false;
          spans_.end(p.span);
        }
      open = 0;
      base += pending.size();
      pending.clear();
    };

    Packet pkt;
    for (;;) {
      std::uint64_t now = now_ns();
      bool busy = false;
      while (tcp_->recv(self_, pkt, 0.0)) {
        busy = true;
        const std::uint64_t at = now_ns();
        const MsgType type = dityco::core::packet_type(pkt.bytes);
        if (type == MsgType::kPeerDown) {
          Reader r(pkt.bytes);
          (void)dityco::core::read_header(r);
          const std::uint32_t dead = dityco::core::read_peer_down(r);
          dead_.push_back(dead);
          if (dead == t.ref.node) fail_all();
          continue;
        }
        if (type != MsgType::kShipMsg) continue;  // RELs for weak refs
        std::uint64_t req = 0;
        std::int64_t value = 0;
        bool well_formed = false;
        try {
          Reader r(pkt.bytes);
          (void)dityco::core::read_header(r);
          req = r.u64();
          (void)r.str();
          well_formed = r.u32() == 1 && r.u8() == kTagInt;
          if (well_formed) value = r.i64();
        } catch (const std::exception&) {
          well_formed = false;
        }
        Pending* p = lookup(req);
        if (p == nullptr) continue;  // already timed out
        if (!well_formed || value != p->expect) {
          ++wrong;
        } else {
          ++ok;
          const double l = static_cast<double>(at - p->intended) / 1e3;
          lat_us.push_back(l);
          by_intent.emplace_back(p->intended, l);
        }
        close(*p);
      }
      now = now_ns();
      // Every intended start that has elapsed fires now, stamped with its
      // own intended instant even when the loop fell behind.
      while (next_send <= now && next_send < end) {
        const std::int64_t x = xdist(rng_);
        std::size_t k = 0;
        std::int64_t expect = x + 1;
        if (mob_) {
          k = adist(rng_);
          expect = applets_[k].eval(x);
        }
        ++attempted;
        const int h = next_send < half ? 0 : 1;
        if (is_dead(t.ref.node)) {
          ++refused;
        } else {
          // Ids are consecutive over the requests actually sent: the
          // pending deque is indexed by id - base.
          const std::uint64_t req = next_req_++;
          // The request span opens at the intended send time.
          const std::uint64_t span =
              spans_.begin("gen.request", 0, req, next_send);
          const std::uint64_t s0 = now_ns();
          tcp_->send(Packet{self_, t.ref.node,
                            templates[k].make(dityco::obs::next_trace_id(), x,
                                              req)},
                     0.0);
          spans_.add("net.TcpTransport::send", s0, now_ns(), span, req);
          if (pending.empty()) base = req;
          pending.push_back(Pending{next_send, expect, span, true});
          ++open;
          const double late = static_cast<double>(s0 - next_send) / 1e3;
          late_us.push_back(late);
          late_half[h].push_back(late);
          max_out[h] = std::max(max_out[h], open);
        }
        next_send += std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(gap(rng_)));
        busy = true;
      }
      now = now_ns();
      if (now >= next_sweep) {
        next_sweep = now + 10'000'000;
        // Intended starts grow along the deque: stop at the first request
        // still inside its timeout.
        for (std::size_t i = 0; i < pending.size(); ++i) {
          Pending& p = pending[i];
          if (now - p.intended <= timeout_ns) break;
          if (p.open) {
            ++timeouts;
            close(p);
            i = static_cast<std::size_t>(-1);  // close() may pop the front
          }
        }
      }
      if (now >= end && open == 0) break;
      if (now >= end + timeout_ns + 20'000'000) break;
      if (!busy) {
        // Never sleep past the next intended send, and poll replies at
        // least every poll_ns_.
        std::uint64_t wake = now + poll_ns_;
        if (next_send < end) wake = std::min(wake, next_send);
        nap(wake);
      }
    }
    timeouts += open;
    for (Pending& p : pending) spans_.end(p.open ? p.span : 0);
    base += pending.size();
    pending.clear();

    // Drift: p99 of the last tenth of the phase (by intended start) over
    // p99 of the first tenth.
    std::vector<double> first, last;
    for (const auto& [intended, l] : by_intent) {
      if (intended < start + dur / 10) first.push_back(l);
      if (intended >= end - dur / 10) last.push_back(l);
    }
    const double p99_first = quantile(first, 0.99);
    const double drift = p99_first > 0 ? quantile(last, 0.99) / p99_first : 0;
    // Per-window tails (one-second windows by intended start), so a
    // single stall shows as one bad window rather than the whole phase.
    const std::uint64_t win = std::min<std::uint64_t>(dur, 1'000'000'000ull);
    std::vector<std::vector<double>> windows(dur / win);
    for (const auto& [intended, l] : by_intent) {
      const std::uint64_t w = (intended - start) / win;
      if (w < windows.size()) windows[w].push_back(l);
    }
    std::vector<double> win_p99;
    for (const auto& w : windows) win_p99.push_back(quantile(w, 0.99));

    JsonObj o;
    o.str("event", "phase")
        .str("tag", tag)
        .num("rate", rate)
        .num("seconds", seconds)
        .integer("attempted", attempted)
        .integer("ok", ok)
        .integer("wrong", wrong)
        .integer("timeouts", timeouts)
        .integer("refused", refused)
        .integer("failed", wrong + timeouts + refused)
        .integer("samples", lat_us.size())
        .num("p50_us", quantile(lat_us, 0.5))
        .num("p99_us", quantile(lat_us, 0.99))
        .num("max_us", lat_us.empty() ? 0 : *std::max_element(lat_us.begin(), lat_us.end()))
        .num("late_p50_us", quantile(late_us, 0.5))
        .num("late_p99_us", quantile(late_us, 0.99))
        .num("late_p99_first_half_us", quantile(late_half[0], 0.99))
        .num("late_p99_second_half_us", quantile(late_half[1], 0.99))
        .integer("max_outstanding_first_half", max_out[0])
        .integer("max_outstanding_second_half", max_out[1])
        .num("p99_drift", drift)
        .raw("window_p99_us", json_list(win_p99))
        .integer("bytes_in", tcp_->stats().bytes_in.load(std::memory_order_relaxed) -
                                 bytes_in0)
        .integer("dead_peers", dead_.size());
    return o.done();
  }

  /// N sequential name-service lookups of the first target, each timed
  /// from send to the kNsReply carrying its token.
  std::string probe(int n) {
    std::vector<double> us;
    Packet pkt;
    for (int i = 0; i < n; ++i) {
      const std::uint64_t token = (1ull << 40) + static_cast<std::uint64_t>(i);
      const std::uint64_t span = spans_.begin("gen.ns_probe", 0, token);
      const std::uint64_t t0 = now_ns();
      send_lookup(targets_[0], token);
      const std::uint64_t deadline = t0 + 2'000'000'000ull;
      bool got = false;
      while (!got && now_ns() < deadline) {
        if (!tcp_->recv(self_, pkt, 0.0)) {
          nap(now_ns() + poll_ns_);
          continue;
        }
        if (dityco::core::packet_type(pkt.bytes) != MsgType::kNsReply) continue;
        got = read_ns_reply(pkt).first == token;
      }
      spans_.end(span);
      if (!got) return JsonObj().str("event", "probe").str("error", "timeout").done();
      us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    }
    return JsonObj()
        .str("event", "probe")
        .integer("samples", us.size())
        .num("p50_us", quantile(us, 0.5))
        .done();
  }

  /// Hand the credit that name-service replies gave us back to the
  /// owners, so the daemons' export tables can drain.
  void quit() {
    for (const auto& t : targets_)
      if (t.credit > 0 && !is_dead(t.ref.node))
        tcp_->send(Packet{self_, t.ref.node,
                          dityco::core::make_release(t.ref, self_, 0, t.credit)},
                   0.0);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    tcp_->shutdown();
    spans_.flush();
  }

 private:
  void send_lookup(const Target& t, std::uint64_t token) {
    tcp_->send(Packet{self_, 0,
                      NameService::make_lookup(t.site, t.name,
                                               dityco::vm::NetRef::Kind::kChan,
                                               self_, 0, token,
                                               dityco::obs::next_trace_id(),
                                               true)},
               0.0);
  }

  /// Parse a kNsReply; records the binding and credit of a target.
  std::pair<std::uint64_t, bool> read_ns_reply(const Packet& pkt) {
    Reader r(pkt.bytes);
    const auto h = dityco::core::read_header(r);
    const std::uint64_t token = r.u64();
    const bool ok = r.boolean();
    if (!ok) return {token, false};
    const dityco::vm::NetRef ref = dityco::core::read_netref(r);
    r.str();  // type signature
    const std::uint64_t credit = h.gc ? r.u64() : 0;
    const std::size_t idx = token < targets_.size() ? token : 0;
    targets_[idx].ref = ref;
    targets_[idx].credit += credit;
    return {token, true};
  }

  bool is_dead(std::uint32_t node) const {
    return std::find(dead_.begin(), dead_.end(), node) != dead_.end();
  }

  void nap(std::uint64_t until_ns) const {
    if (poll_ns_ == 0) {
      std::this_thread::yield();
      return;
    }
    const std::uint64_t now = now_ns();
    if (until_ns > now)
      std::this_thread::sleep_for(std::chrono::nanoseconds(until_ns - now));
  }

  // The generator's node id: far above any daemon's.
  static constexpr std::uint32_t self_ = 900;
  bool mob_;
  std::uint64_t poll_ns_;
  std::mt19937_64 rng_;
  Spans spans_;
  std::vector<Target> targets_;
  std::vector<Applet> applets_;
  std::vector<std::uint32_t> dead_;
  std::uint64_t next_req_ = 1;
  std::unique_ptr<dityco::net::TcpTransport> tcp_;
};

}  // namespace

int run_load(const Args& a) {
  // 1 µs timer slack: the default 50 µs would round every short nap up.
  ::prctl(PR_SET_TIMERSLACK, 1000, 0, 0, 0);
  Generator gen(a);
  const std::uint64_t t0 = now_ns();
  if (!gen.resolve()) {
    std::printf("{\"event\":\"error\",\"error\":\"imports did not resolve\"}\n");
    std::fflush(stdout);
    gen.quit();
    return 1;
  }
  std::printf("%s\n", JsonObj()
                          .str("event", "ready")
                          .num("resolve_ms", static_cast<double>(now_ns() - t0) / 1e6)
                          .done()
                          .c_str());
  std::fflush(stdout);
  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string cmd;
    in >> cmd;
    if (cmd == "phase") {
      std::string tag;
      double rate = 0, seconds = 0, timeout_ms = 0;
      in >> tag >> rate >> seconds >> timeout_ms;
      std::printf("%s\n", gen.phase(tag, rate, seconds, timeout_ms).c_str());
    } else if (cmd == "probe") {
      int n = 0;
      in >> n;
      std::printf("%s\n", gen.probe(n).c_str());
    } else if (cmd == "quit") {
      break;
    }
    std::fflush(stdout);
  }
  gen.quit();
  std::printf("{\"event\":\"bye\"}\n");
  std::fflush(stdout);
  return 0;
}

}  // namespace pb
