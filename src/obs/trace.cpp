#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>

namespace dityco::obs {

const char* event_name(EventType t) {
  switch (t) {
    case EventType::kComm: return "COMM";
    case EventType::kInst: return "INST";
    case EventType::kShipMsgOut: return "SHIPM-out";
    case EventType::kShipMsgIn: return "SHIPM-in";
    case EventType::kShipObjOut: return "SHIPO-out";
    case EventType::kShipObjIn: return "SHIPO-in";
    case EventType::kFetchReq: return "FETCH-req";
    case EventType::kFetchHit: return "FETCH-hit";
    case EventType::kFetchServed: return "FETCH-served";
    case EventType::kFetchReply: return "FETCH-reply";
    case EventType::kNsExport: return "NS-export";
    case EventType::kNsLookup: return "NS-lookup";
    case EventType::kNsReply: return "NS-reply";
    case EventType::kPacketSend: return "packet-send";
    case EventType::kPacketRecv: return "packet-recv";
    case EventType::kSliceBegin: return "run-slice";
    case EventType::kSliceEnd: return "run-slice";
    case EventType::kRelOut: return "REL-out";
    case EventType::kRelIn: return "REL-in";
    case EventType::kTcpSend: return "tcp-send";
    case EventType::kTcpRecv: return "tcp-recv";
    case EventType::kTcpReconnect: return "tcp-reconnect";
    case EventType::kTcpPeerDead: return "tcp-peer-dead";
  }
  return "?";
}

namespace {
std::atomic<std::uint64_t> g_next_trace_id{1};
constexpr unsigned kTraceCounterBits = 36;
}  // namespace

std::uint64_t next_trace_id() {
  return g_next_trace_id.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t next_trace_id(std::uint32_t node) {
  constexpr std::uint64_t kCounterMask = (1ull << kTraceCounterBits) - 1;
  const std::uint64_t prefix = (static_cast<std::uint64_t>(node) + 1) & 0xffff;
  // The counter wraps within its 36 bits (~6.9e10 ids) and skips 0.
  std::uint64_t n;
  do {
    n = g_next_trace_id.fetch_add(1, std::memory_order_relaxed) & kCounterMask;
  } while (n == 0);
  return (prefix << kTraceCounterBits) | n;
}

std::uint64_t trace_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

bool trace_id_sampled(std::uint64_t id, std::uint64_t every,
                      std::uint64_t seed) {
  if (every <= 1) return true;
  // splitmix64 finaliser: decorrelates the decision from the monotonic
  // id sequence so 1-in-N means a uniform N-th of ids, not id % N.
  std::uint64_t z = id ^ seed;
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  return z % every == 0;
}

void TraceRing::enable(std::size_t capacity, std::uint32_t node,
                       std::uint32_t site) {
  std::size_t cap = 1;
  while (cap < capacity) cap <<= 1;
  slots_ = std::make_unique<Slot[]>(cap);
  capacity_ = cap;
  node_ = node;
  site_ = site;
  head_.store(0, std::memory_order_release);
  mask_ = cap - 1;
}

void TraceRing::record_at(std::uint64_t ts_ns, EventType t,
                          std::uint64_t trace_id, std::uint64_t arg) {
  if (mask_ == 0) return;
  // Single producer: a plain load + release store beats fetch_add and
  // keeps the slot writes strictly before the published head.
  const std::uint64_t seq = head_.load(std::memory_order_relaxed);
  Slot& s = slots_[seq & mask_];
  s.type.store(static_cast<std::uint64_t>(t), std::memory_order_relaxed);
  s.trace_id.store(trace_id, std::memory_order_relaxed);
  s.arg.store(arg, std::memory_order_relaxed);
  s.ts_ns.store(ts_ns, std::memory_order_relaxed);
  head_.store(seq + 1, std::memory_order_release);
}

std::vector<TraceEvent> TraceRing::snapshot() const {
  std::vector<TraceEvent> out;
  if (mask_ == 0) return out;
  const std::uint64_t h = head_.load(std::memory_order_acquire);
  const std::uint64_t lo = h > capacity_ ? h - capacity_ : 0;
  out.reserve(static_cast<std::size_t>(h - lo));
  for (std::uint64_t i = lo; i < h; ++i) {
    const Slot& s = slots_[i & mask_];
    TraceEvent e;
    e.type = static_cast<EventType>(s.type.load(std::memory_order_relaxed));
    e.node = node_;
    e.site = site_;
    e.trace_id = s.trace_id.load(std::memory_order_relaxed);
    e.arg = s.arg.load(std::memory_order_relaxed);
    e.ts_ns = s.ts_ns.load(std::memory_order_relaxed);
    out.push_back(e);
  }
  // If the producer lapped us mid-copy, the overtaken entries were
  // overwritten under our feet: drop them (best-effort live snapshot).
  const std::uint64_t h2 = head_.load(std::memory_order_acquire);
  if (h2 > capacity_ && h2 - capacity_ > lo) {
    const std::uint64_t stale = std::min<std::uint64_t>(
        h2 - capacity_ - lo, out.size());
    out.erase(out.begin(),
              out.begin() + static_cast<std::ptrdiff_t>(stale));
  }
  return out;
}

}  // namespace dityco::obs
