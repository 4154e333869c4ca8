// A doorbell (an eventcount) that lets one consumer thread block until a
// producer hands it work, without a lock shared between them.
//
// The consumer takes a ticket *before* it scans its queues, and parks on
// that ticket only when the scan found nothing:
//
//   for (;;) {
//     const auto t = bell.ticket();
//     if (scan_queues()) continue;
//     bell.wait(t, backstop);   // returns at once if rung since `t`
//   }
//
// A producer pushes, then rings. Work pushed after the ticket rings the
// bell and so voids the park; work pushed before it is seen by the scan.
// ring() is one atomic RMW plus a load; it makes the futex syscall only
// when the consumer is actually parked.
//
// A producer that rings while it still holds the queue's lock makes the
// two observations agree: a consumer that sees the item also sees the
// ring. rung_since() then tells a lost wakeup (work found after a
// backstop expiry with no ring) from a ring that raced the backstop.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

namespace dityco {

class Doorbell {
 public:
  using Ticket = std::uint32_t;

  Doorbell() = default;
  Doorbell(const Doorbell&) = delete;
  Doorbell& operator=(const Doorbell&) = delete;

  /// The bell's current epoch; take it before scanning for work.
  Ticket ticket() const { return epoch_.load(std::memory_order_seq_cst); }

  /// True when the bell has rung since `t` was taken.
  bool rung_since(Ticket t) const { return ticket() != t; }

  /// Wake the consumer (if parked) and void any park on an older ticket.
  void ring() {
    epoch_.fetch_add(1, std::memory_order_seq_cst);
    if (waiters_.load(std::memory_order_seq_cst) != 0) wake();
  }

  /// Park until the bell rings after `t` or `backstop` elapses. Returns
  /// true when it was rung (possibly before the call), false when the
  /// backstop expired with no ring.
  bool wait(Ticket t, std::chrono::nanoseconds backstop);

 private:
  void wake();

  // The futex word. 32 bits: the kernel compares it against the ticket.
  std::atomic<std::uint32_t> epoch_{0};
  // Consumers inside wait(); a ring skips the syscall while it is 0.
  std::atomic<std::uint32_t> waiters_{0};
};

}  // namespace dityco
