#include "support/doorbell.hpp"

#include <linux/futex.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <climits>

namespace dityco {

namespace {

static_assert(sizeof(std::atomic<std::uint32_t>) == sizeof(std::uint32_t),
              "the futex word must be a plain 32-bit cell");

long futex(std::atomic<std::uint32_t>* word, int op, std::uint32_t val,
           const timespec* timeout) {
  return ::syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(word), op,
                   val, timeout, nullptr, 0);
}

}  // namespace

bool Doorbell::wait(Ticket t, std::chrono::nanoseconds backstop) {
  using Clock = std::chrono::steady_clock;
  const auto deadline = Clock::now() + backstop;
  // Register before the final epoch check: a ring either bumps the epoch
  // before this check (we return) or reads waiters_ != 0 after it (and
  // wakes the futex, whose own compare catches a bump in between).
  waiters_.fetch_add(1, std::memory_order_seq_cst);
  for (;;) {
    if (epoch_.load(std::memory_order_seq_cst) != t) break;
    const auto left = deadline - Clock::now();
    if (left <= Clock::duration::zero()) break;
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(left).count();
    const timespec ts{static_cast<time_t>(ns / 1'000'000'000),
                      static_cast<long>(ns % 1'000'000'000)};
    // Returns on a wake, a changed word (EAGAIN), a signal or the
    // timeout; the loop re-checks which.
    futex(&epoch_, FUTEX_WAIT_PRIVATE, t, &ts);
  }
  waiters_.fetch_sub(1, std::memory_order_seq_cst);
  return rung_since(t);
}

void Doorbell::wake() { futex(&epoch_, FUTEX_WAKE_PRIVATE, INT_MAX, nullptr); }

}  // namespace dityco
