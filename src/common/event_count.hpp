#pragma once
// EventCount: the classic "eventcount" sleep/wake primitive (Vyukov-style,
// as popularised by folly::EventCount): a notification epoch plus a count
// of the waiters currently between prepare_wait() and wake-up.
//
// It lets a consumer park on an arbitrary lock-free condition without a
// mutex and without lost wakeups:
//
//   consumer:  key = ec.prepare_wait();        // announce intent
//              if (queue.try_pop(x)) { ec.cancel_wait(); ... }
//              else ec.commit_wait(key);       // sleep unless epoch moved
//
//   producer:  queue.push(x);                  // make condition true
//              ec.notify_one();                // bump epoch, wake if waiters
//
// Correctness: prepare_wait() registers the waiter and then reads the
// epoch; notify_*() bumps the epoch and then reads the waiter count, all
// seq_cst. If the consumer's epoch read precedes the producer's bump, the
// producer sees the registered waiter and wakes it (or commit_wait sees
// the moved epoch and never sleeps); if it follows the bump, it also
// happens after the producer made the condition true, so the consumer's
// re-check sees it and cancels. Either way no wakeup is lost — the
// property tests/test_chase_lev.cpp regression-tests by hammering a
// single-slot handoff.
//
// The epoch is a 32-bit word on purpose. libstdc++ parks a std::atomic
// directly on its own futex only when the type is futex-sized (4 bytes on
// Linux); wider atomics wait on a proxy counter in a 16-bucket table
// shared by the whole process, and every notify_one() on such a proxy is
// widened into notify_all(). Packing epoch and waiter count into one
// 64-bit word (the earlier layout) therefore released *every* parked
// worker on each post. With a 32-bit epoch, notify_one() wakes one; an
// ABA wrap would need 2^32 notifies between one waiter's prepare and
// commit.
//
// notify_*() with no waiters is one RMW on the epoch and one load, and
// NO syscall, so the task-post fast path stays cheap, and parked workers
// wake exactly when work arrives instead of polling.

#include <atomic>
#include <cstdint>
#include <thread>

namespace evmp::common {

class EventCount {
 public:
  /// Opaque ticket from prepare_wait(), consumed by commit/cancel.
  class WaitKey {
   public:
    explicit WaitKey(std::uint32_t epoch) : epoch_(epoch) {}

   private:
    friend class EventCount;
    std::uint32_t epoch_;
  };

  EventCount() = default;
  EventCount(const EventCount&) = delete;
  EventCount& operator=(const EventCount&) = delete;

  /// Announce intent to sleep. MUST be followed by exactly one of
  /// commit_wait(key) or cancel_wait(); re-check the wait condition in
  /// between.
  [[nodiscard]] WaitKey prepare_wait() noexcept {
    waiters_.fetch_add(1, std::memory_order_seq_cst);
    return WaitKey(epoch_.load(std::memory_order_seq_cst));
  }

  /// Condition became true between prepare and commit: stand down.
  void cancel_wait() noexcept {
    waiters_.fetch_sub(1, std::memory_order_release);
  }

  /// Park until the epoch moves past the one captured by prepare_wait().
  /// Returns immediately if a notify already intervened.
  void commit_wait(WaitKey key) noexcept {
    while (epoch_.load(std::memory_order_acquire) == key.epoch_) {
      epoch_.wait(key.epoch_, std::memory_order_acquire);
    }
    waiters_.fetch_sub(1, std::memory_order_release);
  }

  /// Wake one waiter (if any). Always bumps the epoch so a concurrent
  /// prepare/commit pair cannot miss this notification.
  void notify_one() noexcept {
    epoch_.fetch_add(1, std::memory_order_seq_cst);
    if (waiters_.load(std::memory_order_seq_cst) != 0) epoch_.notify_one();
  }

  /// Wake all waiters (shutdown, barrier release).
  void notify_all() noexcept {
    epoch_.fetch_add(1, std::memory_order_seq_cst);
    if (waiters_.load(std::memory_order_seq_cst) != 0) epoch_.notify_all();
  }

  /// True if any thread is between prepare_wait() and wake-up. A producer
  /// may skip notify_*() when this reads false only if it made its
  /// condition true with a seq_cst RMW and the waiter re-checks it with a
  /// seq_cst load: then either this load sees the waiter's registration
  /// or the waiter's re-check sees the write (store-buffer pairing).
  [[nodiscard]] bool has_waiters() const noexcept {
    return waiters_.load(std::memory_order_seq_cst) != 0;
  }

 private:
  alignas(64) std::atomic<std::uint32_t> epoch_{0};
  std::atomic<std::uint32_t> waiters_{0};
};

/// Bounded spin-then-yield helper shared by the executor workers, the run
/// queue and the fork-join barrier. Mirrors the ladder in
/// exec::detail::CompletionState: pause-spin only on multi-core hosts
/// (spinning on 1 CPU just steals the producer's timeslice), then a few
/// yields, then the caller should park.
class SpinWait {
 public:
  /// One step up the backoff ladder. Returns false once the caller should
  /// stop spinning and park on a real waiting primitive.
  bool spin() noexcept {
    if (spins_ < pause_budget()) {
      ++spins_;
      relax();
      return true;
    }
    if (spins_ < pause_budget() + kYields) {
      ++spins_;
      std::this_thread::yield();
      return true;
    }
    return false;
  }

  /// The pause phase alone, for a wait on one cheap atomic (a run queue's
  /// depth) that should park soon after: a yield only hands the CPU to
  /// whatever else is runnable, so a multi-core host skips those steps.
  /// A single-core host has no pause budget and takes the yield steps,
  /// which are the only way the producer gets to run.
  bool spin_pause() noexcept {
    if (pause_budget() == 0) return spin();
    if (spins_ >= pause_budget()) return false;
    ++spins_;
    relax();
    return true;
  }

  void reset() noexcept { spins_ = 0; }

 private:
  static void relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#else
    std::this_thread::yield();
#endif
  }

  static int pause_budget() noexcept {
    static const int budget =
        std::thread::hardware_concurrency() > 1 ? 128 : 0;
    return budget;
  }

  static constexpr int kYields = 16;
  int spins_ = 0;
};

}  // namespace evmp::common
