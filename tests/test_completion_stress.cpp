// Stress test for the completion wake-up: two foreign threads loop a
// kDefault round trip of an empty block followed by 16 kNameAs blocks
// joined with wait(tag), against a one-thread worker target and a
// two-thread stealing target.
//
// This is the shape that hung joiners in CompletionState::wait when
// set_done() published with a release store: the notifier's check for
// parked waiters could read "none" while the joiner's last check still
// read kPending. A stall cannot be joined, so a watchdog ends the process
// with a diagnostic instead of letting the test hang.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "core/runtime.hpp"

namespace evmp {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kSubmitters = 2;
constexpr int kBurst = 16;
constexpr auto kRunFor = std::chrono::milliseconds{2000};
constexpr auto kStallLimit = std::chrono::seconds{2};

/// Drive `target` from kSubmitters foreign threads for kRunFor; returns
/// the loops completed. Exits the process if a submitter makes no
/// progress for kStallLimit.
std::uint64_t hammer(Runtime& rt, const std::string& target) {
  std::array<std::atomic<std::uint64_t>, kSubmitters> loops{};
  std::atomic<bool> stop{false};
  std::atomic<int> running{kSubmitters};
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s] {
      const std::string tag = target + ".burst" + std::to_string(s);
      while (!stop.load(std::memory_order_relaxed)) {
        rt.invoke_target_block(target, [] {}, Async::kDefault);
        for (int i = 0; i < kBurst; ++i) {
          rt.invoke_target_block(target, [] {}, Async::kNameAs, tag);
        }
        rt.wait_tag(tag);
        loops[static_cast<std::size_t>(s)].fetch_add(
            1, std::memory_order_relaxed);
      }
      running.fetch_sub(1);
    });
  }

  const auto start = Clock::now();
  std::array<std::uint64_t, kSubmitters> seen{};
  std::array<Clock::time_point, kSubmitters> moved{};
  moved.fill(start);
  while (running.load() > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds{20});
    const auto now = Clock::now();
    if (now - start >= kRunFor) stop.store(true);
    for (std::size_t s = 0; s < kSubmitters; ++s) {
      const std::uint64_t n = loops[s].load(std::memory_order_relaxed);
      if (n != seen[s]) {
        seen[s] = n;
        moved[s] = now;
      } else if (running.load() > 0 && now - moved[s] > kStallLimit) {
        const auto loops_done = static_cast<unsigned long long>(n);
        std::fprintf(stderr,
                     "stall: submitter %zu on target '%s' made no progress "
                     "for 2 s after %llu loops (queue depth %zu)\n",
                     s, target.c_str(), loops_done,
                     rt.resolve(target).pending());
        std::fflush(stderr);
        std::_Exit(EXIT_FAILURE);
      }
    }
  }
  for (auto& t : submitters) t.join();
  std::uint64_t total = 0;
  for (const auto& n : loops) total += n.load();
  return total;
}

TEST(CompletionStress, ForeignJoinsOnWorkerTargetNeverStall) {
  Runtime rt;
  rt.create_worker("worker1", 1);
  EXPECT_GT(hammer(rt, "worker1"), 0u);
}

TEST(CompletionStress, ForeignJoinsOnStealingTargetNeverStall) {
  Runtime rt;
  rt.create_stealing_worker("stealing2", 2);
  EXPECT_GT(hammer(rt, "stealing2"), 0u);
}

}  // namespace
}  // namespace evmp
