#pragma once
// Measurement plumbing shared by the three perfbench workloads: options,
// the result record, latency samples and quantiles, CPU and host-noise
// readings, a deterministic schedule generator, an absolute-deadline pacer
// and a process-wide allocation counter.
//
// Everything here is benchmark-side code: the EventMP layers are timed from
// the outside, around calls into their public functions.

#include <time.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace pb {

/// Monotonic nanoseconds on the same clock as std::chrono::steady_clock
/// (and therefore as evmp::common::now()), so timestamps taken here and
/// inside the runtime compare directly.
inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline std::uint64_t to_ns(std::chrono::steady_clock::time_point tp) noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          tp.time_since_epoch())
          .count());
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// One named number with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything a run reports. `metrics` holds the end-to-end metrics of an
/// untraced run or the per-layer metrics of a traced run; `info` holds
/// pre-rendered JSON values (sample counts, stage tables, provenance).
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> info;
  std::vector<std::string> failures;
  /// Threads were left blocked (a stalled join): the process must exit
  /// without unwinding once the result is printed.
  bool abandoned = false;

  /// Set a metric; a later call with the same name replaces the value.
  void metric(std::string name, double value, std::string unit);
  void note(std::string key, double value);
  void note(std::string key, const std::string& text);
  void note_json(std::string key, std::string json);
  /// Record a verification outcome; a failed check makes the run incorrect.
  void check(bool ok, const std::string& what);
};

/// Exact quantile of a sample set (nearest rank with linear interpolation);
/// sorts `v` in place. Returns 0 for an empty set.
double quantile(std::vector<std::uint64_t>& v, double q);
double quantile(std::vector<double>& v, double q);

/// The highest quantile with at least ten samples beyond it, capped at
/// p99: p99 once there are 1000 samples, lower for smaller sets.
double tail_q(std::size_t n) noexcept;

/// Latency samples split into fixed one-second windows (by completion
/// time), so a tail percentile can be taken per window and the median of
/// the windows reported: one burst of host noise then spoils one window,
/// not the run. Single writer per instance; merge after the writers stop.
class WindowedSamples {
 public:
  WindowedSamples() = default;
  /// `reserve_per_window` preallocates so recording never allocates.
  void init(std::uint64_t t0_ns, int windows, std::size_t reserve_per_window);
  void record(std::uint64_t at_ns, std::uint64_t latency_ns) noexcept {
    if (at_ns < t0_ns_) return;
    const std::uint64_t w = (at_ns - t0_ns_) / 1'000'000'000ull;
    if (w >= windows_.size()) return;
    auto& bucket = windows_[w];
    if (bucket.size() < bucket.capacity()) bucket.push_back(latency_ns);
    else dropped_++;
  }
  /// Move the origin of window 0 (keeps the preallocated windows).
  void set_origin(std::uint64_t t0_ns) noexcept { t0_ns_ = t0_ns; }
  void merge(const WindowedSamples& other);
  [[nodiscard]] std::vector<std::uint64_t> all() const;
  [[nodiscard]] const std::vector<std::vector<std::uint64_t>>& windows()
      const noexcept {
    return windows_;
  }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

 private:
  std::uint64_t t0_ns_ = 0;
  std::vector<std::vector<std::uint64_t>> windows_;
  std::uint64_t dropped_ = 0;
};

/// p50 over all samples and the tail quantile (see tail_q), optionally as
/// the median of per-window tails; writes the sample counts to `res.info`
/// under `prefix`. Values in microseconds.
struct LatencySummary {
  double p50_us = 0.0;
  double tail_us = 0.0;
  double tail_q = 0.0;
  std::size_t samples = 0;
  int windows_used = 0;
};
LatencySummary summarize(const WindowedSamples& s, bool per_window_tail,
                         Result& res, const std::string& prefix);

/// Process user+sys CPU time (getrusage) in microseconds.
double process_cpu_us();
/// CPU clock of the calling thread, readable from any thread while the
/// owning thread lives (pthread_getcpuclockid).
clockid_t this_thread_cpu_clock();
double thread_cpu_us(clockid_t clock);

/// /proc/stat and /proc/loadavg readings bracketing a measured window;
/// note_host sets the host.steal_pct and host.loadavg metrics.
struct HostSample {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
HostSample read_host();
void note_host(Result& res, const HostSample& begin, const HostSample& end);

/// Pin the calling thread to `cpu` modulo the online CPU count; false when
/// the kernel refuses.
bool pin_this_thread(int cpu) noexcept;

/// Static facts about the machine and the build.
void note_provenance(Result& res, const Options& opt);

/// SplitMix64: a tiny seeded generator whose output is the same on every
/// platform and standard library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) noexcept : s_(seed) {}
  std::uint64_t next() noexcept {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

 private:
  std::uint64_t s_;
};

/// Poisson arrival offsets (ns from 0) at `rate_hz` covering [0, span_ns),
/// drawn up front from `seed` by inverse-CDF exponential gaps.
std::vector<std::uint64_t> poisson_schedule(std::uint64_t seed, double rate_hz,
                                            std::uint64_t span_ns);

/// Make this thread's timed sleeps expire within a nanosecond of their
/// deadline (PR_SET_TIMERSLACK 1); the default 50 us slack would show up
/// as generator lag.
void tighten_timer_slack() noexcept;
/// Sleep until the monotonic deadline (absolute, nanosecond resolution).
void sleep_until_ns(std::uint64_t deadline_ns) noexcept;
/// Generators sleep until this long before a due time, then poll, so a
/// send is not late by the generator thread's own wake-up.
constexpr std::uint64_t kSpinLeadNs = 50'000;
/// Sleep until kSpinLeadNs before the deadline, then poll the clock.
void pace_until_ns(std::uint64_t deadline_ns) noexcept;

/// Process-wide operator new counter (replacement operators in
/// harness.cpp). Counting is off until enabled, so untraced runs pay one
/// relaxed load per allocation.
void count_allocations(bool on) noexcept;
std::uint64_t allocations() noexcept;

}  // namespace pb
