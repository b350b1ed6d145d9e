#pragma once
// The three perfbench workloads. Each builds its fixture several times to
// time set-up, runs for the requested seconds, verifies every output and
// returns the end-to-end metrics (untraced) or the per-layer metrics
// (traced: an untraced reference phase, then a traced phase).

#include <time.h>

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "harness.hpp"
#include "trace.hpp"

namespace evmp {
class Runtime;
}

namespace pb {

Result run_dispatch(const Options& opt);
Result run_echo(const Options& opt);
Result run_edt(const Options& opt);

/// Unmeasured lead-in before each measured phase (caches, lazy pools).
constexpr double kWarmupSeconds = 0.5;
/// Fixture constructions per run; setup_s is their median.
constexpr int kSetupRepeats = 31;
/// Share of a traced run spent on the untraced reference phase.
constexpr double kReferenceShare = 1.0 / 3.0;

/// CPU clocks of the threads that ran benchmark blocks, registered once
/// per thread from inside a block (the layers' public API names no thread
/// ids, so they are observed). A clock whose thread has exited reads 0.
class ThreadClocks {
 public:
  void register_this_thread();
  [[nodiscard]] double total_cpu_us() const;
  void clear();

 private:
  mutable std::mutex mu_;
  std::vector<clockid_t> clocks_;
};

/// Pin each of the `n` threads of worker target `target` to its own CPU,
/// first_cpu, first_cpu + 1, ...: n blocks are dispatched and each holds
/// its thread until all n have started, so every thread takes exactly one.
bool pin_workers(evmp::Runtime& rt, const char* target, int n, int first_cpu);

/// Record the median self time of every span name as `self_time_p50_us`.
void note_self_times(Result& res, const std::vector<trace::Span>& spans);

/// Append a stage table (name -> p50 us) and its residual against `op_p50`.
void note_stages(Result& res, const std::string& key, double op_p50_us,
                 const std::vector<std::pair<std::string, double>>& stages);

}  // namespace pb
