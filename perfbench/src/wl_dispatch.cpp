// `dispatch`: closed loop, in process, no sockets.
//
// Two non-member submitter threads drive a 2-thread work-stealing worker
// target. Each loop is one kDefault dispatch of a trivial block (the unit
// operation) and then a 16-block kNameAs burst joined with wait(tag):
// the single round trip and the batched-async-plus-tag-join are the two
// ways user code drives the executor. `core`, `executor` and `common` do
// the work; `net`, `event` and `forkjoin` do none.

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <memory>
#include <thread>

#include "core/runtime.hpp"
#include "executor/work_stealing_executor.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace pb {

namespace {

constexpr int kSubmitters = 2;
constexpr int kWorkers = 2;
constexpr int kBurst = 16;
constexpr std::uint64_t kTraceEvery = 32;  // traced loops: 1 in 32
constexpr const char* kTarget = "pool";

enum Phase : int { kWarm, kPrepare, kMeasure, kStop };

std::atomic<std::uint64_t> g_unhandled{0};
void count_unhandled(std::string_view, std::exception_ptr) {
  g_unhandled.fetch_add(1, std::memory_order_relaxed);
}

struct Fixture {
  evmp::Runtime rt;
  evmp::exec::WorkStealingExecutor* pool = nullptr;
  Fixture() : pool(&rt.create_stealing_worker(kTarget, kWorkers)) {}
};

std::uint64_t op_key(int sub, std::uint64_t loop, std::uint64_t k) {
  return (static_cast<std::uint64_t>(sub) << 56) | (loop << 6) | k;
}

/// One submitter's state. Blocks write their loop's token into `slots`
/// (slot 0: the round trip, 1..16: the burst); the submitter checks every
/// slot after the join, so "blocks executed == blocks dispatched" is
/// verified per loop without a shared counter.
struct Submitter {
  int index = 0;
  std::string tag;
  std::array<std::uint64_t, 1 + kBurst> slots{};
  std::uint64_t loops = 0;
  std::uint64_t warm_loops = 0;
  std::uint64_t measured = 0;        ///< loops completed inside the window
  std::uint64_t measure_loops = 0;   ///< loops run while measuring
  std::uint64_t missing_blocks = 0;
  WindowedSamples op;
  WindowedSamples burst;
  // Read by the watchdog (main thread) while the submitter runs.
  std::atomic<std::uint64_t> progress{0};  ///< loops completed
  std::atomic<int> waiting_in{0};          ///< 1 round trip, 2 tag join
  std::atomic<bool> exited{false};
};

struct Shared {
  std::atomic<int> phase{kWarm};
  std::atomic<int> prepared{0};
  std::atomic<std::uint64_t> origin{0};
  std::uint64_t end = 0;  ///< window end; written before kMeasure
  double warm_seconds = kWarmupSeconds;
  int windows = 1;
  bool traced = false;
  ThreadClocks worker_clocks;
};

/// One loop: round trip, burst, join, verify. Returns (round trip, burst)
/// latencies and their completion times through the out-parameters.
void one_loop(Fixture& fx, Submitter& s, bool tr, ThreadClocks* clocks,
              std::uint64_t* t0, std::uint64_t* t3, std::uint64_t* w) {
  const std::uint64_t token = ++s.loops;
  std::uint64_t* slots = s.slots.data();
  const std::uint64_t op0 = op_key(s.index, token, 0);
  *t0 = now_ns();
  s.waiting_in.store(1, std::memory_order_relaxed);
  fx.rt.invoke_target_block(
      kTarget,
      [slots, token, tr, op0, clocks] {
        if (clocks != nullptr) clocks->register_this_thread();
        if (tr) {
          const std::uint64_t b = now_ns();
          slots[0] = token;
          trace::record("executor.run", op0, b, now_ns());
        } else {
          slots[0] = token;
        }
      },
      evmp::Async::kDefault);
  *t3 = now_ns();
  if (tr) trace::record("op", op0, *t0, *t3);

  for (int i = 0; i < kBurst; ++i) {
    const std::uint64_t opi = op_key(s.index, token, 2 + i);
    std::uint64_t* slot = slots + 1 + i;
    auto block = [slot, token, tr, opi, clocks] {
      if (clocks != nullptr) clocks->register_this_thread();
      if (tr) {
        const std::uint64_t b = now_ns();
        *slot = token;
        trace::record("executor.run", opi, b, now_ns());
      } else {
        *slot = token;
      }
    };
    if (tr) {
      const std::uint64_t a = now_ns();
      fx.rt.invoke_target_block(kTarget, block, evmp::Async::kNameAs, s.tag);
      trace::record("core.submit", opi, a, now_ns());
    } else {
      fx.rt.invoke_target_block(kTarget, block, evmp::Async::kNameAs, s.tag);
    }
  }
  s.waiting_in.store(2, std::memory_order_relaxed);
  fx.rt.wait_tag(s.tag);
  s.waiting_in.store(0, std::memory_order_relaxed);
  *w = now_ns();
  if (tr) trace::record("burst", op_key(s.index, token, 1), *t3, *w);
  for (const std::uint64_t v : s.slots) {
    if (v != token) s.missing_blocks++;
  }
}

void submitter_main(Fixture& fx, Submitter& s, Shared& sh) {
  if (sh.traced) trace::prepare_this_thread();
  bool prepared = false;
  bool origin_set = false;
  for (;;) {
    const int ph = sh.phase.load(std::memory_order_acquire);
    if (ph == kStop) break;
    if (ph == kPrepare && !prepared) {
      // Size the windows from the warm-up rate so recording never
      // allocates inside the measured window.
      const double rate = static_cast<double>(s.warm_loops) / sh.warm_seconds;
      const auto reserve = static_cast<std::size_t>(rate * 2.0) + 1024;
      s.op.init(0, sh.windows, reserve);
      s.burst.init(0, sh.windows, reserve);
      prepared = true;
      sh.prepared.fetch_add(1, std::memory_order_acq_rel);
    }
    if (ph == kMeasure && !origin_set) {
      const std::uint64_t o = sh.origin.load(std::memory_order_acquire);
      s.op.set_origin(o);
      s.burst.set_origin(o);
      origin_set = true;
    }
    const bool tr =
        sh.traced && ph == kMeasure && (s.loops + 1) % kTraceEvery == 0;
    std::uint64_t t0 = 0, t3 = 0, w = 0;
    one_loop(fx, s, tr, sh.traced ? &sh.worker_clocks : nullptr, &t0, &t3,
             &w);
    s.progress.store(s.loops, std::memory_order_relaxed);
    if (ph == kWarm) {
      s.warm_loops++;
    } else if (ph == kMeasure) {
      s.measure_loops++;
      if (w < sh.end) {
        s.op.record(t3, t3 - t0);
        s.burst.record(w, w - t3);
        s.measured++;
      }
    }
  }
  s.exited.store(true, std::memory_order_release);
}

/// Watches the submitters from the main thread. A submitter whose loop
/// count stays still for kStallNs is stuck in a join that will not return
/// (see METHOD.md, "Known defect"): the run is then reported as failed
/// instead of hanging until it is killed.
constexpr std::uint64_t kStallNs = 2'000'000'000;
/// Rare polls: the four measured threads already fill the four CPUs.
constexpr std::uint64_t kWatchPeriodNs = 250'000'000;

struct Watchdog {
  std::vector<std::uint64_t> last;
  std::vector<std::uint64_t> since;
  int stuck = -1;  ///< index of the stalled submitter, -1 when none

  /// Poll until `done()` or `deadline`; false when a submitter stalled.
  template <class Done>
  bool watch(const std::vector<std::unique_ptr<Submitter>>& subs,
             std::uint64_t deadline, Done done) {
    if (last.empty()) {
      last.assign(subs.size(), ~0ull);
      since.assign(subs.size(), now_ns());
    }
    for (;;) {
      const std::uint64_t t = now_ns();
      for (std::size_t i = 0; i < subs.size(); ++i) {
        const std::uint64_t p =
            subs[i]->progress.load(std::memory_order_relaxed);
        if (p != last[i] || subs[i]->exited.load(std::memory_order_acquire)) {
          last[i] = p;
          since[i] = t;
        } else if (t - since[i] > kStallNs) {
          stuck = static_cast<int>(i);
          return false;
        }
      }
      if (done() || t >= deadline) return true;
      sleep_until_ns(std::min(deadline, t + kWatchPeriodNs));
    }
  }
};

struct PhaseOut {
  LatencySummary op;
  LatencySummary burst;
  double cpu_us_per_op = 0.0;
  double ops_per_s = 0.0;
  double worker_cpu_us_per_op = 0.0;
  std::uint64_t loops = 0;
  std::uint64_t measured = 0;
  std::uint64_t measure_loops = 0;
  std::uint64_t missing = 0;
  evmp::RuntimeStats rt_before, rt_after;
  std::uint64_t steals = 0, injection = 0, local = 0, executed = 0;
  std::uint64_t allocs = 0;
  bool stalled = false;
};

/// A stalled submitter never returns: leave it, its state and the fixture
/// alive (leaked, threads detached) and record what the layers show.
void abandon(Fixture& fx, std::unique_ptr<Shared> sh,
             std::vector<std::unique_ptr<Submitter>> subs,
             std::vector<std::thread>& threads, int stuck, Result& res,
             const std::string& prefix) {
  const Submitter& s = *subs[static_cast<std::size_t>(stuck)];
  const char* where =
      s.waiting_in.load() == 1 ? "a kDefault round trip" : "a wait(tag) join";
  res.check(false, prefix + ": submitter " + std::to_string(stuck) +
                       " made no progress for " +
                       std::to_string(kStallNs / 1'000'000'000) + " s in " +
                       where + " after " + std::to_string(s.loops) +
                       " loops (target queue depth " +
                       std::to_string(fx.pool->pending()) + ", blocks run " +
                       std::to_string(fx.pool->tasks_executed()) + ")");
  for (const auto& sub : subs) res.attempted += sub->loops * (1 + kBurst);
  res.failed += 1;
  res.note(prefix + ".stalled_loops", static_cast<double>(s.loops));
  res.note(prefix + ".stalled_pending",
           static_cast<double>(fx.pool->pending()));
  for (auto& t : threads) t.detach();
  (void)sh.release();
  for (auto& sub : subs) (void)sub.release();
  res.abandoned = true;
}

PhaseOut run_phase(Fixture& fx, double seconds, bool traced, Result& res,
                   const std::string& prefix) {
  auto shared = std::make_unique<Shared>();
  Shared& sh = *shared;
  sh.traced = traced;
  sh.windows = static_cast<int>(std::ceil(seconds));
  std::vector<std::unique_ptr<Submitter>> subs;
  for (int i = 0; i < kSubmitters; ++i) {
    auto s = std::make_unique<Submitter>();
    s->index = i;
    s->tag = "burst" + std::to_string(i);
    subs.push_back(std::move(s));
  }
  std::vector<std::thread> threads;
  for (auto& s : subs) {
    threads.emplace_back(
        [&fx, &sh, sp = s.get()] { submitter_main(fx, *sp, sh); });
  }
  PhaseOut out;
  Watchdog dog;
  auto stall = [&] {
    abandon(fx, std::move(shared), std::move(subs), threads, dog.stuck, res,
            prefix);
    out.stalled = true;
    return out;
  };
  if (!dog.watch(subs, now_ns() + static_cast<std::uint64_t>(
                                      sh.warm_seconds * 1e9),
                 [] { return false; })) {
    return stall();
  }
  sh.phase.store(kPrepare, std::memory_order_release);
  if (!dog.watch(subs, ~0ull, [&] {
        return sh.prepared.load(std::memory_order_acquire) == kSubmitters;
      })) {
    return stall();
  }

  const std::uint64_t exec0 = fx.pool->tasks_executed();
  const std::uint64_t steals0 = fx.pool->steals();
  const std::uint64_t inj0 = fx.pool->injection_pops();
  const std::uint64_t local0 = fx.pool->local_pops();
  out.rt_before = fx.rt.stats();
  const double worker0 = sh.worker_clocks.total_cpu_us();
  const HostSample host0 = read_host();
  const std::uint64_t allocs0 = allocations();
  if (traced) {
    trace::enable(true);
    count_allocations(true);
  }
  const double cpu0 = process_cpu_us();
  const std::uint64_t origin = now_ns();
  sh.end = origin + static_cast<std::uint64_t>(seconds * 1e9);
  sh.origin.store(origin, std::memory_order_release);
  sh.phase.store(kMeasure, std::memory_order_release);

  if (!dog.watch(subs, sh.end, [] { return false; })) return stall();

  const double cpu1 = process_cpu_us();
  const std::uint64_t end = now_ns();
  count_allocations(false);
  out.allocs = allocations() - allocs0;
  const HostSample host1 = read_host();
  // The traced run registers the worker clocks during warm-up, so the
  // window's share is the difference of two readings.
  out.worker_cpu_us_per_op = sh.worker_clocks.total_cpu_us() - worker0;
  sh.phase.store(kStop, std::memory_order_release);
  if (!dog.watch(subs, ~0ull, [&] {
        for (auto& sp : subs) {
          if (!sp->exited.load(std::memory_order_acquire)) return false;
        }
        return true;
      })) {
    return stall();
  }
  for (auto& t : threads) t.join();
  trace::enable(false);
  out.rt_after = fx.rt.stats();
  out.executed = fx.pool->tasks_executed() - exec0;
  out.steals = fx.pool->steals() - steals0;
  out.injection = fx.pool->injection_pops() - inj0;
  out.local = fx.pool->local_pops() - local0;

  WindowedSamples op, burst;
  for (auto& s : subs) {
    op.merge(s->op);
    burst.merge(s->burst);
    out.loops += s->loops;
    out.measured += s->measured;
    out.measure_loops += s->measure_loops;
    out.missing += s->missing_blocks;
  }
  out.op = summarize(op, true, res, prefix + ".op");
  out.burst = summarize(burst, true, res, prefix + ".burst");
  const double elapsed_s = static_cast<double>(end - origin) / 1e9;
  const auto n = static_cast<double>(std::max<std::size_t>(out.op.samples, 1));
  out.cpu_us_per_op = (cpu1 - cpu0) / n;
  out.ops_per_s = static_cast<double>(out.op.samples) / elapsed_s;
  out.worker_cpu_us_per_op /= n;
  note_host(res, host0, host1);
  return out;
}

/// Set-up's first operation: one round trip and one burst from the
/// calling thread, verified like every measured loop.
bool first_operation(Fixture& fx) {
  Submitter s;
  s.tag = "setup";
  std::uint64_t t0 = 0, t3 = 0, w = 0;
  one_loop(fx, s, false, nullptr, &t0, &t3, &w);
  return s.missing_blocks == 0;
}

void verify(Result& res, const PhaseOut& o, const std::string& phase) {
  res.attempted += o.loops * (1 + kBurst);
  res.failed += o.missing;
  res.check(o.missing == 0, phase + ": blocks executed != blocks dispatched");
  res.check(o.op.samples > 0, phase + ": no operation completed");
}

}  // namespace

Result run_dispatch(const Options& opt) {
  Result res;
  evmp::exec::set_unhandled_exception_hook(&count_unhandled);

  std::vector<double> setups;
  std::unique_ptr<Fixture> fx;
  bool setup_ok = true;
  for (int r = 0; r < kSetupRepeats; ++r) {
    fx.reset();
    const std::uint64_t t = now_ns();
    fx = std::make_unique<Fixture>();
    setup_ok = first_operation(*fx) && setup_ok;
    setups.push_back(static_cast<double>(now_ns() - t) / 1e9);
  }
  res.check(setup_ok, "setup: first operation lost a block");
  res.note("setup.first_s", setups.front());
  const double setup_s = quantile(setups, 0.5);

  if (!opt.trace) {
    const PhaseOut o = run_phase(*fx, opt.seconds, false, res, "dispatch");
    if (o.stalled) {
      (void)fx.release();
      return res;
    }
    verify(res, o, "dispatch");
    res.metric("setup_s", setup_s, "s");
    res.metric("op_p50_us", o.op.p50_us, "us");
    res.metric("op_p99_us", o.op.tail_us, "us");
    res.metric("cpu_us_per_op", o.cpu_us_per_op, "us");
    res.metric("burst_join_p50_us", o.burst.p50_us, "us");
    res.metric("run.ops_per_s", o.ops_per_s, "1/s");
  } else {
    const PhaseOut ref = run_phase(*fx, opt.seconds * kReferenceShare, false,
                                   res, "reference");
    if (ref.stalled) {
      (void)fx.release();
      return res;
    }
    verify(res, ref, "reference");
    trace::clear();
    const PhaseOut tr = run_phase(*fx, opt.seconds * (1 - kReferenceShare),
                                  true, res, "traced");
    if (tr.stalled) {
      (void)fx.release();
      return res;
    }
    verify(res, tr, "traced");
    const std::vector<trace::Span> spans = trace::collect();

    // Walk the spans operation by operation (ids sort loop-major).
    std::vector<std::uint64_t> pre_run, run, wake, submit, queue_wait;
    std::vector<std::uint64_t> b_submit, b_drain, b_wake, burst_total, ops;
    std::uint64_t burst_start = 0, burst_end = 0, last_submit_end = 0;
    std::uint64_t max_run_end = 0;
    bool in_burst = false;
    auto finish_burst = [&] {
      if (!in_burst) return;
      b_submit.push_back(last_submit_end - burst_start);
      b_drain.push_back(max_run_end > last_submit_end
                            ? max_run_end - last_submit_end
                            : 0);
      b_wake.push_back(burst_end > max_run_end ? burst_end - max_run_end : 0);
      burst_total.push_back(burst_end - burst_start);
      in_burst = false;
    };
    std::size_t i = 0;
    while (i < spans.size()) {
      std::size_t j = i;
      const trace::Span* op = nullptr;
      const trace::Span* ex = nullptr;
      const trace::Span* sub = nullptr;
      const trace::Span* burst = nullptr;
      for (; j < spans.size() && spans[j].op == spans[i].op; ++j) {
        const std::string_view n = spans[j].name;
        if (n == "op") op = &spans[j];
        else if (n == "executor.run") ex = &spans[j];
        else if (n == "core.submit") sub = &spans[j];
        else if (n == "burst") burst = &spans[j];
      }
      const std::uint64_t k = spans[i].op & 63;
      if (k == 0) finish_burst();
      if (k == 0 && op != nullptr && ex != nullptr) {
        ops.push_back(op->end_ns - op->start_ns);
        pre_run.push_back(ex->start_ns - op->start_ns);
        run.push_back(ex->end_ns - ex->start_ns);
        wake.push_back(op->end_ns - ex->end_ns);
      } else if (k == 1 && burst != nullptr) {
        in_burst = true;
        burst_start = burst->start_ns;
        burst_end = burst->end_ns;
        last_submit_end = burst_start;
        max_run_end = 0;
      } else if (k >= 2 && sub != nullptr && ex != nullptr && in_burst) {
        submit.push_back(sub->end_ns - sub->start_ns);
        queue_wait.push_back(ex->start_ns > sub->end_ns
                                 ? ex->start_ns - sub->end_ns
                                 : 0);
        last_submit_end = std::max(last_submit_end, sub->end_ns);
        max_run_end = std::max(max_run_end, ex->end_ns);
      }
      i = j;
    }
    finish_burst();

    const double loops =
        static_cast<double>(std::max<std::uint64_t>(tr.measure_loops, 1));
    const double tasks =
        static_cast<double>(std::max<std::uint64_t>(tr.executed, 1));
    const double traced_op_p50 = quantile(ops, 0.5) / 1e3;
    res.metric("core.submit_ns_p50", quantile(submit, 0.5), "ns");
    res.metric("core.posted_per_op",
               static_cast<double>(tr.rt_after.posted - tr.rt_before.posted) /
                   loops,
               "count");
    res.metric("core.inline_per_op",
               static_cast<double>(tr.rt_after.inline_fast_path -
                                   tr.rt_before.inline_fast_path) /
                   loops,
               "count");
    res.metric("executor.queue_wait_us_p50", quantile(queue_wait, 0.5) / 1e3,
               "us");
    res.metric("executor.wake_us_p50", quantile(wake, 0.5) / 1e3, "us");
    res.metric("executor.steals_per_task",
               static_cast<double>(tr.steals) / tasks, "ratio");
    res.metric("executor.injection_pops_per_task",
               static_cast<double>(tr.injection) / tasks, "ratio");
    res.metric("executor.local_pops_per_task",
               static_cast<double>(tr.local) / tasks, "ratio");
    res.metric("executor.worker_cpu_us_per_op", tr.worker_cpu_us_per_op, "us");
    res.metric("common.allocs_per_op",
               static_cast<double>(tr.allocs) /
                   static_cast<double>(std::max<std::uint64_t>(tr.measured, 1)),
               "count");
    res.metric("run.ops_per_s", tr.ops_per_s, "1/s");
    res.metric("burst_join_p50_us", ref.burst.p50_us, "us");
    res.metric("trace.op_p50_overhead_pct",
               ref.op.p50_us > 0 ? 100.0 * (tr.op.p50_us / ref.op.p50_us - 1.0)
                                 : 0.0,
               "%");
    res.metric("trace.cpu_overhead_pct",
               ref.cpu_us_per_op > 0
                   ? 100.0 * (tr.cpu_us_per_op / ref.cpu_us_per_op - 1.0)
                   : 0.0,
               "%");
    res.note("reference.op_p50_us", ref.op.p50_us);
    res.metric("op_p99_us", ref.op.tail_us, "us");
    res.note("reference.cpu_us_per_op", ref.cpu_us_per_op);
    res.note("traced.op_p50_us", tr.op.p50_us);
    res.note("trace.spans", static_cast<double>(spans.size()));
    res.note("trace.dropped_spans", static_cast<double>(trace::dropped()));
    res.note("unhandled_exceptions",
             static_cast<double>(g_unhandled.load()));
    note_stages(res, "stages.round_trip", traced_op_p50,
                {{"core.submit+executor.queue_wait",
                  quantile(pre_run, 0.5) / 1e3},
                 {"executor.run", quantile(run, 0.5) / 1e3},
                 {"executor.wake", quantile(wake, 0.5) / 1e3}});
    note_stages(res, "stages.burst", quantile(burst_total, 0.5) / 1e3,
                {{"core.submit_x16", quantile(b_submit, 0.5) / 1e3},
                 {"executor.drain_after_last_submit",
                  quantile(b_drain, 0.5) / 1e3},
                 {"executor.wake", quantile(b_wake, 0.5) / 1e3}});
    note_self_times(res, spans);
    res.metric("setup_s", setup_s, "s");
  }
  const std::uint64_t unhandled = g_unhandled.load();
  res.failed += unhandled;
  res.check(unhandled == 0, "an exception reached the unhandled hook");
  fx.reset();
  return res;
}

}  // namespace pb
