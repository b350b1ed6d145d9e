// `edt`: open loop of paper §V.A GUI events.
//
// Events arrive Poisson at 100/s and a probe event goes to the EventLoop
// every 5 ms. Each event runs the Figure 6 handler on real Crypt
// (SizeClass::kTiny): it dispatches to a 1-thread worker target, runs the
// S1/S3 halves on a width-2 team leased from fj::TeamPool, and hops back
// to the EDT for S2/S4. Events alternate between the nowait-hop form (the
// EDT serves top-level dispatch) and the await form (the EDT serves
// re-entrant pump_one dispatch while it waits). The unit operation is
// fire -> S4 done. The generator fixes the schedule from the seed, posts
// each event at its due time (pace_until_ns) and its CPU time is left out
// of cpu_us_per_op. `event`, `forkjoin` and `kernels` do the work; `net`
// does none.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <thread>

#include "core/runtime.hpp"
#include "event/event_loop.hpp"
#include "event/gui.hpp"
#include "forkjoin/team_pool.hpp"
#include "kernels/kernel.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace pb {

namespace {

constexpr double kEventRateHz = 100.0;
constexpr std::uint64_t kProbePeriodNs = 5'000'000;
constexpr int kTeamWidth = 2;
constexpr std::size_t kKernelRing = 64;
constexpr double kDrainSeconds = 2.0;
constexpr std::uint64_t kLeadNs = 20'000'000;
constexpr int kSeqRepeats = 31;

namespace ev = evmp::event;

struct Fixture {
  ev::EventLoop edt{"edt"};
  evmp::Runtime rt;
  ev::Gui gui{edt, ev::ConfinementPolicy::kCount};
  ev::Label* status = nullptr;
  ev::ProgressBar* progress = nullptr;
  std::vector<std::unique_ptr<evmp::kernels::Kernel>> ring;

  Fixture() {
    edt.start();
    rt.register_edt("edt", edt);
    rt.create_worker("worker", 1);
    status = &gui.add_label("status");
    progress = &gui.add_progress_bar("progress");
    for (std::size_t i = 0; i < kKernelRing; ++i) {
      ring.push_back(
          evmp::kernels::make_kernel("crypt", evmp::kernels::SizeClass::kTiny));
      ring.back()->set_work_model(evmp::kernels::WorkModel::kReal);
      ring.back()->prepare();
    }
    // Every set-up pays for its team: drop cached teams, then warm one.
    evmp::fj::TeamPool::instance().clear();
    { auto lease = evmp::fj::TeamPool::instance().lease(kTeamWidth); }
  }
  ~Fixture() {
    rt.clear();
    edt.stop();
  }
  Fixture(const Fixture&) = delete;
  Fixture& operator=(const Fixture&) = delete;
};

/// One phase's events and everything recorded about them. Per-event slots
/// are written on the EDT before `completed` is released and read by the
/// generator thread after acquiring it.
struct Run {
  Fixture* fx = nullptr;
  bool traced = false;
  std::vector<std::uint64_t> due;
  std::vector<std::uint64_t> done;  ///< S4 end; 0 = never reached S4
  std::vector<std::uint8_t> invalid;
  std::atomic<std::uint64_t> completed{0};
  std::uint64_t window_begin = 0, window_end = 0;
  WindowedSamples op;     ///< EDT-only writer
  WindowedSamples probe;  ///< EDT-only writer
  ThreadClocks worker_clocks;
};

std::uint64_t half(Run* r, std::uint64_t op, evmp::kernels::Kernel* k,
                   long lo, long hi, const char* region) {
  const std::uint64_t la = now_ns();
  auto lease = evmp::fj::TeamPool::instance().lease(kTeamWidth);
  const std::uint64_t lb = now_ns();
  const std::uint64_t sum = k->run_parallel_range(*lease, lo, hi);
  if (r->traced) {
    const std::uint64_t rb = now_ns();
    trace::record("forkjoin.lease", op, la, lb);
    trace::record(region, op, lb, rb);
  }
  return sum;
}

/// S4 on the EDT: final GUI updates, then the event is done.
void s4(Run* r, std::size_t i, bool ok, std::uint64_t hop_posted) {
  const std::uint64_t s = now_ns();
  r->fx->progress->set_value(100);
  r->fx->status->set_text("done");
  const std::uint64_t end = now_ns();
  const std::uint64_t op = i + 1;
  if (r->traced) {
    if (hop_posted != 0) trace::record("event.hop", op, hop_posted, s);
    trace::record("edt.s4", op, s, end);
    trace::record("op", op, r->due[i], end);
  }
  if (r->due[i] >= r->window_begin && r->due[i] < r->window_end) {
    r->op.record(r->due[i], end - r->due[i]);
  }
  r->done[i] = end;
  r->invalid[i] = ok ? 0 : 1;
  r->completed.fetch_add(1, std::memory_order_release);
}

void nowait_form(Run* r, std::size_t i, evmp::kernels::Kernel* k,
                 std::uint64_t h0) {
  const std::uint64_t op = i + 1;
  const std::uint64_t a = now_ns();
  r->fx->rt.invoke_target_block(
      "worker",
      [r, i, k, op] {
        const std::uint64_t ws = now_ns();
        r->worker_clocks.register_this_thread();
        const long mid = k->units() / 2;
        std::uint64_t sum = half(r, op, k, 0, mid, "forkjoin.region_s1");
        // //#omp target virtual(edt) nowait  -- S2
        r->fx->rt.invoke_target_block(
            "edt", [r] { r->fx->progress->set_value(50); },
            evmp::Async::kNowait);
        sum += half(r, op, k, mid, k->units(), "forkjoin.region_s3");
        const bool ok = k->validate(sum);
        const std::uint64_t p = now_ns();
        if (r->traced) trace::record("executor.run", op, ws, p);
        // //#omp target virtual(edt) nowait  -- S4
        r->fx->rt.invoke_target_block(
            "edt", [r, i, ok, p] { s4(r, i, ok, p); }, evmp::Async::kNowait);
      },
      evmp::Async::kNowait);
  if (r->traced) {
    const std::uint64_t b = now_ns();
    trace::record("core.submit", op, a, b);
    trace::record("edt.handler", op, h0, b);
  }
}

void await_form(Run* r, std::size_t i, evmp::kernels::Kernel* k) {
  const std::uint64_t op = i + 1;
  const long mid = k->units() / 2;
  std::uint64_t sum = 0;
  bool ok = false;
  const std::uint64_t a1 = now_ns();
  // //#omp target virtual(worker) await  -- S1
  r->fx->rt.invoke_target_block(
      "worker",
      [r, op, k, mid, &sum] {
        const std::uint64_t ws = now_ns();
        r->worker_clocks.register_this_thread();
        sum = half(r, op, k, 0, mid, "forkjoin.region_s1");
        if (r->traced) trace::record("executor.run", op, ws, now_ns());
      },
      evmp::Async::kAwait);
  const std::uint64_t b1 = now_ns();
  r->fx->progress->set_value(50);  // S2, back on the EDT
  const std::uint64_t a3 = now_ns();
  // //#omp target virtual(worker) await  -- S3
  r->fx->rt.invoke_target_block(
      "worker",
      [r, op, k, mid, &sum, &ok] {
        const std::uint64_t ws = now_ns();
        sum += half(r, op, k, mid, k->units(), "forkjoin.region_s3");
        ok = k->validate(sum);
        if (r->traced) trace::record("executor.run", op, ws, now_ns());
      },
      evmp::Async::kAwait);
  const std::uint64_t b3 = now_ns();
  if (r->traced) {
    trace::record("await.s1", op, a1, b1);
    trace::record("edt.s2", op, b1, a3);
    trace::record("await.s3", op, a3, b3);
  }
  s4(r, i, ok, 0);
}

void on_event(Run* r, std::size_t i, std::uint64_t posted) {
  const std::uint64_t h0 = now_ns();
  if (r->traced) {
    trace::record("gen.lag", i + 1, r->due[i], posted);
    trace::record("edt.queue", i + 1, posted, h0);
  }
  r->fx->status->set_text("busy");
  evmp::kernels::Kernel* k = r->fx->ring[i % kKernelRing].get();
  if (i % 2 == 0) {
    nowait_form(r, i, k, h0);
  } else {
    await_form(r, i, k);
  }
}

void on_probe(Run* r, std::uint64_t posted) {
  const std::uint64_t t = now_ns();
  if (posted >= r->window_begin && posted < r->window_end) {
    r->probe.record(posted, t - posted);
  }
}

struct PhaseOut {
  LatencySummary op;
  LatencySummary probe;
  double cpu_us_per_op = 0.0, ops_per_s = 0.0, worker_cpu_us_per_op = 0.0;
  double lag_p50_us = 0.0, lag_p99_us = 0.0;
  std::uint64_t fired = 0, unfinished = 0, invalid = 0, window_ops = 0;
  double edt_delay_p50_us = 0.0, edt_delay_p99_us = 0.0, busy_pct = 0.0;
  int max_nesting = 0;
  std::uint64_t teams_created = 0, lease_contentions = 0, allocs = 0;
  evmp::RuntimeStats rt0, rt1;
};

PhaseOut run_phase(Fixture& fx, Run& r, double seconds, std::uint64_t seed,
                   bool traced, Result& res, const std::string& prefix) {
  const auto span_ns =
      static_cast<std::uint64_t>((kWarmupSeconds + seconds) * 1e9);
  const std::vector<std::uint64_t> offsets =
      poisson_schedule(seed, kEventRateHz, span_ns);
  const std::uint64_t base = now_ns() + kLeadNs;
  r.fx = &fx;
  r.traced = traced;
  for (const std::uint64_t o : offsets) r.due.push_back(base + o);
  r.done.assign(r.due.size(), 0);
  r.invalid.assign(r.due.size(), 0);
  r.window_begin = base + static_cast<std::uint64_t>(kWarmupSeconds * 1e9);
  r.window_end = base + span_ns;
  const int windows = static_cast<int>(std::ceil(seconds));
  r.op.init(r.window_begin, windows,
            static_cast<std::size_t>(kEventRateHz * 2));
  r.probe.init(r.window_begin, windows,
               static_cast<std::size_t>(2e9 / kProbePeriodNs));
  std::vector<std::uint64_t> lag;
  lag.reserve(r.due.size());
  if (traced) {
    fx.edt.invoke_and_wait([] { trace::prepare_this_thread(); });
    fx.rt.invoke_target_block("worker", [] { trace::prepare_this_thread(); },
                              evmp::Async::kDefault);
  }

  PhaseOut out;
  auto& pool = evmp::fj::TeamPool::instance();
  double cpu0 = 0, cpu1 = 0, worker0 = 0, worker1 = 0;
  HostSample h0, h1;
  std::uint64_t teams0 = 0, contention0 = 0, allocs0 = 0, busy0 = 0;
  bool began = false, ended = false;
  auto begin_window = [&] {
    began = true;
    h0 = read_host();
    fx.edt.reset_stats();
    busy0 = static_cast<std::uint64_t>(fx.edt.busy_time().count());
    teams0 = pool.teams_created();
    contention0 = pool.lease_contentions();
    out.rt0 = fx.rt.stats();
    worker0 = r.worker_clocks.total_cpu_us();
    allocs0 = allocations();
    if (traced) {
      trace::enable(true);
      count_allocations(true);
    }
    cpu0 = process_cpu_us() - thread_cpu_us(CLOCK_THREAD_CPUTIME_ID);
  };
  auto end_window = [&] {
    ended = true;
    cpu1 = process_cpu_us() - thread_cpu_us(CLOCK_THREAD_CPUTIME_ID);
    count_allocations(false);
    out.allocs = allocations() - allocs0;
    worker1 = r.worker_clocks.total_cpu_us();
    const auto delay = fx.edt.dispatch_delay().snapshot();
    out.edt_delay_p50_us = static_cast<double>(delay.percentile(0.5)) / 1e3;
    out.edt_delay_p99_us = static_cast<double>(delay.percentile(0.99)) / 1e3;
    out.busy_pct = 100.0 *
                   static_cast<double>(
                       static_cast<std::uint64_t>(fx.edt.busy_time().count()) -
                       busy0) /
                   (seconds * 1e9);
    out.max_nesting = fx.edt.max_nesting();
    out.teams_created = pool.teams_created() - teams0;
    out.lease_contentions = pool.lease_contentions() - contention0;
    h1 = read_host();
  };

  tighten_timer_slack();
  std::size_t next_event = 0;
  std::uint64_t next_probe = base + kProbePeriodNs / 2;
  const std::uint64_t last = base + span_ns;
  for (;;) {
    const std::uint64_t ev_due =
        next_event < r.due.size() ? r.due[next_event] : UINT64_MAX;
    const std::uint64_t pr_due = next_probe < last ? next_probe : UINT64_MAX;
    std::uint64_t due = std::min(ev_due, pr_due);
    if (!began) due = std::min(due, r.window_begin);
    if (!ended) due = std::min(due, r.window_end);
    if (due == UINT64_MAX) break;
    pace_until_ns(due);
    if (!began && now_ns() >= r.window_begin) begin_window();
    if (!ended && now_ns() >= r.window_end) end_window();
    if (ev_due <= pr_due && ev_due <= due) {
      const std::size_t i = next_event++;
      const std::uint64_t posted = now_ns();
      Run* rp = &r;
      fx.edt.post(
          evmp::exec::Task([rp, i, posted] { on_event(rp, i, posted); }));
      if (r.due[i] >= r.window_begin && r.due[i] < r.window_end) {
        lag.push_back(posted - r.due[i]);
      }
    } else if (pr_due <= due) {
      next_probe += kProbePeriodNs;
      const std::uint64_t posted = now_ns();
      Run* rp = &r;
      fx.edt.post(evmp::exec::Task([rp, posted] { on_probe(rp, posted); }));
    }
  }
  out.fired = next_event;
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(kDrainSeconds * 1e9);
  while (r.completed.load(std::memory_order_acquire) < out.fired &&
         now_ns() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  trace::enable(false);
  const std::uint64_t completed = r.completed.load(std::memory_order_acquire);
  out.unfinished = out.fired - completed;
  if (out.unfinished == 0) fx.edt.wait_until_idle();
  out.rt1 = fx.rt.stats();
  for (std::size_t i = 0; i < out.fired; ++i) {
    if (r.done[i] != 0 && r.invalid[i] != 0) out.invalid++;
  }

  out.op = summarize(r.op, false, res, prefix + ".op");
  out.probe = summarize(r.probe, false, res, prefix + ".probe");
  out.window_ops = out.op.samples;
  const double ops =
      static_cast<double>(std::max<std::uint64_t>(out.window_ops, 1));
  out.cpu_us_per_op = (cpu1 - cpu0) / ops;
  out.worker_cpu_us_per_op = (worker1 - worker0) / ops;
  out.ops_per_s = static_cast<double>(out.window_ops) / seconds;
  out.lag_p50_us = quantile(lag, 0.5) / 1e3;
  out.lag_p99_us = quantile(lag, tail_q(lag.size())) / 1e3;
  note_host(res, h0, h1);
  res.note(prefix + ".gen.send_lag_us_p50", out.lag_p50_us);
  res.note(prefix + ".gen.send_lag_us_p99", out.lag_p99_us);
  res.note(prefix + ".edt.dispatch_delay_us_p99", out.edt_delay_p99_us);
  return out;
}

/// Sequential Crypt reference: median of repeated full runs on the
/// calling thread, in milliseconds.
double crypt_seq_ms() {
  auto k = evmp::kernels::make_kernel("crypt", evmp::kernels::SizeClass::kTiny);
  k->set_work_model(evmp::kernels::WorkModel::kReal);
  k->prepare();
  std::vector<double> t;
  for (int i = 0; i < kSeqRepeats; ++i) {
    const std::uint64_t a = now_ns();
    const std::uint64_t sum = k->run_sequential();
    t.push_back(static_cast<double>(now_ns() - a) / 1e6);
    if (!k->validate(sum)) return -1.0;
  }
  return quantile(t, 0.5);
}

/// Set-up's first operation: one event of each form through the handler.
bool first_operation(Fixture& fx) {
  Run r;
  r.fx = &fx;
  const std::uint64_t t = now_ns();
  r.due = {t, t};
  r.done.assign(2, 0);
  r.invalid.assign(2, 0);
  Run* rp = &r;
  for (std::size_t i = 0; i < 2; ++i) {
    fx.edt.post(evmp::exec::Task([rp, i, t] { on_event(rp, i, t); }));
  }
  const std::uint64_t deadline = t + 2'000'000'000ull;
  while (r.completed.load(std::memory_order_acquire) < 2 &&
         now_ns() < deadline) {
    std::this_thread::yield();
  }
  const bool ok = r.completed.load(std::memory_order_acquire) == 2;
  if (ok) fx.edt.wait_until_idle();
  return ok && r.invalid[0] == 0 && r.invalid[1] == 0;
}

void verify(Result& res, const PhaseOut& o, const Fixture& fx,
            const std::string& phase) {
  res.attempted += o.fired;
  res.failed += o.unfinished + o.invalid;
  res.check(o.unfinished == 0, phase + ": an event never reached S4");
  res.check(o.invalid == 0, phase + ": a Crypt result failed validate()");
  res.check(fx.gui.violations() == 0, phase + ": GUI confinement violated");
  res.check(o.window_ops > 0, phase + ": no event completed");
}

}  // namespace

Result run_edt(const Options& opt) {
  Result res;
  // Runs outlive the fixture, so a block still queued at teardown never
  // sees a destroyed Run.
  std::vector<std::unique_ptr<Run>> runs;
  std::unique_ptr<Fixture> fx;
  std::vector<double> setups;
  bool setup_ok = true;
  double seq_ms = 0.0;
  for (int i = 0; i < kSetupRepeats; ++i) {
    fx.reset();
    const std::uint64_t t = now_ns();
    fx = std::make_unique<Fixture>();
    seq_ms = crypt_seq_ms();
    setup_ok = first_operation(*fx) && seq_ms > 0 && setup_ok;
    setups.push_back(static_cast<double>(now_ns() - t) / 1e9);
  }
  res.check(setup_ok, "setup: first events failed");
  res.note("setup.first_s", setups.front());
  const double setup_s = quantile(setups, 0.5);
  // An event that never reached S4 may have left a thread blocked inside
  // the fixture: keep it alive and let main exit without unwinding.
  auto abandon = [&] {
    (void)fx.release();
    for (auto& r : runs) (void)r.release();
    res.abandoned = true;
    return res;
  };

  if (!opt.trace) {
    runs.push_back(std::make_unique<Run>());
    const PhaseOut o =
        run_phase(*fx, *runs.back(), opt.seconds, opt.seed, false, res, "edt");
    verify(res, o, *fx, "edt");
    if (o.unfinished > 0) return abandon();
    res.metric("setup_s", setup_s, "s");
    res.metric("op_p50_us", o.op.p50_us, "us");
    res.metric("op_p99_us", o.op.tail_us, "us");
    res.metric("cpu_us_per_op", o.cpu_us_per_op, "us");
    res.metric("edt_delay_p99_us", o.probe.tail_us, "us");
    res.metric("run.ops_per_s", o.ops_per_s, "1/s");
    res.metric("kernels.crypt_seq_ms", seq_ms, "ms");
    fx.reset();
    return res;
  }

  runs.push_back(std::make_unique<Run>());
  const PhaseOut ref = run_phase(*fx, *runs.back(),
                                 opt.seconds * kReferenceShare, opt.seed,
                                 false, res, "reference");
  verify(res, ref, *fx, "reference");
  if (ref.unfinished > 0) return abandon();
  trace::clear();
  runs.push_back(std::make_unique<Run>());
  const PhaseOut tr = run_phase(*fx, *runs.back(),
                                opt.seconds * (1 - kReferenceShare),
                                opt.seed ^ 0x7ace'd000ull, true, res, "traced");
  verify(res, tr, *fx, "traced");
  if (tr.unfinished > 0) return abandon();

  const std::vector<trace::Span> spans = trace::collect();
  struct Stages {
    std::vector<std::uint64_t> op, lag, queue, handler, qwait, run, hop, s4,
        await1, s2, await3;
  };
  Stages nowait, await;
  std::vector<std::uint64_t> submit, lease, region, region1, region3, wake;
  auto dur = [](const trace::Span* s) {
    return s != nullptr && s->end_ns > s->start_ns ? s->end_ns - s->start_ns
                                                   : std::uint64_t{0};
  };
  std::size_t i = 0;
  while (i < spans.size()) {
    std::size_t j = i;
    std::map<std::string_view, const trace::Span*> by;
    std::vector<const trace::Span*> runs_of_op;
    for (; j < spans.size() && spans[j].op == spans[i].op; ++j) {
      const std::string_view nm = spans[j].name;
      by[nm] = &spans[j];
      if (nm == "executor.run") runs_of_op.push_back(&spans[j]);
      if (nm == "forkjoin.lease") lease.push_back(dur(&spans[j]));
      if (nm == "forkjoin.region_s1") {
        region.push_back(dur(&spans[j]));
        region1.push_back(dur(&spans[j]));
      }
      if (nm == "forkjoin.region_s3") {
        region.push_back(dur(&spans[j]));
        region3.push_back(dur(&spans[j]));
      }
    }
    const trace::Span* op = by["op"];
    if (op != nullptr) {
      const bool is_await = by["await.s1"] != nullptr;
      Stages& st = is_await ? await : nowait;
      st.op.push_back(dur(op));
      st.lag.push_back(dur(by["gen.lag"]));
      st.queue.push_back(dur(by["edt.queue"]));
      st.s4.push_back(dur(by["edt.s4"]));
      if (!is_await && by["core.submit"] != nullptr && !runs_of_op.empty()) {
        const trace::Span* sub = by["core.submit"];
        const trace::Span* run = runs_of_op.front();
        submit.push_back(dur(sub));
        st.handler.push_back(dur(by["edt.handler"]));
        st.qwait.push_back(run->start_ns > sub->end_ns
                               ? run->start_ns - sub->end_ns
                               : 0);
        st.run.push_back(dur(run));
        st.hop.push_back(dur(by["event.hop"]));
      } else if (is_await && runs_of_op.size() == 2) {
        st.await1.push_back(dur(by["await.s1"]));
        st.s2.push_back(dur(by["edt.s2"]));
        st.await3.push_back(dur(by["await.s3"]));
        const trace::Span* a1 = by["await.s1"];
        const trace::Span* a3 = by["await.s3"];
        if (a1->end_ns > runs_of_op[0]->end_ns) {
          wake.push_back(a1->end_ns - runs_of_op[0]->end_ns);
        }
        if (a3 != nullptr && a3->end_ns > runs_of_op[1]->end_ns) {
          wake.push_back(a3->end_ns - runs_of_op[1]->end_ns);
        }
      }
    }
    i = j;
  }
  auto p50 = [](std::vector<std::uint64_t>& v) {
    return quantile(v, 0.5) / 1e3;
  };
  const double ops =
      static_cast<double>(std::max<std::uint64_t>(tr.window_ops, 1));
  res.metric("core.submit_ns_p50", quantile(submit, 0.5), "ns");
  res.metric("core.posted_per_op",
             static_cast<double>(tr.rt1.posted - tr.rt0.posted) / ops, "count");
  res.metric("core.inline_per_op",
             static_cast<double>(tr.rt1.inline_fast_path -
                                 tr.rt0.inline_fast_path) /
                 ops,
             "count");
  res.metric("executor.queue_wait_us_p50", p50(nowait.qwait), "us");
  res.metric("executor.wake_us_p50", p50(wake), "us");
  res.metric("executor.worker_cpu_us_per_op", tr.worker_cpu_us_per_op, "us");
  res.metric("event.dispatch_delay_us_p50", tr.edt_delay_p50_us, "us");
  res.metric("event.dispatch_delay_us_p99", tr.edt_delay_p99_us, "us");
  res.metric("event.busy_pct", tr.busy_pct, "%");
  res.metric("event.max_nesting", tr.max_nesting, "count");
  res.metric("event.hop_us_p50", p50(nowait.hop), "us");
  res.metric("forkjoin.lease_us_p50", p50(lease), "us");
  res.metric("forkjoin.region_ms_p50", quantile(region, 0.5) / 1e6, "ms");
  res.metric("forkjoin.teams_created", static_cast<double>(tr.teams_created),
             "count");
  res.metric("forkjoin.lease_contentions",
             static_cast<double>(tr.lease_contentions), "count");
  const double regions_ms =
      (quantile(region1, 0.5) + quantile(region3, 0.5)) / 1e6;
  res.metric("kernels.crypt_seq_ms", seq_ms, "ms");
  res.metric("forkjoin.speedup", regions_ms > 0 ? seq_ms / regions_ms : 0.0,
             "ratio");
  res.metric("common.allocs_per_op", static_cast<double>(tr.allocs) / ops,
             "count");
  res.metric("gen.send_lag_us_p50", tr.lag_p50_us, "us");
  res.metric("gen.send_lag_us_p99", tr.lag_p99_us, "us");
  res.metric("run.ops_per_s", tr.ops_per_s, "1/s");
  res.metric("edt_delay_p99_us", ref.probe.tail_us, "us");
  res.metric("trace.op_p50_overhead_pct",
             ref.op.p50_us > 0 ? 100.0 * (tr.op.p50_us / ref.op.p50_us - 1.0)
                               : 0.0,
             "%");
  res.metric("trace.cpu_overhead_pct",
             ref.cpu_us_per_op > 0
                 ? 100.0 * (tr.cpu_us_per_op / ref.cpu_us_per_op - 1.0)
                 : 0.0,
             "%");
  res.metric("setup_s", setup_s, "s");
  res.note("reference.op_p50_us", ref.op.p50_us);
  res.metric("op_p99_us", ref.op.tail_us, "us");
  res.note("reference.cpu_us_per_op", ref.cpu_us_per_op);
  res.note("traced.op_p50_us", tr.op.p50_us);
  res.note("trace.spans", static_cast<double>(spans.size()));
  res.note("trace.dropped_spans", static_cast<double>(trace::dropped()));
  note_self_times(res, spans);
  note_stages(res, "stages.nowait_form", p50(nowait.op),
              {{"gen.lag", p50(nowait.lag)},
               {"edt.queue", p50(nowait.queue)},
               {"edt.handler", p50(nowait.handler)},
               {"executor.queue_wait", p50(nowait.qwait)},
               {"executor.run", p50(nowait.run)},
               {"event.hop", p50(nowait.hop)},
               {"edt.s4", p50(nowait.s4)}});
  note_stages(res, "stages.await_form", p50(await.op),
              {{"gen.lag", p50(await.lag)},
               {"edt.queue", p50(await.queue)},
               {"await.s1", p50(await.await1)},
               {"edt.s2", p50(await.s2)},
               {"await.s3", p50(await.await3)},
               {"edt.s4", p50(await.s4)}});
  fx.reset();
  return res;
}

}  // namespace pb
