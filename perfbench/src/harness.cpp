#include "harness.hpp"

#include <pthread.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <thread>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace pb {

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void Result::metric(std::string name, double value, std::string unit) {
  for (Metric& m : metrics) {
    if (m.name == name) {
      m.value = value;
      m.unit = std::move(unit);
      return;
    }
  }
  metrics.push_back(Metric{std::move(name), value, std::move(unit)});
}

void Result::note(std::string key, double value) {
  info.emplace_back(std::move(key), json_number(value));
}

void Result::note(std::string key, const std::string& text) {
  info.emplace_back(std::move(key), json_string(text));
}

void Result::note_json(std::string key, std::string json) {
  info.emplace_back(std::move(key), std::move(json));
}

void Result::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  failures.push_back(what);
}

template <class T>
static double quantile_impl(std::vector<T>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return static_cast<double>(v[lo]) * (1.0 - frac) +
         static_cast<double>(v[hi]) * frac;
}

double quantile(std::vector<std::uint64_t>& v, double q) {
  return quantile_impl(v, q);
}
double quantile(std::vector<double>& v, double q) {
  return quantile_impl(v, q);
}

double tail_q(std::size_t n) noexcept {
  if (n >= 1000) return 0.99;
  if (n <= 20) return 0.5;
  return 1.0 - 10.0 / static_cast<double>(n);
}

void WindowedSamples::init(std::uint64_t t0_ns, int windows,
                           std::size_t reserve_per_window) {
  t0_ns_ = t0_ns;
  windows_.assign(static_cast<std::size_t>(std::max(windows, 1)), {});
  for (auto& w : windows_) w.reserve(reserve_per_window);
}

void WindowedSamples::merge(const WindowedSamples& other) {
  if (windows_.size() < other.windows_.size()) {
    windows_.resize(other.windows_.size());
  }
  for (std::size_t i = 0; i < other.windows_.size(); ++i) {
    windows_[i].insert(windows_[i].end(), other.windows_[i].begin(),
                       other.windows_[i].end());
  }
  dropped_ += other.dropped_;
}

std::vector<std::uint64_t> WindowedSamples::all() const {
  std::vector<std::uint64_t> out;
  for (const auto& w : windows_) out.insert(out.end(), w.begin(), w.end());
  return out;
}

LatencySummary summarize(const WindowedSamples& s, bool per_window_tail,
                         Result& res, const std::string& prefix) {
  LatencySummary sum;
  std::vector<std::uint64_t> all = s.all();
  sum.samples = all.size();
  sum.p50_us = quantile(all, 0.5) / 1e3;
  sum.tail_q = tail_q(all.size());
  double whole_tail = quantile(all, sum.tail_q) / 1e3;
  sum.tail_us = whole_tail;
  std::string window_p50s = "[";
  for (const auto& w : s.windows()) {
    std::vector<std::uint64_t> copy = w;
    if (window_p50s.size() > 1) window_p50s += ", ";
    window_p50s += json_number(quantile(copy, 0.5) / 1e3);
  }
  res.note_json(prefix + ".window_p50_us", window_p50s + "]");
  if (per_window_tail) {
    std::vector<double> tails;
    for (const auto& w : s.windows()) {
      if (w.size() < 1000) continue;  // too few for a p99 of its own
      std::vector<std::uint64_t> copy = w;
      tails.push_back(quantile(copy, 0.99) / 1e3);
    }
    if (tails.size() >= 3) {
      sum.tail_us = quantile(tails, 0.5);
      sum.tail_q = 0.99;
      sum.windows_used = static_cast<int>(tails.size());
    }
  }
  res.note(prefix + ".samples", static_cast<double>(sum.samples));
  res.note(prefix + ".tail_quantile", sum.tail_q);
  res.note(prefix + ".tail_windows", sum.windows_used);
  res.note(prefix + ".whole_run_tail_us", whole_tail);
  res.note(prefix + ".dropped_samples", static_cast<double>(s.dropped()));
  return sum;
}

double process_cpu_us() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1e6 +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

clockid_t this_thread_cpu_clock() {
  clockid_t id{};
  if (pthread_getcpuclockid(pthread_self(), &id) != 0) {
    return CLOCK_THREAD_CPUTIME_ID;
  }
  return id;
}

double thread_cpu_us(clockid_t clock) {
  timespec ts{};
  if (clock_gettime(clock, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) * 1e6 +
         static_cast<double>(ts.tv_nsec) / 1e3;
}

HostSample read_host() {
  HostSample h;
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  if (cpu != "cpu") return h;
  // user nice system idle iowait irq softirq steal [guest guest_nice]
  std::uint64_t f[8] = {};
  for (auto& x : f) in >> x;
  for (const std::uint64_t x : f) h.total += x;
  h.steal = f[7];
  return h;
}

void note_host(Result& res, const HostSample& begin, const HostSample& end) {
  const double dt = static_cast<double>(end.total - begin.total);
  const double steal_pct =
      dt > 0 ? 100.0 * static_cast<double>(end.steal - begin.steal) / dt : 0.0;
  double load1 = 0.0;
  std::ifstream in("/proc/loadavg");
  in >> load1;
  res.metric("host.steal_pct", steal_pct, "%");
  res.metric("host.loadavg", load1, "count");
}

bool pin_this_thread(int cpu) noexcept {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  if (n <= 0) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<int>(cpu % n), &set);
  return pthread_setaffinity_np(pthread_self(), sizeof set, &set) == 0;
}

void note_provenance(Result& res, const Options& opt) {
  res.note("provenance.nproc",
           static_cast<double>(std::thread::hardware_concurrency()));
  std::string model = "unknown";
  {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("model name", 0) == 0) {
        const auto colon = line.find(':');
        if (colon != std::string::npos) model = line.substr(colon + 2);
        break;
      }
    }
  }
  res.note("provenance.cpu_model", model);
  res.note("provenance.build_type", std::string(PERFBENCH_BUILD_TYPE));
#if defined(__clang__)
  res.note("provenance.compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  res.note("provenance.compiler", std::string("gcc ") + __VERSION__);
#else
  res.note("provenance.compiler", std::string("unknown"));
#endif
  utsname u{};
  if (uname(&u) == 0) res.note("provenance.kernel", std::string(u.release));
  res.note("provenance.seed", static_cast<double>(opt.seed));
  res.note("provenance.seconds", opt.seconds);
  res.note("provenance.workload", opt.workload);
  res.note("provenance.trace", opt.trace ? 1.0 : 0.0);
}

std::vector<std::uint64_t> poisson_schedule(std::uint64_t seed, double rate_hz,
                                            std::uint64_t span_ns) {
  Rng rng(seed);
  std::vector<std::uint64_t> out;
  out.reserve(static_cast<std::size_t>(rate_hz * 1e-9 *
                                       static_cast<double>(span_ns) * 1.2) +
              16);
  double t = 0.0;
  const double mean_gap_ns = 1e9 / rate_hz;
  for (;;) {
    t += -std::log1p(-rng.uniform()) * mean_gap_ns;
    if (t >= static_cast<double>(span_ns)) break;
    out.push_back(static_cast<std::uint64_t>(t));
  }
  return out;
}

void tighten_timer_slack() noexcept { (void)prctl(PR_SET_TIMERSLACK, 1UL); }

void sleep_until_ns(std::uint64_t deadline_ns) noexcept {
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(deadline_ns / 1'000'000'000ull);
  ts.tv_nsec = static_cast<long>(deadline_ns % 1'000'000'000ull);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

void pace_until_ns(std::uint64_t deadline_ns) noexcept {
  if (deadline_ns > kSpinLeadNs) sleep_until_ns(deadline_ns - kSpinLeadNs);
  while (now_ns() < deadline_ns) {
  }
}

// --- allocation counter ----------------------------------------------------

namespace {
std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};

inline void* counted_alloc(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

inline void* counted_aligned(std::size_t n, std::align_val_t al) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  const auto a = static_cast<std::size_t>(al);
  const std::size_t size = (std::max<std::size_t>(n, 1) + a - 1) / a * a;
  void* p = std::aligned_alloc(a, size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void count_allocations(bool on) noexcept {
  g_counting.store(on, std::memory_order_relaxed);
}
std::uint64_t allocations() noexcept {
  return g_allocs.load(std::memory_order_relaxed);
}

}  // namespace pb

// Replacement global allocation functions (every form the library may
// call), forwarding to malloc/aligned_alloc.
void* operator new(std::size_t n) { return pb::counted_alloc(n); }
void* operator new[](std::size_t n) { return pb::counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return pb::counted_alloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return pb::counted_alloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t n, std::align_val_t al) {
  return pb::counted_aligned(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return pb::counted_aligned(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
