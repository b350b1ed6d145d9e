// `echo`: open loop over real loopback sockets.
//
// Poisson arrivals at a fixed 4000 req/s with 64-byte bodies over 4
// keep-alive connections, against net::Server in Mode::kEcho on a 2-thread
// worker target. The generator is the benchmark's own: it fixes the whole
// schedule from the seed before the first send, paces each send to its
// due time with nanosecond-resolution timeouts (epoll_pwait2, timer slack
// 1 ns), times every request from its due time, and counts every request
// still unanswered at the drain deadline as a failure. Its own CPU time
// is left out of cpu_us_per_op. `net` does the work; `forkjoin` and
// `event` do none.
//
// The traced run serves the same traffic in Mode::kHandler with a handler
// that checksums the payload: the handler boundary and
// http::Request::arrived are the public hooks between the server stages.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <memory>
#include <thread>

#include "core/runtime.hpp"
#include "net/http.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace pb {

namespace {

constexpr double kRateHz = 4000.0;
constexpr int kConnections = 4;
constexpr int kWorkers = 2;
constexpr std::size_t kBodyBytes = 64;
constexpr int kPayloads = 64;
constexpr double kDrainSeconds = 2.0;
constexpr std::uint64_t kLeadNs = 20'000'000;  // schedule starts 20 ms out
// One thread per CPU. Unpinned, the scheduler sometimes co-locates the
// reactor with a worker and the median halves for the whole run, which
// made runs bimodal (about 42 vs 77 us at 4000 req/s on 4 vCPUs).
constexpr int kGeneratorCpu = 0;
constexpr int kReactorCpu = 1;
constexpr int kFirstWorkerCpu = 2;

using evmp::net::Fd;
using evmp::net::Server;

ThreadClocks g_worker_clocks;

/// Handler for the traced run: checksum the payload like kEcho does, and
/// record the two server-side stages the public API exposes.
evmp::http::Response traced_handler(const evmp::http::Request& r) {
  const std::uint64_t hs = now_ns();
  g_worker_clocks.register_this_thread();
  evmp::http::Response resp;
  resp.id = r.id;
  resp.checksum = evmp::net::fnv1a(r.payload);
  resp.ok = true;
  const std::uint64_t he = now_ns();
  trace::record("net.to_worker", r.id, to_ns(r.arrived), hs);
  trace::record("handler", r.id, hs, he);
  return resp;
}

Fd connect_loopback(std::uint16_t port) {
  Fd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd.valid()) return fd;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof addr) != 0) {
    return Fd();
  }
  evmp::net::set_nonblocking(fd.get());
  evmp::net::set_nodelay(fd.get());
  return fd;
}

bool pin_reactor(Server& server, int cpu) {
  std::atomic<int> state{0};
  server.reactor().post(evmp::exec::Task([&state, cpu] {
    state.store(pin_this_thread(cpu) ? 1 : 2, std::memory_order_release);
  }));
  while (state.load(std::memory_order_acquire) == 0) std::this_thread::yield();
  return state.load() == 1;
}

struct Fixture {
  evmp::Runtime rt;
  std::unique_ptr<Server> server;
  std::vector<Fd> conns;
  bool ok = true;
  bool pinned = false;

  explicit Fixture(bool handler_mode) {
    rt.create_worker("worker", kWorkers);
    Server::Config cfg;
    cfg.mode = handler_mode ? Server::Mode::kHandler : Server::Mode::kEcho;
    cfg.target = "worker";
    cfg.name = "net";
    if (handler_mode) cfg.handler = &traced_handler;
    server = std::make_unique<Server>(rt, cfg);
    server->start();
    for (int i = 0; i < kConnections; ++i) {
      conns.push_back(connect_loopback(server->port()));
      ok = ok && conns.back().valid();
    }
    // Advisory: where affinity is refused the threads run unpinned.
    pinned = pin_reactor(*server, kReactorCpu) &&
             pin_workers(rt, "worker", kWorkers, kFirstWorkerCpu);
  }
  ~Fixture() {
    conns.clear();
    server->stop();
  }
  Fixture(const Fixture&) = delete;
  Fixture& operator=(const Fixture&) = delete;
};

/// A fixed schedule of requests and everything the client learns about
/// them. Index i carries X-Request-Id i + 1 and goes out on connection
/// i % kConnections.
struct Plan {
  std::vector<std::uint64_t> due;  ///< absolute ns
  std::vector<std::uint8_t> wire;  ///< all requests, encoded back to back
  std::vector<std::size_t> wire_off;
  std::vector<std::uint16_t> payload_of;
  std::uint64_t window_begin = 0;
  std::uint64_t window_end = 0;
};

struct Payloads {
  std::vector<std::vector<std::uint8_t>> bytes;
  std::vector<std::uint64_t> sum;
  explicit Payloads(std::uint64_t seed) {
    Rng rng(seed ^ 0x5eed'0000'ec40ull);
    for (int p = 0; p < kPayloads; ++p) {
      std::vector<std::uint8_t> b(kBodyBytes);
      for (auto& x : b) x = static_cast<std::uint8_t>(rng.next());
      sum.push_back(evmp::net::fnv1a(b));
      bytes.push_back(std::move(b));
    }
  }
};

/// Encode every request of the schedule; due times are the offsets until
/// start() anchors them.
Plan make_plan(const std::vector<std::uint64_t>& offsets, std::uint64_t seed,
               const Payloads& pl) {
  Plan plan;
  Rng rng(seed ^ 0x9a71'0ad5ull);
  plan.due = offsets;
  plan.wire_off.reserve(offsets.size() + 1);
  plan.wire_off.push_back(0);
  // Reserve the whole buffer: the encoder reserves exactly, which would
  // reallocate on every append.
  plan.wire.reserve(offsets.size() * (kBodyBytes + 160));
  for (std::size_t i = 0; i < offsets.size(); ++i) {
    const auto p = static_cast<std::uint16_t>(rng.next() % kPayloads);
    plan.payload_of.push_back(p);
    evmp::net::encode_http_request(plan.wire, i + 1, pl.bytes[p]);
    plan.wire_off.push_back(plan.wire.size());
  }
  return plan;
}

/// Anchor the schedule `lead_ns` from now; the measured window starts
/// `warmup_ns` after the first possible arrival.
void start(Plan& plan, std::uint64_t lead_ns, std::uint64_t warmup_ns,
           std::uint64_t span_ns) {
  const std::uint64_t base = now_ns() + lead_ns;
  for (auto& d : plan.due) d += base;
  plan.window_begin = base + warmup_ns;
  plan.window_end = base + span_ns;
}

/// Client-side outcome of one plan.
struct ClientOut {
  std::vector<std::uint64_t> sent;
  std::vector<std::uint64_t> done;  ///< 0 = unanswered
  std::uint64_t bad_responses = 0;  ///< wrong status/checksum/body/id
  std::uint64_t send_errors = 0;
};

struct ConnState {
  std::vector<std::uint8_t> in;
  std::size_t in_len = 0;
  std::vector<std::uint8_t> out;  ///< bytes a full socket buffer refused
};

/// Callbacks at the window edges (CPU, host and counter readings).
struct WindowHooks {
  virtual ~WindowHooks() = default;
  virtual void on_begin() {}
  virtual void on_end() {}
};

/// Drive `plan` over the fixture's connections until every request is
/// answered or the drain deadline passes.
ClientOut run_client(Fixture& fx, const Plan& plan, const Payloads& pl,
                     bool echo_body, bool traced, WindowHooks& hooks) {
  const std::size_t n = plan.due.size();
  ClientOut out;
  out.sent.assign(n, 0);
  out.done.assign(n, 0);
  std::vector<ConnState> cs(kConnections);
  for (auto& c : cs) {
    c.in.resize(1 << 18);
    c.out.reserve(1 << 16);
  }
  Fd ep(::epoll_create1(EPOLL_CLOEXEC));
  for (int c = 0; c < kConnections; ++c) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u32 = static_cast<std::uint32_t>(c);
    ::epoll_ctl(ep.get(), EPOLL_CTL_ADD, fx.conns[c].get(), &ev);
  }
  tighten_timer_slack();
  pin_this_thread(kGeneratorCpu);

  std::size_t next = 0;
  std::size_t answered = 0;
  bool began = false, ended = false;
  const std::uint64_t deadline =
      (n > 0 ? plan.due.back() : now_ns()) +
      static_cast<std::uint64_t>(kDrainSeconds * 1e9);

  auto send_bytes = [&](int c, const std::uint8_t* p, std::size_t len) {
    ConnState& st = cs[c];
    if (st.out.empty()) {
      while (len > 0) {
        const ssize_t k = ::send(fx.conns[c].get(), p, len, MSG_NOSIGNAL);
        if (k > 0) {
          p += k;
          len -= static_cast<std::size_t>(k);
          continue;
        }
        if (k < 0 && errno == EINTR) continue;
        if (k < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        out.send_errors++;
        return;
      }
    }
    if (len > 0) {
      st.out.insert(st.out.end(), p, p + len);
      epoll_event ev{};
      ev.events = EPOLLIN | EPOLLOUT;
      ev.data.u32 = static_cast<std::uint32_t>(c);
      ::epoll_ctl(ep.get(), EPOLL_CTL_MOD, fx.conns[c].get(), &ev);
    }
  };

  auto on_response = [&](const evmp::net::HttpResponse& r, std::uint64_t t) {
    const std::uint64_t idx = r.id - 1;
    if (r.id == 0 || idx >= n || out.sent[idx] == 0 || out.done[idx] != 0) {
      out.bad_responses++;
      return;
    }
    const auto p = plan.payload_of[idx];
    bool ok = r.status == evmp::net::kStatusOk && r.checksum == pl.sum[p];
    if (echo_body) {
      ok = ok && r.body.size() == kBodyBytes &&
           std::memcmp(r.body.data(), pl.bytes[p].data(), kBodyBytes) == 0;
    }
    if (!ok) {
      out.bad_responses++;
      return;
    }
    out.done[idx] = t;
    answered++;
    if (traced && plan.due[idx] >= plan.window_begin &&
        plan.due[idx] < plan.window_end) {
      trace::record("op", r.id, plan.due[idx], t);
      trace::record("gen.lag", r.id, plan.due[idx], out.sent[idx]);
    }
  };

  auto read_conn = [&](int c) {
    ConnState& st = cs[c];
    for (;;) {
      if (st.in_len == st.in.size()) st.in.resize(st.in.size() * 2);
      const ssize_t k = ::read(fx.conns[c].get(), st.in.data() + st.in_len,
                               st.in.size() - st.in_len);
      if (k > 0) {
        st.in_len += static_cast<std::size_t>(k);
        continue;
      }
      if (k < 0 && errno == EINTR) continue;
      break;  // EAGAIN, EOF or error: unanswered requests count as failed
    }
    const std::uint64_t t = now_ns();
    std::size_t off = 0;
    for (;;) {
      evmp::net::HttpResponse r;
      std::size_t consumed = 0;
      const auto s = evmp::net::parse_http_response(
          std::span<const std::uint8_t>(st.in.data() + off, st.in_len - off),
          &consumed, &r);
      if (s != evmp::net::ParseStatus::kOk) {
        if (s == evmp::net::ParseStatus::kError) {
          out.bad_responses++;
          st.in_len = off;  // drop the garbage
        }
        break;
      }
      on_response(r, t);
      off += consumed;
    }
    if (off > 0) {
      std::memmove(st.in.data(), st.in.data() + off, st.in_len - off);
      st.in_len -= off;
    }
  };

  auto flush_conn = [&](int c) {
    ConnState& st = cs[c];
    std::vector<std::uint8_t> pending;
    pending.swap(st.out);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u32 = static_cast<std::uint32_t>(c);
    ::epoll_ctl(ep.get(), EPOLL_CTL_MOD, fx.conns[c].get(), &ev);
    send_bytes(c, pending.data(), pending.size());
  };

  epoll_event events[kConnections];
  for (;;) {
    std::uint64_t t = now_ns();
    if (!began && t >= plan.window_begin) {
      began = true;
      hooks.on_begin();
    }
    if (!ended && t >= plan.window_end) {
      ended = true;
      hooks.on_end();
    }
    while (next < n && plan.due[next] <= t) {
      const int c = static_cast<int>(next % kConnections);
      out.sent[next] = now_ns();
      send_bytes(c, plan.wire.data() + plan.wire_off[next],
                 plan.wire_off[next + 1] - plan.wire_off[next]);
      ++next;
      t = now_ns();
    }
    if (next == n && (answered == n || t >= deadline)) break;
    std::uint64_t wake = deadline;
    if (next < n) wake = plan.due[next];
    if (!began) wake = std::min(wake, plan.window_begin);
    if (!ended) wake = std::min(wake, plan.window_end);
    const std::uint64_t wait = wake > t ? wake - t : 0;
    timespec ts{};
    ts.tv_sec = static_cast<time_t>(wait / 1'000'000'000ull);
    ts.tv_nsec = static_cast<long>(wait % 1'000'000'000ull);
    const int k = ::epoll_pwait2(ep.get(), events, kConnections, &ts, nullptr);
    for (int e = 0; e < k; ++e) {
      const int c = static_cast<int>(events[e].data.u32);
      if (events[e].events & EPOLLOUT) flush_conn(c);
      if (events[e].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) read_conn(c);
    }
  }
  if (!ended) hooks.on_end();
  return out;
}

/// One request per connection, all due now: the set-up's first operation.
bool first_operation(Fixture& fx, bool echo_body, const Payloads& pl) {
  Plan plan = make_plan(std::vector<std::uint64_t>(kConnections, 0), 7, pl);
  start(plan, 0, 0, 0);
  WindowHooks none;
  const ClientOut o = run_client(fx, plan, pl, echo_body, false, none);
  return o.bad_responses == 0 && o.send_errors == 0 &&
         std::all_of(o.done.begin(), o.done.end(),
                     [](std::uint64_t d) { return d != 0; });
}

struct PhaseOut {
  LatencySummary op;
  double cpu_us_per_op = 0.0;
  double ops_per_s = 0.0;
  double lag_p50_us = 0.0, lag_p99_us = 0.0;
  std::uint64_t attempted = 0, failed = 0, window_ops = 0;
  std::uint64_t unanswered = 0, shed = 0;
  evmp::net::ReactorStats r0, r1;
  double reactor_cpu_us = 0.0, worker_cpu_us = 0.0;
  std::uint64_t allocs = 0;
};

/// Window-edge readings for one phase.
struct EchoHooks final : WindowHooks {
  Fixture& fx;
  bool traced;
  clockid_t reactor_clock{};
  double cpu0 = 0, cpu1 = 0, reactor0 = 0, reactor1 = 0, worker0 = 0,
         worker1 = 0;
  HostSample h0, h1;
  std::uint64_t allocs0 = 0, allocs1 = 0;
  evmp::net::ServerStats s0, s1;
  evmp::net::ReactorStats r0, r1;
  EchoHooks(Fixture& f, bool t, clockid_t rc)
      : fx(f), traced(t), reactor_clock(rc) {}
  void on_begin() override {
    h0 = read_host();
    s0 = fx.server->stats();
    r0 = fx.server->reactor().stats();
    reactor0 = thread_cpu_us(reactor_clock);
    worker0 = g_worker_clocks.total_cpu_us();
    allocs0 = allocations();
    if (traced) {
      trace::enable(true);
      count_allocations(true);
    }
    cpu0 = process_cpu_us() - thread_cpu_us(CLOCK_THREAD_CPUTIME_ID);
  }
  void on_end() override {
    cpu1 = process_cpu_us() - thread_cpu_us(CLOCK_THREAD_CPUTIME_ID);
    count_allocations(false);
    allocs1 = allocations();
    reactor1 = thread_cpu_us(reactor_clock);
    worker1 = g_worker_clocks.total_cpu_us();
    h1 = read_host();
  }
};

clockid_t reactor_clock_of(Fixture& fx) {
  std::atomic<bool> done{false};
  clockid_t id{};
  fx.server->reactor().post(evmp::exec::Task([&] {
    id = this_thread_cpu_clock();
    done.store(true, std::memory_order_release);
  }));
  while (!done.load(std::memory_order_acquire)) std::this_thread::yield();
  return id;
}

PhaseOut run_phase(Fixture& fx, double seconds, std::uint64_t seed,
                   bool traced, bool echo_body, const Payloads& pl,
                   Result& res, const std::string& prefix) {
  const auto span_ns =
      static_cast<std::uint64_t>((kWarmupSeconds + seconds) * 1e9);
  const std::vector<std::uint64_t> offsets =
      poisson_schedule(seed, kRateHz, span_ns);
  Plan plan = make_plan(offsets, seed, pl);
  WindowedSamples samples;
  samples.init(0, static_cast<int>(std::ceil(seconds)),
               static_cast<std::size_t>(kRateHz * 1.5));
  if (traced) trace::prepare_this_thread();
  EchoHooks hooks(fx, traced, reactor_clock_of(fx));

  start(plan, kLeadNs, static_cast<std::uint64_t>(kWarmupSeconds * 1e9),
        span_ns);
  samples.set_origin(plan.window_begin);
  const ClientOut co = run_client(fx, plan, pl, echo_body, traced, hooks);
  trace::enable(false);

  PhaseOut out;
  std::vector<std::uint64_t> lag;
  lag.reserve(plan.due.size());
  std::uint64_t unanswered = 0;
  for (std::size_t i = 0; i < plan.due.size(); ++i) {
    if (co.done[i] == 0) unanswered++;
    const bool in_window =
        plan.due[i] >= plan.window_begin && plan.due[i] < plan.window_end;
    if (!in_window) continue;
    if (co.sent[i] != 0) lag.push_back(co.sent[i] - plan.due[i]);
    if (co.done[i] != 0) {
      samples.record(plan.due[i], co.done[i] - plan.due[i]);
      out.window_ops++;
    }
  }
  out.attempted = plan.due.size();
  out.unanswered = unanswered;
  out.failed = unanswered + co.bad_responses + co.send_errors;
  res.note(prefix + ".unanswered", static_cast<double>(unanswered));
  res.note(prefix + ".bad_responses", static_cast<double>(co.bad_responses));
  res.note(prefix + ".send_errors", static_cast<double>(co.send_errors));
  out.op = summarize(samples, true, res, prefix + ".op");
  out.lag_p50_us = quantile(lag, 0.5) / 1e3;
  out.lag_p99_us = quantile(lag, tail_q(lag.size())) / 1e3;
  const double ops =
      static_cast<double>(std::max<std::uint64_t>(out.window_ops, 1));
  out.cpu_us_per_op = (hooks.cpu1 - hooks.cpu0) / ops;
  out.ops_per_s = static_cast<double>(out.window_ops) / seconds;
  out.reactor_cpu_us = (hooks.reactor1 - hooks.reactor0) / ops;
  out.worker_cpu_us = (hooks.worker1 - hooks.worker0) / ops;
  out.allocs = hooks.allocs1 - hooks.allocs0;
  const evmp::net::ServerStats s1 = fx.server->stats();
  out.shed = s1.requests_shed - hooks.s0.requests_shed;
  out.r0 = hooks.r0;
  out.r1 = fx.server->reactor().stats();
  note_host(res, hooks.h0, hooks.h1);
  res.note(prefix + ".gen.send_lag_us_p50", out.lag_p50_us);
  res.note(prefix + ".gen.send_lag_us_p99", out.lag_p99_us);
  return out;
}

struct Built {
  std::unique_ptr<Fixture> fx;
  double setup_s = 0.0;
  bool ok = true;
};

Built build(bool handler_mode, const Payloads& pl, Result& res,
            const std::string& prefix) {
  Built b;
  std::vector<double> setups;
  for (int r = 0; r < kSetupRepeats; ++r) {
    b.fx.reset();
    const std::uint64_t t = now_ns();
    b.fx = std::make_unique<Fixture>(handler_mode);
    b.ok = b.fx->ok && first_operation(*b.fx, !handler_mode, pl) && b.ok;
    setups.push_back(static_cast<double>(now_ns() - t) / 1e9);
  }
  res.note(prefix + ".setup_first_s", setups.front());
  res.note(prefix + ".threads_pinned", b.fx->pinned ? 1.0 : 0.0);
  b.setup_s = quantile(setups, 0.5);
  return b;
}

void verify(Result& res, const PhaseOut& o, std::uint64_t shed_total,
            const std::string& phase) {
  res.attempted += o.attempted;
  res.failed += o.failed + o.shed;
  res.check(o.failed == 0,
            phase + ": a response was missing, late past the drain "
                    "deadline, or failed its checksum");
  res.check(shed_total == 0, phase + ": the server shed requests");
  res.check(o.window_ops > 0, phase + ": no request completed");
}

}  // namespace

Result run_echo(const Options& opt) {
  Result res;
  const Payloads pl(opt.seed);
  Built echo = build(false, pl, res, "echo");
  res.check(echo.ok, "setup: first round trip failed");
  // A request that was never answered may have left a worker blocked
  // inside the server: keep it alive and let main exit without unwinding.
  auto abandon = [&res](Built& b) {
    (void)b.fx.release();
    res.abandoned = true;
    return res;
  };

  if (!opt.trace) {
    const PhaseOut o =
        run_phase(*echo.fx, opt.seconds, opt.seed, false, true, pl, res,
                  "echo");
    verify(res, o, o.shed, "echo");
    if (o.unanswered > 0) return abandon(echo);
    res.metric("setup_s", echo.setup_s, "s");
    res.metric("op_p50_us", o.op.p50_us, "us");
    res.metric("op_p99_us", o.op.tail_us, "us");
    res.metric("cpu_us_per_op", o.cpu_us_per_op, "us");
    res.metric("run.ops_per_s", o.ops_per_s, "1/s");
    return res;
  }

  const PhaseOut ref = run_phase(*echo.fx, opt.seconds * kReferenceShare,
                                 opt.seed, false, true, pl, res, "reference");
  verify(res, ref, ref.shed, "reference");
  if (ref.unanswered > 0) return abandon(echo);
  echo.fx.reset();

  g_worker_clocks.clear();
  Built handler = build(true, pl, res, "handler");
  res.check(handler.ok, "setup: first traced round trip failed");
  trace::clear();
  // Register the worker clocks before the window (warm-up requests run
  // the handler on both workers).
  const PhaseOut tr =
      run_phase(*handler.fx, opt.seconds * (1 - kReferenceShare),
                opt.seed ^ 0x7ace'd000ull, true, false, pl, res, "traced");
  verify(res, tr, tr.shed, "traced");
  if (tr.unanswered > 0) return abandon(handler);

  const std::vector<trace::Span> spans = trace::collect();
  std::vector<std::uint64_t> ops, lag, recv_parse, to_worker, handler_run,
      to_client;
  std::size_t i = 0;
  while (i < spans.size()) {
    std::size_t j = i;
    const trace::Span *op = nullptr, *gl = nullptr, *tw = nullptr,
                      *h = nullptr;
    for (; j < spans.size() && spans[j].op == spans[i].op; ++j) {
      const std::string_view nm = spans[j].name;
      if (nm == "op") op = &spans[j];
      else if (nm == "gen.lag") gl = &spans[j];
      else if (nm == "net.to_worker") tw = &spans[j];
      else if (nm == "handler") h = &spans[j];
    }
    if (op != nullptr && gl != nullptr && tw != nullptr && h != nullptr) {
      auto gap = [](std::uint64_t a, std::uint64_t b) {
        return b > a ? b - a : 0;
      };
      ops.push_back(op->end_ns - op->start_ns);
      lag.push_back(gap(gl->start_ns, gl->end_ns));
      recv_parse.push_back(gap(gl->end_ns, tw->start_ns));
      to_worker.push_back(gap(tw->start_ns, tw->end_ns));
      handler_run.push_back(gap(h->start_ns, h->end_ns));
      to_client.push_back(gap(h->end_ns, op->end_ns));
    }
    i = j;
  }
  const double req =
      static_cast<double>(std::max<std::uint64_t>(tr.window_ops, 1));
  const double recv_parse_p50 = quantile(recv_parse, 0.5) / 1e3;
  const double to_worker_p50 = quantile(to_worker, 0.5) / 1e3;
  const double to_client_p50 = quantile(to_client, 0.5) / 1e3;
  res.metric("net.recv_parse_us_p50", recv_parse_p50, "us");
  res.metric("net.to_worker_us_p50", to_worker_p50, "us");
  res.metric("net.to_client_us_p50", to_client_p50, "us");
  res.metric("net.epoll_waits_per_req",
             static_cast<double>(tr.r1.epoll_waits - tr.r0.epoll_waits) / req,
             "count");
  res.metric("net.reactor_wakeups_per_req",
             static_cast<double>(tr.r1.wakeups - tr.r0.wakeups) / req, "count");
  res.metric("net.reactor_tasks_per_req",
             static_cast<double>(tr.r1.tasks_run - tr.r0.tasks_run) / req,
             "count");
  res.metric("net.reactor_cpu_us_per_req", tr.reactor_cpu_us, "us");
  res.metric("net.shed_per_req", static_cast<double>(tr.shed) / req, "ratio");
  res.metric("executor.worker_cpu_us_per_op", tr.worker_cpu_us, "us");
  res.metric("common.allocs_per_op", static_cast<double>(tr.allocs) / req,
             "count");
  res.metric("gen.send_lag_us_p50", tr.lag_p50_us, "us");
  res.metric("gen.send_lag_us_p99", tr.lag_p99_us, "us");
  res.metric("run.ops_per_s", tr.ops_per_s, "1/s");
  res.metric("trace.op_p50_overhead_pct",
             ref.op.p50_us > 0 ? 100.0 * (tr.op.p50_us / ref.op.p50_us - 1.0)
                               : 0.0,
             "%");
  res.metric("trace.cpu_overhead_pct",
             ref.cpu_us_per_op > 0
                 ? 100.0 * (tr.cpu_us_per_op / ref.cpu_us_per_op - 1.0)
                 : 0.0,
             "%");
  res.metric("setup_s", echo.setup_s, "s");
  res.note("reference.op_p50_us", ref.op.p50_us);
  res.metric("op_p99_us", ref.op.tail_us, "us");
  res.note("reference.cpu_us_per_op", ref.cpu_us_per_op);
  res.note("traced.op_p50_us", tr.op.p50_us);
  res.note("trace.spans", static_cast<double>(spans.size()));
  res.note("trace.dropped_spans", static_cast<double>(trace::dropped()));
  note_self_times(res, spans);
  note_stages(res, "stages.request", quantile(ops, 0.5) / 1e3,
              {{"gen.lag", quantile(lag, 0.5) / 1e3},
               {"net.recv_parse", recv_parse_p50},
               {"net.to_worker", to_worker_p50},
               {"handler", quantile(handler_run, 0.5) / 1e3},
               {"net.to_client", to_client_p50}});
  handler.fx.reset();
  return res;
}

}  // namespace pb
