#include "workloads.hpp"

#include <atomic>
#include <cstdio>
#include <thread>

#include "core/runtime.hpp"

namespace pb {

void ThreadClocks::register_this_thread() {
  thread_local const ThreadClocks* seen = nullptr;
  if (seen == this) return;
  seen = this;
  std::scoped_lock lk(mu_);
  clocks_.push_back(this_thread_cpu_clock());
}

double ThreadClocks::total_cpu_us() const {
  std::scoped_lock lk(mu_);
  double sum = 0.0;
  for (const clockid_t c : clocks_) sum += thread_cpu_us(c);
  return sum;
}

void ThreadClocks::clear() {
  std::scoped_lock lk(mu_);
  clocks_.clear();
}

bool pin_workers(evmp::Runtime& rt, const char* target, int n, int first_cpu) {
  std::atomic<int> arrived{0};
  std::atomic<int> pinned{0};
  std::atomic<int> next_cpu{first_cpu};
  const std::string tag = std::string(target) + ".pin";
  for (int i = 0; i < n; ++i) {
    rt.invoke_target_block(
        target,
        [&] {
          if (pin_this_thread(next_cpu.fetch_add(1))) pinned.fetch_add(1);
          arrived.fetch_add(1);
          const std::uint64_t give_up = now_ns() + 1'000'000'000ull;
          while (arrived.load() < n && now_ns() < give_up) {
            std::this_thread::yield();
          }
        },
        evmp::Async::kNameAs, tag);
  }
  rt.wait_tag(tag);
  return pinned.load() == n;
}

void note_self_times(Result& res, const std::vector<trace::Span>& spans) {
  std::string json = "{";
  char buf[64];
  for (const auto& [name, us] : trace::self_time_p50_us(spans)) {
    std::snprintf(buf, sizeof buf, "%.4f", us);
    json += (json.size() > 1 ? ", \"" : "\"") + name + "\": " + buf;
  }
  res.note_json("self_time_p50_us", json + "}");
}

void note_stages(Result& res, const std::string& key, double op_p50_us,
                 const std::vector<std::pair<std::string, double>>& stages) {
  std::string json = "{\"op_p50_us\": ";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.4f", op_p50_us);
  json += buf;
  json += ", \"stages_p50_us\": {";
  double sum = 0.0;
  bool first = true;
  for (const auto& [name, v] : stages) {
    std::snprintf(buf, sizeof buf, "%.4f", v);
    json += (first ? "\"" : ", \"") + name + "\": " + buf;
    first = false;
    sum += v;
  }
  std::snprintf(buf, sizeof buf, "%.4f", sum);
  json += std::string("}, \"sum_of_stage_p50_us\": ") + buf;
  std::snprintf(buf, sizeof buf, "%.4f", op_p50_us - sum);
  json += std::string(", \"residual_us\": ") + buf + "}";
  res.note_json(key, json);
}

}  // namespace pb
