#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>

#include "harness.hpp"

namespace pb::trace {

namespace {

constexpr std::size_t kSpansPerThread = std::size_t{1} << 18;  // 8 MiB

struct Buffer {
  std::vector<Span> spans;
  std::uint64_t dropped = 0;
};

std::atomic<bool> g_on{false};
std::mutex g_mu;
std::vector<std::unique_ptr<Buffer>>& registry() {
  static auto* r = new std::vector<std::unique_ptr<Buffer>>();
  return *r;
}
thread_local Buffer* tl_buffer = nullptr;

Buffer& this_buffer() {
  if (tl_buffer == nullptr) {
    auto b = std::make_unique<Buffer>();
    b->spans.reserve(kSpansPerThread);
    std::scoped_lock lk(g_mu);
    tl_buffer = b.get();
    registry().push_back(std::move(b));
  }
  return *tl_buffer;
}

}  // namespace

void enable(bool on) noexcept { g_on.store(on, std::memory_order_relaxed); }
bool enabled() noexcept { return g_on.load(std::memory_order_relaxed); }

void prepare_this_thread() { (void)this_buffer(); }

void record(const char* name, std::uint64_t op, std::uint64_t start_ns,
            std::uint64_t end_ns) noexcept {
  if (!enabled()) return;
  Buffer& b = this_buffer();
  if (b.spans.size() < b.spans.capacity()) {
    b.spans.push_back(Span{name, op, start_ns, end_ns});
  } else {
    b.dropped++;
  }
}

std::vector<Span> collect() {
  std::vector<Span> out;
  std::scoped_lock lk(g_mu);
  for (const auto& b : registry()) {
    out.insert(out.end(), b->spans.begin(), b->spans.end());
  }
  std::sort(out.begin(), out.end(), [](const Span& a, const Span& b) {
    return a.op != b.op ? a.op < b.op : a.start_ns < b.start_ns;
  });
  return out;
}

std::uint64_t dropped() noexcept {
  std::scoped_lock lk(g_mu);
  std::uint64_t n = 0;
  for (const auto& b : registry()) n += b->dropped;
  return n;
}

void clear() {
  std::scoped_lock lk(g_mu);
  for (const auto& b : registry()) {
    b->spans.clear();
    b->dropped = 0;
  }
}

bool write_tsv(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("name\top\tstart_ns\tend_ns\n", f);
  for (const Span& s : spans) {
    std::fprintf(f, "%s\t%llu\t%llu\t%llu\n", s.name,
                 static_cast<unsigned long long>(s.op),
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

std::map<std::string, double> self_time_p50_us(const std::vector<Span>& spans) {
  std::map<std::string, std::vector<std::uint64_t>> self;
  std::size_t i = 0;
  while (i < spans.size()) {
    std::size_t j = i;
    while (j < spans.size() && spans[j].op == spans[i].op) ++j;
    // spans[i, j) belong to one operation, sorted by start.
    for (std::size_t p = i; p < j; ++p) {
      const Span& parent = spans[p];
      std::uint64_t covered = 0;
      std::uint64_t cursor = parent.start_ns;
      for (std::size_t c = i; c < j; ++c) {
        if (c == p) continue;
        const Span& child = spans[c];
        const bool nested =
            child.start_ns >= parent.start_ns &&
            child.end_ns <= parent.end_ns &&
            (child.end_ns - child.start_ns < parent.end_ns - parent.start_ns ||
             c > p);
        if (!nested) continue;
        const std::uint64_t lo = std::max(child.start_ns, cursor);
        if (child.end_ns > lo) {
          covered += child.end_ns - lo;
          cursor = child.end_ns;
        }
      }
      const std::uint64_t dur =
          parent.end_ns > parent.start_ns ? parent.end_ns - parent.start_ns : 0;
      self[parent.name].push_back(dur > covered ? dur - covered : 0);
    }
    i = j;
  }
  std::map<std::string, double> out;
  for (auto& [name, v] : self) out[name] = quantile(v, 0.5) / 1e3;
  return out;
}

}  // namespace pb::trace
