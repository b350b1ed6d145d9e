#pragma once
// Span recording for the traced run.
//
// Each thread that records gets one preallocated buffer, registered once
// under a lock and then written without synchronisation; a full buffer
// drops further spans and counts them. Buffers outlive their threads and
// are read only after every recording thread has stopped.
//
// A span is (name, operation id, start, end): the spans of one operation
// share its id, and a layer's self time is its span's duration minus the
// part of that interval covered by spans nested inside it.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pb::trace {

struct Span {
  const char* name;  ///< string literal: static lifetime
  std::uint64_t op;
  std::uint64_t start_ns;
  std::uint64_t end_ns;
};

/// Turn recording on or off (off: record() is one relaxed load).
void enable(bool on) noexcept;
[[nodiscard]] bool enabled() noexcept;

/// Allocate the calling thread's buffer now, so the first span recorded
/// in the measured window does not allocate.
void prepare_this_thread();

void record(const char* name, std::uint64_t op, std::uint64_t start_ns,
            std::uint64_t end_ns) noexcept;

/// All spans recorded so far, sorted by (op, start). Call only when no
/// thread is recording.
std::vector<Span> collect();
std::uint64_t dropped() noexcept;
/// Forget every recorded span (buffers stay allocated).
void clear();

/// Write spans as tab-separated lines (name, op, start_ns, end_ns).
bool write_tsv(const std::string& path, const std::vector<Span>& spans);

/// Median self time in microseconds per span name, computed per operation.
std::map<std::string, double> self_time_p50_us(const std::vector<Span>& spans);

}  // namespace pb::trace
