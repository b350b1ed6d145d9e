// perfbench: the EventMP benchmark's measuring program.
//
//   evmp_perfbench --workload dispatch|echo|edt --seed N --seconds S
//                  --trace 0|1 [--spans PATH]
//
// Prints a human-readable report, then one JSON line with every metric,
// the verification outcome, sample counts, stage tables and provenance.
// perfbench/run.py builds this program, runs it and turns that line into
// the benchmark's result. Exits 1 when a verification check fails (also
// when a join stalled; the blocked threads are then abandoned) and 2 on
// bad arguments.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "harness.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: evmp_perfbench --workload dispatch|echo|edt --seed N "
               "--seconds S --trace 0|1 [--spans PATH]\n");
  return 2;
}

std::string escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

void print_result(const pb::Result& res) {
  std::printf("\n%-34s %16s  %s\n", "metric", "value", "unit");
  for (const pb::Metric& m : res.metrics) {
    std::printf("%-34s %16.4f  %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const auto& [k, v] : res.info) {
    if (k.rfind("stages.", 0) == 0) {
      std::printf("%s: %s\n", k.c_str(), v.c_str());
    }
  }
  std::printf("verification: %s (attempted %llu, failed %llu)\n",
              res.correct ? "passed" : "FAILED",
              static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed));
  for (const std::string& f : res.failures) {
    std::printf("  check failed: %s\n", f.c_str());
  }

  std::string j = "{\"correct\": ";
  j += res.correct ? "true" : "false";
  j += ", \"attempted\": " + std::to_string(res.attempted);
  j += ", \"failed\": " + std::to_string(res.failed);
  j += ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const pb::Metric& m : res.metrics) {
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
    j += (first ? "\"" : ", \"") + m.name + "\": {\"value\": " + buf +
         ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  j += "}, \"info\": {";
  first = true;
  for (const auto& [k, v] : res.info) {
    j += (first ? "\"" : ", \"") + k + "\": " + v;
    first = false;
  }
  j += "}, \"failures\": [";
  first = true;
  for (const std::string& f : res.failures) {
    j += (first ? "\"" : ", \"") + escape(f) + "\"";
    first = false;
  }
  j += "]}";
  std::printf("%s\n", j.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  pb::Options opt;
  std::string spans_path;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      opt.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(val, nullptr);
    } else if (key == "--trace") {
      opt.trace = std::strcmp(val, "0") != 0;
    } else if (key == "--spans") {
      spans_path = val;
    } else {
      return usage();
    }
  }
  if (!have_workload || argc % 2 == 0 || !(opt.seconds > 0.0)) return usage();

  pb::Result res;
  try {
    if (opt.workload == "dispatch") {
      res = pb::run_dispatch(opt);
    } else if (opt.workload == "echo") {
      res = pb::run_echo(opt);
    } else if (opt.workload == "edt") {
      res = pb::run_edt(opt);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  pb::note_provenance(res, opt);
  if (opt.trace && !spans_path.empty()) {
    if (!pb::trace::write_tsv(spans_path, pb::trace::collect())) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", spans_path.c_str());
    }
  }
  print_result(res);
  if (res.abandoned) {
    std::fflush(stdout);
    std::_Exit(1);
  }
  return res.correct ? 0 : 1;
}
