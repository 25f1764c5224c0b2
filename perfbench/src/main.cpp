// trio-sim benchmark binary: runs one named workload with one seed and
// prints, as its last stdout line, one JSON object with the correctness
// tally and every metric with its unit.
//
//   trio_perfbench --workload agg_large|agg_small|tenant_mix --seed N
//                  --seconds S --trace 0|1 [--spans-out FILE]
//
// --trace 0 reports the end-to-end metrics from untraced runs; --trace 1
// reports the per-layer metrics from a separate traced run and writes the
// benchmark-side spans to --spans-out. Exit status: 0 when every checked
// result was correct, 1 when one was not, 2 on bad arguments, 3 when the
// build has assertions enabled (timings from it are not comparable).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "report.hpp"
#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: trio_perfbench --workload agg_large|agg_small|"
               "tenant_mix --seed N --seconds S --trace 0|1 "
               "[--spans-out FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr,
               "trio_perfbench: refusing to report from an assert-enabled "
               "(%s) build; configure with -DCMAKE_BUILD_TYPE=Release\n",
               PERFBENCH_BUILD_TYPE);
  return 3;
#endif
  perfbench::Options opts;
  std::string spans_out;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      opts.workload = value;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      opts.seconds = std::atof(value);
    } else if (flag == "--trace") {
      opts.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--spans-out") {
      spans_out = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || !perfbench::known_workload(opts.workload) ||
      opts.seconds <= 0) {
    return usage();
  }

  perfbench::Spans spans(opts.trace);
  perfbench::Host host = perfbench::host_info();
  perfbench::Result result;
  try {
    result = perfbench::run_workload(opts, spans, host);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "trio_perfbench: %s\n", e.what());
    return 1;
  }
  std::printf("host %s\n", perfbench::host_json(host).c_str());
  if (!spans_out.empty() && !spans.write(spans_out, host)) {
    std::fprintf(stderr, "trio_perfbench: cannot write %s\n",
                 spans_out.c_str());
    return 1;
  }
  std::printf("%s\n", result.json().c_str());
  return result.correct() ? 0 : 1;
}
