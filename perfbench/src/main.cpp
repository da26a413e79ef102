// perfbench: the repo benchmark's measuring process. run.py builds it and
// calls
//   perfbench --workload <mincut|kcut|serve> --seed <n> --seconds <s>
//             --trace <0|1> [--trace-out <spans.jsonl>]
// It prints info lines, then one JSON line: correct, attempted, failed and
// the metrics (end-to-end with --trace 0, per-layer with --trace 1).
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "workloads.h"

namespace {

using perfbench::Outcome;
using perfbench::RunArgs;

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload mincut|kcut|serve "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n",
               why);
  return 2;
}

void print_json(const Outcome& out) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              out.correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const auto& m = out.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  RunArgs args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (flag == "--trace-out") {
        args.trace_out = value;
      } else {
        return usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + flag).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");
  if (!(args.seconds > 0 && args.seconds <= 600)) {
    return usage("--seconds must be in (0, 600]");
  }

  Outcome out;
  try {
    if (args.workload == "mincut") {
      out = perfbench::run_mincut(args);
    } else if (args.workload == "kcut") {
      out = perfbench::run_kcut(args);
    } else if (args.workload == "serve") {
      out = perfbench::run_serve(args);
    } else {
      return usage(("unknown workload " + args.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }
  for (const auto& m : out.metrics) {
    if (!std::isfinite(m.value)) {
      out.fail("metric " + m.name + " is not finite");
    }
  }
  for (auto& m : out.metrics) {
    if (!std::isfinite(m.value)) m.value = 0;
  }
  for (const std::string& line : out.info) std::printf("# %s\n", line.c_str());
  print_json(out);
  return 0;
}
