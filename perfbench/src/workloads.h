// The benchmark's workloads. Each run either measures the end-to-end metrics
// with tracing off, or (args.trace) makes the traced run that yields the
// per-layer metrics. Every run emits the full metric list of its mode, in
// BENCHMARK.json order; a layer a workload leaves idle reports 0.
#pragma once

#include <map>
#include <string>

#include "bench.h"

namespace perfbench {

Outcome run_mincut(const RunArgs& args);
Outcome run_kcut(const RunArgs& args);
Outcome run_serve(const RunArgs& args);

// Layer metric values by name; emit_per_layer fills in the full list,
// defaulting idle layers to 0.
using LayerValues = std::map<std::string, double>;
void emit_per_layer(Outcome& out, const LayerValues& values);

// The end-to-end metrics every workload reports with tracing off.
struct EndToEnd {
  double setup_s = 0;
  double peak_rss_mb = 0;  // taken when the timed phase ends, before references
  double request_p50_ms = 0;
  Tail request_tail_ms;
  double requests_per_s = 0;
  double approx_ratio_mean = 0;
};
void emit_end_to_end(Outcome& out, const EndToEnd& e);

// The recursion seeds the min-cut and k-cut closed loops cycle through.
inline constexpr std::uint64_t kRecursionSeeds[] = {1, 2, 3, 4};

// Times `reps` set-ups; the median is setup_s.
inline constexpr int kSetupReps = 5;

}  // namespace perfbench
