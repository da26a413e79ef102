// Traced twins of ampc::ampc_approx_min_cut and ampc::ampc_apx_split_k_cut,
// built only from the library's public entry points: the recursion skeleton
// (approx_min_cut_with_backend), the AMPC singleton tracker on a leased
// runtime, Stoer–Wagner, and the APX-SPLIT greedy loop. They wrap every call
// into a layer in a span and reproduce the untraced drivers' results and
// model-cost accounting exactly; the traced run checks that on every solve.
#pragma once

#include <cstdint>
#include <vector>

#include "ampc_algo/kcut_ampc.h"
#include "ampc_algo/mincut_ampc.h"
#include "bench.h"

namespace perfbench {

namespace ampc = ampccut::ampc;

// Span names (the layer boundaries a traced solve records).
inline constexpr const char* kSolveSpan = "request.solve";
inline constexpr const char* kRecursionSpan = "mincut.recursion";
inline constexpr const char* kTrackerSpan = "ampc_algo.tracker";
inline constexpr const char* kLocalSpan = "exact.local";
inline constexpr const char* kComponentSpan = "kcut.component";

// Deterministic model costs of one solve: the AmpcMinCutReport /
// AmpcKCutReport fields plus recursion shape. Must repeat exactly across
// runs and thread counts.
struct ModelCosts {
  std::uint64_t measured_rounds = 0;
  std::uint64_t charged_rounds = 0;
  std::uint64_t tracker_rounds = 0;  // executed rounds summed over tracker runs
  std::uint64_t dht_reads = 0;
  std::uint64_t dht_writes = 0;
  std::uint64_t max_machine_traffic = 0;
  std::uint64_t peak_table_words = 0;
  std::uint64_t budget_violations = 0;
  std::uint64_t instances = 0;  // recursion instances, summed over solves
  std::uint32_t depth = 0;      // deepest recursion level over solves
  std::uint64_t tracker_calls = 0;
  std::uint64_t local_solves = 0;
  std::uint64_t component_solves = 0;  // k-cut splitter calls

  friend bool operator==(const ModelCosts&, const ModelCosts&) = default;
};

struct TracedMinCut {
  ampc::AmpcMinCutReport report;  // weight, side, stats, model fields
  ModelCosts costs;
};

struct TracedKCut {
  ampc::AmpcKCutReport report;
  ModelCosts costs;
};

// `arena` leases the tracker runtimes (a fresh one per solve reproduces the
// driver's opt.arena == nullptr path); its pool sets the runtime width.
// Spans go under `parent` with request id `request`; a null tracer records
// nothing.
TracedMinCut traced_min_cut(const ampccut::WGraph& g,
                            const ampc::AmpcMinCutOptions& opt,
                            ampc::RuntimeArena& arena, Tracer* tr,
                            std::uint64_t parent, std::uint64_t request);

// `runtime_pool` feeds the shared arena of the component solves (nullptr =
// the shared pool); opt.recursion.threads sets the fan-out width as in the
// untraced driver.
TracedKCut traced_k_cut(const ampccut::WGraph& g, std::uint32_t k,
                        const ampc::AmpcMinCutOptions& opt,
                        ampccut::ThreadPool* runtime_pool, Tracer* tr,
                        std::uint64_t parent, std::uint64_t request);

}  // namespace perfbench
