#include "traced_solvers.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>

#include "ampc_algo/singleton_ampc.h"
#include "exact/stoer_wagner.h"
#include "mincut/kcut.h"
#include "support/rng.h"
#include "support/threadpool.h"

namespace perfbench {

using namespace ampccut;

namespace {

void add_solve_costs(ModelCosts& into, const ModelCosts& c) {
  into.tracker_rounds += c.tracker_rounds;
  into.dht_reads += c.dht_reads;
  into.dht_writes += c.dht_writes;
  into.max_machine_traffic =
      std::max(into.max_machine_traffic, c.max_machine_traffic);
  into.peak_table_words = std::max(into.peak_table_words, c.peak_table_words);
  into.budget_violations += c.budget_violations;
  into.instances += c.instances;
  into.depth = std::max(into.depth, c.depth);
  into.tracker_calls += c.tracker_calls;
  into.local_solves += c.local_solves;
}

}  // namespace

// Mirrors ampc_approx_min_cut (src/ampc_algo/mincut_ampc.cpp) for the
// default options the benchmark uses: no strict budget, no fault plan, so
// the degradation loop never runs and is left out.
TracedMinCut traced_min_cut(const WGraph& g, const ampc::AmpcMinCutOptions& opt,
                            ampc::RuntimeArena& arena, Tracer* tr,
                            std::uint64_t parent, std::uint64_t request) {
  TracedMinCut out;
  std::mutex mu;
  std::map<std::uint32_t, std::uint64_t> level_measured;  // guarded by mu
  std::map<std::uint32_t, std::uint64_t> level_charged;   // guarded by mu
  bool any_local = false;                                 // guarded by mu

  ScopedSpan recursion(tr, kRecursionSpan, parent, request);
  const std::uint64_t rec_id = recursion.id();
  request = recursion.request();

  MinCutBackend backend;
  backend.track_singleton = [&](const WGraph& inst, const ContractionOrder& o,
                                std::uint32_t level) {
    ScopedSpan span(tr, kTrackerSpan, rec_id, request);
    ampc::AmpcSingletonOptions sopt;
    sopt.use_boruvka_msf = opt.use_boruvka_msf;
    ampc::RuntimeArena::Lease rt =
        arena.acquire(ampc::Config::for_problem(inst.n + inst.m(),
                                                opt.model_eps));
    const SingletonCutResult r = ampc::ampc_min_singleton_cut(*rt, inst, o,
                                                              sopt);
    const ampc::Metrics& m = rt->metrics();
    std::lock_guard<std::mutex> lock(mu);
    level_measured[level] = std::max(level_measured[level], m.rounds);
    level_charged[level] = std::max(level_charged[level], m.charged_rounds);
    out.costs.tracker_rounds += m.rounds;
    out.costs.dht_reads += m.dht_reads;
    out.costs.dht_writes += m.dht_writes;
    out.costs.max_machine_traffic =
        std::max(out.costs.max_machine_traffic, m.max_machine_traffic);
    out.costs.peak_table_words =
        std::max(out.costs.peak_table_words, m.peak_table_words);
    out.costs.budget_violations += m.budget_violations.load();
    return r;
  };
  backend.solve_local = [&](const WGraph& inst, std::uint32_t) {
    ScopedSpan span(tr, kLocalSpan, rec_id, request);
    {
      std::lock_guard<std::mutex> lock(mu);
      any_local = true;
    }
    return stoer_wagner_min_cut(inst);
  };
  backend.on_level = [](std::uint32_t, std::uint64_t) {};

  const ApproxMinCutResult r =
      approx_min_cut_with_backend(g, opt.recursion, backend);

  ampc::AmpcMinCutReport& rep = out.report;
  rep.weight = r.weight;
  rep.side = r.side;
  rep.stats = r.stats;
  const auto per_level_overhead = static_cast<std::uint64_t>(
      std::ceil(1.0 / std::max(0.1, opt.model_eps)));
  for (const auto& [level, rounds] : level_measured) {
    rep.measured_rounds += rounds;
    rep.charged_rounds += level_charged[level] + per_level_overhead;
    ++rep.levels_used;
  }
  if (any_local) rep.measured_rounds += 1;
  rep.dht_reads = out.costs.dht_reads;
  rep.dht_writes = out.costs.dht_writes;
  rep.max_machine_traffic = out.costs.max_machine_traffic;
  rep.peak_table_words = out.costs.peak_table_words;
  rep.budget_violations = out.costs.budget_violations;

  out.costs.measured_rounds = rep.measured_rounds;
  out.costs.charged_rounds = rep.charged_rounds;
  out.costs.instances = r.stats.instances;
  out.costs.depth = r.stats.depth;
  out.costs.tracker_calls = r.stats.tracker_calls;
  out.costs.local_solves = r.stats.local_solves;
  return out;
}

// Mirrors ampc_apx_split_k_cut (src/ampc_algo/kcut_ampc.cpp): per-iteration
// round maxima over the components, +1 charged round per iteration for the
// component count, one runtime arena shared by every component solve.
TracedKCut traced_k_cut(const WGraph& g, std::uint32_t k,
                        const ampc::AmpcMinCutOptions& opt,
                        ThreadPool* runtime_pool, Tracer* tr,
                        std::uint64_t parent, std::uint64_t request) {
  TracedKCut out;
  std::mutex mu;
  std::uint64_t iter_measured = 0;  // guarded by mu
  std::uint64_t iter_charged = 0;   // guarded by mu
  std::uint32_t calls_this_iter = 0;  // guarded by mu
  auto flush_iteration_locked = [&]() {
    out.report.measured_rounds += iter_measured;
    out.report.charged_rounds += iter_charged + 1;
    iter_measured = 0;
    iter_charged = 0;
    calls_this_iter = 0;
  };

  std::unique_ptr<ThreadPool> owned;
  ThreadPool* pool = resolve_recursion_pool(opt.recursion.threads, owned);
  ampc::AmpcMinCutOptions base = opt;
  if (owned != nullptr) base.recursion.threads = 1;
  ampc::RuntimeArena arena(runtime_pool);

  const ApproxKCutResult r = apx_split_k_cut(
      g, k,
      [&](const WGraph& component, std::uint64_t call_seq) {
        ScopedSpan span(tr, kComponentSpan, parent, request);
        ampc::AmpcMinCutOptions o = base;
        o.recursion.seed = splitmix64(base.recursion.seed ^ call_seq);
        const TracedMinCut sub =
            traced_min_cut(component, o, arena, tr, span.id(), span.request());
        std::lock_guard<std::mutex> lock(mu);
        iter_measured = std::max(iter_measured, sub.report.measured_rounds);
        iter_charged = std::max(iter_charged, sub.report.charged_rounds);
        add_solve_costs(out.costs, sub.costs);
        ++out.costs.component_solves;
        ++calls_this_iter;
        return MinCutResult{sub.report.weight, sub.report.side};
      },
      [&](std::uint32_t) {
        std::lock_guard<std::mutex> lock(mu);
        flush_iteration_locked();
      },
      pool);
  {
    std::lock_guard<std::mutex> lock(mu);
    if (calls_this_iter > 0) flush_iteration_locked();
  }
  out.report.result = r;
  out.costs.measured_rounds = out.report.measured_rounds;
  out.costs.charged_rounds = out.report.charged_rounds;
  return out;
}

}  // namespace perfbench
