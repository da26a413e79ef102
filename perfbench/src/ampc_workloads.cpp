// The `mincut` and `kcut` workloads: one client in a closed loop calling the
// AMPC solver on one instance generated from the workload seed; request i
// uses recursion seed kRecursionSeeds[i % size]. Why each workload exists is
// in perfbench/README.md.
#include <cstdio>
#include <functional>
#include <memory>

#include "ampc_algo/kcut_ampc.h"
#include "ampc_algo/mincut_ampc.h"
#include "exact/brute_force.h"
#include "flow/gomory_hu.h"
#include "graph/generators.h"
#include "kernel/front.h"
#include "mpc/gn_baseline.h"
#include "support/rng.h"
#include "support/threadpool.h"
#include "traced_solvers.h"
#include "workloads.h"

namespace perfbench {

using namespace ampccut;

namespace {

// One solve's output: what the correctness gates read, plus every
// deterministic report field, which the traced twin must reproduce.
struct Answer {
  Weight weight = kInfiniteWeight;
  std::vector<std::uint8_t> side;   // min-cut witness
  std::vector<std::uint32_t> part;  // k-cut partition
  std::vector<std::uint64_t> fingerprint;

  bool operator==(const Answer&) const = default;
};

struct TracedAnswer {
  Answer answer;
  ModelCosts costs;
};

struct AmpcSpec {
  const char* name;
  std::function<WGraph(std::uint64_t seed)> make_input;
  std::function<Answer(const WGraph&, std::uint64_t rseed)> solve;
  // threads1: recursion and runtime rounds on one thread.
  std::function<TracedAnswer(const WGraph&, std::uint64_t rseed, bool threads1,
                             Tracer*, std::uint64_t parent,
                             std::uint64_t request)>
      traced;
  // The exact (mincut) or Gomory–Hu (kcut) reference weight.
  std::function<Weight(const WGraph&)> reference;
  // Gate for one answer against its input's reference; returns why it
  // fails, or "" when it passes.
  std::function<std::string(const WGraph&, const Answer&, Weight ref)> gate;
};

ampc::AmpcMinCutOptions options_for(std::uint64_t rseed, bool threads1) {
  ampc::AmpcMinCutOptions opt;
  opt.recursion.seed = rseed;
  if (threads1) opt.recursion.threads = 1;
  return opt;
}

// ---- mincut ----------------------------------------------------------------

constexpr VertexId kMinCutN = 4096;

WGraph mincut_input(std::uint64_t seed) {
  WGraph g = gen_random_connected(kMinCutN, 4 * std::size_t{kMinCutN},
                                  splitmix64(seed));
  randomize_weights(g, 100, splitmix64(seed ^ 0x5eedULL));
  return g;
}

Answer mincut_answer(const ampc::AmpcMinCutReport& r) {
  Answer a;
  a.weight = r.weight;
  a.side = r.side;
  a.fingerprint = {r.stats.depth,         r.stats.instances,
                   r.stats.tracker_calls, r.stats.local_solves,
                   r.stats.peak_level_edges, r.measured_rounds,
                   r.charged_rounds,      r.levels_used,
                   r.dht_reads,           r.dht_writes,
                   r.max_machine_traffic, r.peak_table_words,
                   r.budget_violations};
  return a;
}

Weight mincut_reference(const WGraph& g) {
  return kernel::stoer_wagner_min_cut_kernelized(g).weight;
}

std::string mincut_gate(const WGraph& g, const Answer& a, Weight ref) {
  const auto on_side = std::count(a.side.begin(), a.side.end(), 1);
  const bool proper = a.side.size() == g.n && on_side > 0 &&
                      on_side < static_cast<std::ptrdiff_t>(g.n);
  if (!proper || cut_weight(g, a.side) != a.weight) {
    return "min-cut witness does not induce the reported weight";
  }
  const double eps = ApproxMinCutOptions{}.eps;
  if (a.weight < ref ||
      static_cast<double>(a.weight) > (2.0 + eps) * static_cast<double>(ref)) {
    return "min-cut weight outside [ref, (2+eps) ref]";
  }
  return "";
}

AmpcSpec mincut_spec() {
  AmpcSpec s;
  s.name = "mincut";
  s.make_input = mincut_input;
  s.solve = [](const WGraph& g, std::uint64_t rseed) {
    return mincut_answer(
        ampc::ampc_approx_min_cut(g, options_for(rseed, false)));
  };
  s.traced = [](const WGraph& g, std::uint64_t rseed, bool threads1,
                Tracer* tr, std::uint64_t parent, std::uint64_t request) {
    std::unique_ptr<ThreadPool> one;
    if (threads1) one = std::make_unique<ThreadPool>(1);
    ampc::RuntimeArena arena(one.get());
    const TracedMinCut t = traced_min_cut(g, options_for(rseed, threads1),
                                          arena, tr, parent, request);
    return TracedAnswer{mincut_answer(t.report), t.costs};
  };
  s.reference = mincut_reference;
  s.gate = mincut_gate;
  return s;
}

// ---- kcut ------------------------------------------------------------------

constexpr VertexId kKCutN = 2048;
constexpr std::uint32_t kK = 8;

WGraph kcut_input(std::uint64_t seed) {
  WGraph g = gen_communities(kKCutN, kK, 16.0 / 256.0, 2, splitmix64(seed));
  randomize_weights(g, 100, splitmix64(seed ^ 0x5eedULL));
  return g;
}

Answer kcut_answer(const ampc::AmpcKCutReport& r) {
  Answer a;
  a.weight = r.result.weight;
  a.part = r.result.part;
  a.fingerprint = {r.result.num_parts, r.result.iterations, r.measured_rounds,
                   r.charged_rounds};
  return a;
}

Weight kcut_reference(const WGraph& g) { return gomory_hu_k_cut(g, kK).weight; }

std::string kcut_gate(const WGraph& g, const Answer& a, Weight ref) {
  std::uint32_t parts = 0;
  for (const std::uint32_t p : a.part) parts = std::max(parts, p + 1);
  if (a.part.size() != g.n || parts < kK ||
      k_cut_weight(g, a.part) != a.weight) {
    return "k-cut partition does not induce the reported weight";
  }
  const double eps = ApproxMinCutOptions{}.eps;
  if (static_cast<double>(a.weight) >
      (2.0 + eps) * (2.0 - 2.0 / kK) * static_cast<double>(ref)) {
    return "k-cut weight above (2+eps)(2-2/k) x Gomory-Hu k-cut";
  }
  return "";
}

AmpcSpec kcut_spec() {
  AmpcSpec s;
  s.name = "kcut";
  s.make_input = kcut_input;
  s.solve = [](const WGraph& g, std::uint64_t rseed) {
    return kcut_answer(
        ampc::ampc_apx_split_k_cut(g, kK, options_for(rseed, false)));
  };
  s.traced = [](const WGraph& g, std::uint64_t rseed, bool threads1,
                Tracer* tr, std::uint64_t parent, std::uint64_t request) {
    std::unique_ptr<ThreadPool> one;
    if (threads1) one = std::make_unique<ThreadPool>(1);
    const TracedKCut t = traced_k_cut(g, kK, options_for(rseed, threads1),
                                      one.get(), tr, parent, request);
    return TracedAnswer{kcut_answer(t.report), t.costs};
  };
  s.reference = kcut_reference;
  s.gate = kcut_gate;
  return s;
}

// ---- shared harness --------------------------------------------------------

struct Setup {
  WGraph g;
  double setup_s = 0;
  double gen_ms = 0;
};

// Generation plus one warm-up solve, kSetupReps times; reports medians.
Setup set_up(const AmpcSpec& spec, std::uint64_t seed) {
  Setup s;
  std::vector<double> total;
  std::vector<double> gen;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = Clock::now();
    s.g = spec.make_input(seed);
    gen.push_back(ms_since(t0));
    spec.solve(s.g, kRecursionSeeds[0]);
    total.push_back(ms_since(t0) / 1000.0);
  }
  s.setup_s = median(total);
  s.gen_ms = median(gen);
  return s;
}

std::uint64_t rseed_of(std::size_t request) {
  return kRecursionSeeds[request % std::size(kRecursionSeeds)];
}

struct Checked {
  double ratio_mean = 0;    // answer weight / reference, over all answers
  double reference_ms = 0;  // time of the reference computation
};

// Runs every gate after the timed phase.
Checked check(const AmpcSpec& spec, const WGraph& g,
              const std::vector<Answer>& answers, Outcome& out) {
  const auto t0 = Clock::now();
  const Weight ref = spec.reference(g);
  Checked c;
  c.reference_ms = ms_since(t0);
  std::vector<double> ratios;
  for (const Answer& a : answers) {
    const std::string why = spec.gate(g, a, ref);
    if (!why.empty()) out.fail(why);
    ratios.push_back(static_cast<double>(a.weight) /
                     static_cast<double>(std::max<Weight>(ref, 1)));
  }
  c.ratio_mean = mean(ratios);
  char buf[96];
  std::snprintf(buf, sizeof(buf), "reference weight %llu (%.1f ms)",
                static_cast<unsigned long long>(ref), c.reference_ms);
  out.note(buf);
  return c;
}

Outcome run_untraced(const AmpcSpec& spec, const RunArgs& args) {
  Outcome out;
  const Setup setup = set_up(spec, args.seed);

  std::vector<double> latency_ms;
  std::vector<Answer> answers;
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration<double>(args.seconds);
  do {
    const auto t0 = Clock::now();
    answers.push_back(spec.solve(setup.g, rseed_of(answers.size())));
    latency_ms.push_back(ms_since(t0));
  } while (Clock::now() < deadline);
  const double elapsed_s = ms_since(start) / 1000.0;

  out.attempted = answers.size();
  EndToEnd e;
  e.peak_rss_mb = peak_rss_mb();
  e.setup_s = setup.setup_s;
  e.request_p50_ms = median(latency_ms);
  e.request_tail_ms = tail_of(latency_ms);
  // The median over whole cycles of the seed list, so a burst of host load
  // in a few cycles does not move the figure; a run too short for one
  // cycle falls back to the whole run.
  const std::size_t cycle = std::size(kRecursionSeeds);
  std::vector<double> cycle_rates;
  for (std::size_t i = 0; i + cycle <= latency_ms.size(); i += cycle) {
    double ms = 0;
    for (std::size_t j = i; j < i + cycle; ++j) ms += latency_ms[j];
    cycle_rates.push_back(static_cast<double>(cycle) * 1000.0 / ms);
  }
  e.requests_per_s =
      cycle_rates.empty() ? static_cast<double>(answers.size()) / elapsed_s
                          : median(cycle_rates);
  e.approx_ratio_mean = check(spec, setup.g, answers, out).ratio_mean;
  out.note(describe(e.request_tail_ms, "solve"));
  char buf[160];
  std::snprintf(buf, sizeof(buf), "input: n=%u m=%zu; %zu solves in %.2f s",
                setup.g.n, setup.g.m(), answers.size(), elapsed_s);
  out.note(buf);
  emit_end_to_end(out, e);
  return out;
}

// Per traced solve, the quantities the per-layer metrics take medians of.
struct TracedSample {
  double traced_ms = 0;
  double untraced_ms = 0;
  double tracker_ms = 0;
  double local_ms = 0;
  double mincut_self_ms = 0;
  double kcut_self_ms = 0;
  double spans = 0;
  ModelCosts costs;
};

// The solve span's id is also its request id.
TracedSample analyse(const Tracer& tr, std::uint64_t request,
                     const ModelCosts& costs,
                     std::vector<double>& component_ms) {
  const std::vector<Span>& spans = tr.spans();
  TracedSample s;
  s.costs = costs;
  s.tracker_ms = sum_ms(spans, kTrackerSpan, request);
  s.local_ms = sum_ms(spans, kLocalSpan, request);
  for (const Span& sp : spans) {
    if (sp.request != request) continue;
    ++s.spans;
    if (std::string_view(sp.name) == kRecursionSpan) {
      s.mincut_self_ms += self_ms(spans, sp.id);
    } else if (std::string_view(sp.name) == kComponentSpan) {
      component_ms.push_back(sp.ms());
    }
  }
  if (costs.component_solves > 0) s.kcut_self_ms = self_ms(spans, request);
  return s;
}

template <class F>
double median_of(const std::vector<TracedSample>& v, F f) {
  std::vector<double> xs;
  for (const TracedSample& s : v) xs.push_back(static_cast<double>(f(s)));
  return median(xs);
}

Outcome run_traced(const AmpcSpec& spec, const RunArgs& args) {
  Outcome out;
  const Setup setup = set_up(spec, args.seed);
  Tracer tr;
  LayerValues layer;

  // Whole cycles over the seed list, so medians of the per-seed counts do
  // not depend on how many cycles fit in the run.
  std::vector<TracedSample> samples;
  std::vector<double> component_ms;
  std::vector<Answer> answers;
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(args.seconds);
  // Untraced and traced solves alternate which runs first, so the overhead
  // estimate carries no order bias.
  bool traced_first = false;
  bool faithful = true;
  do {
    for (const std::uint64_t rseed : kRecursionSeeds) {
      Answer plain;
      double untraced_ms = 0;
      auto run_plain = [&] {
        const auto t0 = Clock::now();
        plain = spec.solve(setup.g, rseed);
        untraced_ms = ms_since(t0);
      };
      if (!traced_first) run_plain();
      const auto t0 = Clock::now();
      TracedAnswer traced;
      std::uint64_t solve_id = 0;
      {
        ScopedSpan solve(&tr, kSolveSpan, 0, 0);
        solve_id = solve.id();
        traced = spec.traced(setup.g, rseed, false, &tr, solve_id, solve_id);
      }
      const double traced_ms = ms_since(t0);
      if (traced_first) run_plain();
      traced_first = !traced_first;
      if (!(traced.answer == plain)) {
        faithful = false;
        out.fail("traced solve differs from the untraced solve (seed " +
                 std::to_string(rseed) + ")");
      }
      TracedSample s =
          analyse(tr, solve_id, traced.costs, component_ms);
      s.traced_ms = traced_ms;
      s.untraced_ms = untraced_ms;
      samples.push_back(s);
      answers.push_back(plain);
      answers.push_back(traced.answer);
    }
  } while (Clock::now() < deadline);

  // One extra traced solve with recursion and runtime on one thread.
  const auto t1 = Clock::now();
  const TracedAnswer one =
      spec.traced(setup.g, kRecursionSeeds[0], true, nullptr, 0, 0);
  const double one_ms = ms_since(t1);
  if (!(one.answer == answers[0]) || !(one.costs == samples[0].costs)) {
    faithful = false;
    out.fail("threads=1 solve differs from the pool-width solve");
  }
  std::vector<double> pool_ms;
  for (std::size_t i = 0; i < samples.size(); i += std::size(kRecursionSeeds)) {
    pool_ms.push_back(samples[i].traced_ms);
  }
  layer["support.speedup_vs_1thread"] = one_ms / median(pool_ms);

  out.attempted = answers.size() + 1;
  const Checked checked = check(spec, setup.g, answers, out);

  layer["ampc_algo.tracker_ms"] =
      median_of(samples, [](const auto& s) { return s.tracker_ms; });
  layer["ampc_algo.tracker_calls"] =
      median_of(samples, [](const auto& s) { return s.costs.tracker_calls; });
  layer["ampc.dht_read_words"] =
      median_of(samples, [](const auto& s) { return s.costs.dht_reads; });
  layer["ampc.dht_write_words"] =
      median_of(samples, [](const auto& s) { return s.costs.dht_writes; });
  layer["ampc.max_machine_traffic"] = median_of(
      samples, [](const auto& s) { return s.costs.max_machine_traffic; });
  layer["ampc.peak_table_words"] = median_of(
      samples, [](const auto& s) { return s.costs.peak_table_words; });
  layer["ampc.rounds"] =
      median_of(samples, [](const auto& s) { return s.costs.measured_rounds; });
  layer["ampc.charged_rounds"] =
      median_of(samples, [](const auto& s) { return s.costs.charged_rounds; });
  layer["ampc.ns_per_round"] = median_of(samples, [](const auto& s) {
    return s.tracker_ms * 1e6 /
           static_cast<double>(
               std::max<std::uint64_t>(1, s.costs.tracker_rounds));
  });
  layer["ampc.budget_violations"] = median_of(
      samples, [](const auto& s) { return s.costs.budget_violations; });
  layer["kcut.component_solves"] = median_of(
      samples, [](const auto& s) { return s.costs.component_solves; });
  layer["kcut.component_ms_p50"] = median(component_ms);
  layer["kcut.self_ms"] =
      median_of(samples, [](const auto& s) { return s.kcut_self_ms; });
  layer["mincut.self_ms"] =
      median_of(samples, [](const auto& s) { return s.mincut_self_ms; });
  layer["mincut.instances"] =
      median_of(samples, [](const auto& s) { return s.costs.instances; });
  layer["mincut.depth"] =
      median_of(samples, [](const auto& s) { return s.costs.depth; });
  layer["exact.local_ms"] =
      median_of(samples, [](const auto& s) { return s.local_ms; });
  layer["exact.local_solves"] =
      median_of(samples, [](const auto& s) { return s.costs.local_solves; });
  layer["trace.overhead_ms"] = median_of(
      samples, [](const auto& s) { return s.traced_ms - s.untraced_ms; });
  layer["trace.spans"] =
      median_of(samples, [](const auto& s) { return s.spans; });
  layer["graph.gen_ms"] = setup.gen_ms;

  if (std::string_view(spec.name) == "mincut") {
    layer["kernel.reference_ms"] = checked.reference_ms;
    // The Ghaffari–Nowicki MPC baseline on the same input (reported only).
    mpc::MpcMinCutOptions mopt;
    mopt.recursion.seed = kRecursionSeeds[0];
    const auto t0 = Clock::now();
    const mpc::MpcMinCutReport m = mpc::mpc_gn_min_cut(setup.g, mopt);
    layer["mpc.solve_ms"] = ms_since(t0);
    layer["mpc.rounds"] = static_cast<double>(m.rounds);
    layer["mpc.messages"] = static_cast<double>(m.messages);
  }

  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "traced %zu solves; tracing overhead %.3f ms per solve "
                "(traced %.2f ms, untraced %.2f ms)",
                samples.size(), layer["trace.overhead_ms"],
                median_of(samples, [](const auto& s) { return s.traced_ms; }),
                median_of(samples,
                          [](const auto& s) { return s.untraced_ms; }));
  out.note(buf);
  out.note(std::string("fidelity self-check: ") +
           (faithful ? "traced == untraced, threads=1 == pool width"
                     : "MISMATCH"));
  if (!args.trace_out.empty() && !tr.write(args.trace_out)) {
    out.fail("cannot write spans to " + args.trace_out);
  }
  emit_per_layer(out, layer);
  return out;
}

Outcome run_ampc(const AmpcSpec& spec, const RunArgs& args) {
  return args.trace ? run_traced(spec, args) : run_untraced(spec, args);
}

}  // namespace

Outcome run_mincut(const RunArgs& args) {
  return run_ampc(mincut_spec(), args);
}
Outcome run_kcut(const RunArgs& args) { return run_ampc(kcut_spec(), args); }

}  // namespace perfbench
