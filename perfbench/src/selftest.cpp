// The benchmark's own tests, run by `ctest` in the benchmark's build tree:
//   * the model-cost counts (ampc.*, mincut.instances/depth, mpc.rounds)
//     repeat exactly between two runs and between threads=1 and the pool
//     width;
//   * the traced twins reproduce the untraced drivers' results and reports;
//   * the span arithmetic and the tail-percentile rule.
// Inputs are small so the whole test takes a few seconds.
#include <cstdio>
#include <memory>
#include <string>

#include "graph/generators.h"
#include "mpc/gn_baseline.h"
#include "support/threadpool.h"
#include "traced_solvers.h"

using namespace ampccut;
using namespace perfbench;

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "[ ok ]" : "[FAIL]", what.c_str());
  if (!ok) ++failures;
}

ampc::AmpcMinCutOptions opts(std::uint64_t seed, bool threads1) {
  ampc::AmpcMinCutOptions o;
  o.recursion.seed = seed;
  if (threads1) o.recursion.threads = 1;
  return o;
}

TracedMinCut min_cut_at(const WGraph& g, std::uint64_t seed, bool threads1,
                        Tracer* tr) {
  std::unique_ptr<ThreadPool> one;
  if (threads1) one = std::make_unique<ThreadPool>(1);
  ampc::RuntimeArena arena(one.get());
  return traced_min_cut(g, opts(seed, threads1), arena, tr, 0, 0);
}

TracedKCut k_cut_at(const WGraph& g, std::uint32_t k, std::uint64_t seed,
                    bool threads1) {
  std::unique_ptr<ThreadPool> one;
  if (threads1) one = std::make_unique<ThreadPool>(1);
  return traced_k_cut(g, k, opts(seed, threads1), one.get(), nullptr, 0, 0);
}

void min_cut_costs_repeat() {
  WGraph g = gen_random_connected(384, 4 * 384, 7);
  randomize_weights(g, 100, 8);
  for (const std::uint64_t seed : {1, 2}) {
    const std::string at = " (mincut seed " + std::to_string(seed) + ")";
    const ampc::AmpcMinCutReport plain =
        ampc::ampc_approx_min_cut(g, opts(seed, false));
    Tracer tr;
    const TracedMinCut a = min_cut_at(g, seed, false, &tr);
    const TracedMinCut b = min_cut_at(g, seed, false, nullptr);
    const TracedMinCut one = min_cut_at(g, seed, true, nullptr);
    expect(a.costs == b.costs, "model costs repeat between runs" + at);
    expect(a.costs == one.costs, "model costs equal at threads=1" + at);
    expect(a.report.weight == plain.weight && a.report.side == plain.side &&
               a.report.stats == plain.stats,
           "traced result equals ampc_approx_min_cut" + at);
    expect(a.report.measured_rounds == plain.measured_rounds &&
               a.report.charged_rounds == plain.charged_rounds &&
               a.report.dht_reads == plain.dht_reads &&
               a.report.dht_writes == plain.dht_writes &&
               a.report.max_machine_traffic == plain.max_machine_traffic &&
               a.report.peak_table_words == plain.peak_table_words &&
               a.report.budget_violations == plain.budget_violations,
           "traced model costs equal the driver's report" + at);
    expect(a.costs.dht_reads > 0 && a.costs.measured_rounds > 0,
           "model costs are non-zero" + at);
    expect(count_spans(tr.spans(), kTrackerSpan, 1) ==
               plain.stats.tracker_calls,
           "one tracker span per tracker call" + at);
  }
}

void k_cut_costs_repeat() {
  WGraph g = gen_communities(256, 4, 0.25, 2, 5);
  randomize_weights(g, 100, 6);
  const std::uint64_t seed = 3;
  const ampc::AmpcKCutReport plain =
      ampc::ampc_apx_split_k_cut(g, 4, opts(seed, false));
  const TracedKCut a = k_cut_at(g, 4, seed, false);
  const TracedKCut b = k_cut_at(g, 4, seed, false);
  const TracedKCut one = k_cut_at(g, 4, seed, true);
  expect(a.costs == b.costs, "k-cut model costs repeat between runs");
  expect(a.costs == one.costs, "k-cut model costs equal at threads=1");
  expect(a.report.result.part == plain.result.part &&
             a.report.result.weight == plain.result.weight &&
             a.report.result.iterations == plain.result.iterations,
         "traced partition equals ampc_apx_split_k_cut");
  expect(a.report.measured_rounds == plain.measured_rounds &&
             a.report.charged_rounds == plain.charged_rounds,
         "traced k-cut rounds equal the driver's report");
  expect(a.costs.component_solves >= 3, "k-cut ran component solves");
}

void mpc_rounds_repeat() {
  WGraph g = gen_random_connected(384, 4 * 384, 9);
  randomize_weights(g, 100, 10);
  mpc::MpcMinCutOptions o;
  o.recursion.seed = 4;
  const mpc::MpcMinCutReport a = mpc::mpc_gn_min_cut(g, o);
  const mpc::MpcMinCutReport b = mpc::mpc_gn_min_cut(g, o);
  o.recursion.threads = 1;
  const mpc::MpcMinCutReport one = mpc::mpc_gn_min_cut(g, o);
  auto same = [](const mpc::MpcMinCutReport& x, const mpc::MpcMinCutReport& y) {
    return x.rounds == y.rounds && x.messages == y.messages &&
           x.stats == y.stats && x.weight == y.weight;
  };
  expect(same(a, b), "mpc rounds repeat between runs");
  expect(same(a, one), "mpc rounds equal at threads=1");
}

void span_arithmetic() {
  // parent [0, 100), children [10, 30), [20, 50), [70, 80): covered 50.
  std::vector<Span> spans = {
      {"p", 1, 0, 1, 0, 100'000'000},  {"c", 2, 1, 1, 10'000'000, 30'000'000},
      {"c", 3, 1, 1, 20'000'000, 50'000'000},
      {"c", 4, 1, 1, 70'000'000, 80'000'000},
      {"g", 5, 2, 1, 0, 100'000'000},  // grandchild: not a direct child
  };
  expect(self_ms(spans, 1) == 50.0, "self time subtracts the children's union");
  expect(sum_ms(spans, "c", 1) == 60.0, "span sums by name and request");
}

void tail_rule() {
  auto samples = [](std::size_t n) {
    std::vector<double> v;
    for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
    return v;
  };
  expect(tail_of(samples(20)).pct == 75, "20 samples: fall back to p75");
  expect(tail_of(samples(40)).pct == 75, "40 samples: p75");
  expect(tail_of(samples(100)).pct == 90, "100 samples: p90");
  const Tail t = tail_of(samples(1000));
  expect(t.pct == 99 && t.beyond == 10 && t.value == 990,
         "1000 samples: p99 with ten beyond");
  expect(tail_of(samples(100000)).pct == 99, "100000 samples: still p99");
}

}  // namespace

int main() {
  min_cut_costs_repeat();
  k_cut_costs_repeat();
  mpc_rounds_repeat();
  span_arithmetic();
  tail_rule();
  std::printf("%d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}
