// The `serve` workload: one serve::CutServer on a deep-Gomory–Hu-tree family
// (a weighted path plus n/16 unit chords), driven in a closed loop by 1
// single-query client, 1 query_batch client and 1 writer alternating
// update_graph() between two graphs of the family. The server runs its batch
// fan-out and build sorts on a one-thread pool, so the loop never has more
// runnable threads than three: on a small shared host more would measure the
// scheduler. Each client thread is pinned to a CPU of its own: left to the
// scheduler, the query and batch clients sometimes shared one CPU for much
// of a run, which cut the latency of both by a third and made p50 and tail
// bimodal across runs. Pairs come 80% from a hot set smaller than the
// server's default answer cache and 20% from a pool larger than it; the
// benchmark sets no cache option and reads no cache counter, it reports the
// measured pair-repeat share instead.
#include <pthread.h>
#include <sched.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>

#include "flow/dinic.h"
#include "flow/gomory_hu.h"
#include "serve/cut_server.h"
#include "support/rng.h"
#include "support/threadpool.h"
#include "workloads.h"

namespace perfbench {

using namespace ampccut;

namespace {

constexpr VertexId kServeN = 1024;
constexpr std::size_t kHotPairs = 1024;   // < the default cache capacity
constexpr std::size_t kColdPairs = 6144;  // > the default cache capacity
constexpr double kHotShare = 0.8;
constexpr std::size_t kBatch = 256;
constexpr auto kRebuildPeriod = std::chrono::milliseconds(1000);
constexpr std::uint64_t kLatencyEvery = 16;     // single-query latency sample
// A uniform reservoir of the single client's timed queries. A fixed size
// keeps peak RSS independent of how fast the queries run.
constexpr std::size_t kLatencySamples = std::size_t{1} << 18;
constexpr std::uint64_t kSpanEvery = 1024;      // traced single-query span

WGraph deep_tree_input(std::uint64_t seed) {
  Rng rng(seed);
  WGraph g;
  g.n = kServeN;
  for (VertexId v = 0; v + 1 < kServeN; ++v) {
    g.add_edge(v, v + 1, 1 + rng.next_below(1000));
  }
  for (VertexId c = 0; c < kServeN / 16; ++c) {
    const auto u = static_cast<VertexId>(rng.next_below(kServeN));
    auto v = static_cast<VertexId>(rng.next_below(kServeN - 1));
    if (v >= u) ++v;
    g.add_edge(u, v, 1);
  }
  return g;
}

std::vector<serve::QueryPair> pair_pool(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<serve::QueryPair> pool;
  while (pool.size() < kHotPairs + kColdPairs) {
    const auto s = static_cast<VertexId>(rng.next_below(kServeN));
    const auto t = static_cast<VertexId>(rng.next_below(kServeN));
    if (s != t) pool.push_back({s, t});
  }
  return pool;
}

std::uint32_t draw(Rng& rng) {
  if (rng.next_double() < kHotShare) {
    return static_cast<std::uint32_t>(rng.next_below(kHotPairs));
  }
  return static_cast<std::uint32_t>(kHotPairs + rng.next_below(kColdPairs));
}

// Which graphs a call may have been answered on. The writer bumps `started`
// before update_graph() and `finished` after it; update i publishes graph
// i % 2 (0 = A, the initial graph). A call that saw finished == a at its
// start and started == b at its end ran while the server held graph a..b.
enum Held : std::uint8_t { kHeldA = 0, kHeldB = 1, kHeldEither = 2 };

Held held(std::uint64_t a, std::uint64_t b) {
  if (a != b) return kHeldEither;
  return a % 2 == 0 ? kHeldA : kHeldB;
}

// Every answer a client received, folded per (pair, held) into at most two
// distinct values and their counts; a third distinct value is wrong whatever
// the references say.
class AnswerLog {
 public:
  AnswerLog() : slots_((kHotPairs + kColdPairs) * 3) {}

  void add(std::uint32_t pair, Held h, Weight w) {
    Slot& s = slots_[pair * 3 + h];
    for (int i = 0; i < 2; ++i) {
      if (s.count[i] == 0) s.value[i] = w;
      if (s.value[i] == w) {
        ++s.count[i];
        return;
      }
    }
    ++s.other;
  }

  struct Slot {
    Weight value[2] = {0, 0};
    std::uint64_t count[2] = {0, 0};
    std::uint64_t other = 0;
  };
  std::vector<Slot> slots_;
};

struct Client {
  std::vector<std::uint32_t> latency_ns;  // reservoir of timed queries
  std::uint64_t timed = 0;                // single queries timed
  std::vector<double> batch_ms;
  std::vector<double> rebuild_ms;
  // Written by the client's thread only; the loop's sampler reads it.
  std::atomic<std::uint64_t> answers{0};
  std::uint64_t hot_draws = 0;
  std::uint64_t calls = 0;
  std::uint64_t errors = 0;
  std::string error;
  AnswerLog log;
};

// Bumps a counter that only the calling thread writes.
void bump(std::atomic<std::uint64_t>& n, std::uint64_t by) {
  n.store(n.load(std::memory_order_relaxed) + by, std::memory_order_relaxed);
}

struct Inputs {
  WGraph a;
  WGraph b;
  std::vector<serve::QueryPair> pool;
  std::unique_ptr<ThreadPool> server_pool;  // outlives the server
  std::unique_ptr<serve::CutServer> server;
};

enum Role : std::size_t { kSingle = 0, kBatcher = 1, kWriter = 2, kRoles = 3 };

// Pins thread i to the i-th of the last kRoles CPUs the process may use,
// leaving the first to the rest of the system. Returns the CPUs used, or an
// empty list when there are too few CPUs to give each role its own.
std::vector<int> pin_roles(std::vector<std::thread>& threads) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return {};
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  if (cpus.size() <= threads.size()) return {};
  cpus.erase(cpus.begin(),
             cpus.end() - static_cast<std::ptrdiff_t>(threads.size()));
  for (std::size_t i = 0; i < threads.size(); ++i) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus[i], &one);
    if (pthread_setaffinity_np(threads[i].native_handle(), sizeof(one),
                               &one) != 0) {
      return {};
    }
  }
  return cpus;
}

struct LoopResult {
  std::vector<Client> clients = std::vector<Client>(kRoles);
  std::vector<int> cpus;  // the CPU of each role, empty when unpinned
  // Answers per second in each rebuild period, single and batch. Every
  // period but the first holds one rebuild.
  std::vector<double> period_answers_per_s;
  double elapsed_s = 0;
};

std::int64_t ns_since(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              t0)
      .count();
}

// The closed loop. With a tracer, batch and rebuild calls and every
// kSpanEvery-th single query get a span.
LoopResult closed_loop(Inputs& in, std::uint64_t seed, double seconds,
                       Tracer* tr) {
  LoopResult res;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> started{0};
  std::atomic<std::uint64_t> finished{0};
  serve::CutServer& server = *in.server;

  const auto start = Clock::now();
  auto guarded = [&](Client& c, auto&& body) {
    try {
      body();
    } catch (const std::exception& e) {
      ++c.errors;
      c.error = e.what();
    }
  };
  auto single = [&](Client& c, std::uint64_t id) {
    guarded(c, [&] {
      c.latency_ns.reserve(kLatencySamples);
      Rng rng(splitmix64(seed ^ (0xC11E47ULL + id)));
      Rng reservoir(splitmix64(seed ^ (0x5A3D1EULL + id)));
      while (!stop.load(std::memory_order_relaxed)) {
        const std::uint32_t idx = draw(rng);
        c.hot_draws += idx < kHotPairs;
        const serve::QueryPair q = in.pool[idx];
        const std::uint64_t a = finished.load(std::memory_order_acquire);
        Weight w = 0;
        if (c.calls % kLatencyEvery == 0) {
          ScopedSpan span(c.calls % kSpanEvery == 0 ? tr : nullptr,
                          "serve.query", 0, 0);
          const auto t0 = Clock::now();
          w = server.query(q.s, q.t);
          const auto ns = static_cast<std::uint32_t>(
              std::min<std::int64_t>(ns_since(t0), UINT32_MAX));
          if (c.latency_ns.size() < kLatencySamples) {
            c.latency_ns.push_back(ns);
          } else if (const std::uint64_t j = reservoir.next_below(c.timed + 1);
                     j < kLatencySamples) {
            c.latency_ns[j] = ns;
          }
          ++c.timed;
        } else {
          w = server.query(q.s, q.t);
        }
        const std::uint64_t b = started.load(std::memory_order_acquire);
        c.log.add(idx, held(a, b), w);
        ++c.calls;
        bump(c.answers, 1);
      }
    });
  };
  auto batcher = [&](Client& c) {
    guarded(c, [&] {
      Rng rng(splitmix64(seed ^ 0xBA7C4ULL));
      std::vector<std::uint32_t> idx(kBatch);
      std::vector<serve::QueryPair> pairs(kBatch);
      while (!stop.load(std::memory_order_relaxed)) {
        for (std::size_t i = 0; i < kBatch; ++i) {
          idx[i] = draw(rng);
          c.hot_draws += idx[i] < kHotPairs;
          pairs[i] = in.pool[idx[i]];
        }
        const std::uint64_t a = finished.load(std::memory_order_acquire);
        const auto t0 = Clock::now();
        std::vector<Weight> w;
        {
          ScopedSpan span(tr, "serve.query_batch", 0, 0);
          w = server.query_batch(pairs);
        }
        c.batch_ms.push_back(ms_since(t0));
        const std::uint64_t b = started.load(std::memory_order_acquire);
        const Held h = held(a, b);
        for (std::size_t i = 0; i < kBatch; ++i) c.log.add(idx[i], h, w[i]);
        ++c.calls;
        bump(c.answers, kBatch);
      }
    });
  };
  auto writer = [&](Client& c) {
    guarded(c, [&] {
      for (std::uint64_t k = 1;; ++k) {
        const auto wake = start + k * kRebuildPeriod;
        while (!stop.load(std::memory_order_relaxed) && Clock::now() < wake) {
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        if (stop.load(std::memory_order_relaxed)) return;
        started.fetch_add(1, std::memory_order_acq_rel);
        const auto t0 = Clock::now();
        {
          ScopedSpan span(tr, "serve.update_graph", 0, 0);
          server.update_graph(k % 2 == 1 ? in.b : in.a);
        }
        c.rebuild_ms.push_back(ms_since(t0));
        finished.fetch_add(1, std::memory_order_acq_rel);
        ++c.calls;
      }
    });
  };

  std::vector<std::thread> threads;
  try {
    threads.emplace_back(single, std::ref(res.clients[kSingle]), 0);
    threads.emplace_back(batcher, std::ref(res.clients[kBatcher]));
    threads.emplace_back(writer, std::ref(res.clients[kWriter]));
    res.cpus = pin_roles(threads);
  } catch (...) {
    stop.store(true, std::memory_order_relaxed);
    for (std::thread& t : threads) t.join();
    throw;
  }
  // Samples the answer counters at every rebuild period boundary.
  const auto end = start + std::chrono::duration<double>(seconds);
  auto answered = [&] {
    return res.clients[kSingle].answers.load(std::memory_order_relaxed) +
           res.clients[kBatcher].answers.load(std::memory_order_relaxed);
  };
  std::uint64_t last = 0;
  for (auto tick = start + kRebuildPeriod; tick <= end;
       tick += kRebuildPeriod) {
    std::this_thread::sleep_until(tick);
    const std::uint64_t now = answered();
    res.period_answers_per_s.push_back(
        static_cast<double>(now - last) /
        std::chrono::duration<double>(kRebuildPeriod).count());
    last = now;
  }
  std::this_thread::sleep_until(end);
  stop.store(true, std::memory_order_relaxed);
  res.elapsed_s = ms_since(start) / 1000.0;
  for (std::thread& t : threads) t.join();
  return res;
}

Inputs set_up(std::uint64_t seed, std::vector<double>& setup_s,
              std::vector<double>& gen_ms, std::vector<double>& build_ms) {
  Inputs in;
  in.server_pool = std::make_unique<ThreadPool>(1);
  for (int rep = 0; rep < kSetupReps; ++rep) {
    in.server.reset();
    const auto t0 = Clock::now();
    in.a = deep_tree_input(splitmix64(seed));
    in.b = deep_tree_input(splitmix64(seed ^ 0xB0B0ULL));
    in.pool = pair_pool(splitmix64(seed ^ 0xFA125ULL));
    gen_ms.push_back(ms_since(t0));
    const auto t1 = Clock::now();
    serve::CutServerOptions opt;
    opt.pool = in.server_pool.get();
    in.server = std::make_unique<serve::CutServer>(in.a, opt);
    build_ms.push_back(ms_since(t1));
    // Warm the rebuild path through both graphs, ending on A, the graph the
    // closed loop starts from.
    in.server->update_graph(in.b);
    in.server->update_graph(in.a);
    setup_s.push_back(ms_since(t0) / 1000.0);
  }
  return in;
}

struct TreeDepth {
  double mean = 0;
  VertexId max = 0;
};

TreeDepth tree_depth(const GomoryHuTree& t) {
  const std::size_t n = t.parent.size();
  std::vector<VertexId> depth(n, kInvalidVertex);
  std::vector<VertexId> path;
  TreeDepth d;
  for (std::size_t v = 0; v < n; ++v) {
    VertexId u = static_cast<VertexId>(v);
    while (depth[u] == kInvalidVertex && t.parent[u] != kInvalidVertex) {
      path.push_back(u);
      u = t.parent[u];
    }
    if (depth[u] == kInvalidVertex) depth[u] = 0;  // the root
    for (auto it = path.rbegin(); it != path.rend(); ++it) {
      depth[*it] = depth[t.parent[*it]] + 1;
    }
    path.clear();
    d.mean += depth[v];
    d.max = std::max(d.max, depth[v]);
  }
  d.mean /= static_cast<double>(std::max<std::size_t>(n, 1));
  return d;
}

// Checks every logged answer against st_min_cut on the graphs the server
// held during the call. Returns the mean ratio of answers to references.
double check_answers(const Inputs& in, const LoopResult& res, Outcome& out,
                     LayerValues& layer) {
  const std::size_t pairs = in.pool.size();
  std::vector<std::uint8_t> touched(pairs, 0);
  for (const Client& c : res.clients) {
    for (std::size_t i = 0; i < c.log.slots_.size(); ++i) {
      const auto& s = c.log.slots_[i];
      if (s.count[0] + s.other > 0) touched[i / 3] = 1;
    }
  }
  // References on the pool's threads; flow.st_min_cut_us is the mean time
  // of one st_min_cut call.
  std::vector<Weight> ref_a(pairs, 0);
  std::vector<Weight> ref_b(pairs, 0);
  std::vector<double> flow_us(pairs, 0);
  ThreadPool::shared().parallel_for(pairs, [&](std::size_t p) {
    if (!touched[p]) return;
    const auto t0 = Clock::now();
    ref_a[p] = st_min_cut(in.a, in.pool[p].s, in.pool[p].t);
    ref_b[p] = st_min_cut(in.b, in.pool[p].s, in.pool[p].t);
    flow_us[p] = ms_since(t0) * 1000.0 / 2;
  });
  std::size_t distinct = 0;
  for (const std::uint8_t t : touched) distinct += t;
  double flow_us_sum = 0;
  for (const double us : flow_us) flow_us_sum += us;
  layer["flow.st_min_cut_us"] =
      flow_us_sum / static_cast<double>(std::max<std::size_t>(distinct, 1));

  std::uint64_t wrong = 0;
  std::uint64_t total = 0;
  double ratio_sum = 0;
  for (const Client& c : res.clients) {
    for (std::size_t i = 0; i < c.log.slots_.size(); ++i) {
      const auto& s = c.log.slots_[i];
      const std::size_t p = i / 3;
      const auto h = static_cast<Held>(i % 3);
      wrong += s.other;
      total += s.other;
      for (int k = 0; k < 2; ++k) {
        if (s.count[k] == 0) continue;
        const Weight v = s.value[k];
        const bool ok = (h != kHeldB && v == ref_a[p]) ||
                        (h != kHeldA && v == ref_b[p]);
        const Weight ref = (h == kHeldB || (h == kHeldEither && v == ref_b[p]))
                               ? ref_b[p]
                               : ref_a[p];
        if (!ok) wrong += s.count[k];
        total += s.count[k];
        ratio_sum += static_cast<double>(s.count[k]) * static_cast<double>(v) /
                     static_cast<double>(std::max<Weight>(ref, 1));
      }
    }
  }
  if (wrong > 0) {
    out.fail(std::to_string(wrong) + " served answers differ from st_min_cut",
             wrong);
  }
  layer["input.pair_repeat_share"] =
      1.0 - static_cast<double>(distinct) /
                static_cast<double>(std::max<std::uint64_t>(total, 1));
  return total > 0 ? ratio_sum / static_cast<double>(total) : 0.0;
}

void report_loop(const LoopResult& res, Outcome& out) {
  std::uint64_t hot = 0;
  std::uint64_t answers = 0;
  for (const Client& c : res.clients) {
    hot += c.hot_draws;
    answers += c.answers;
    out.attempted += c.answers;
    if (c.errors > 0) out.fail("client error: " + c.error, c.errors);
  }
  const Client& w = res.clients[kWriter];
  out.attempted += w.calls;
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "closed loop: %llu answers in %.2f s; hot-set share %.3f; "
                "%zu batches (p50 %.3f ms); %zu rebuilds (p50 %.2f ms)",
                static_cast<unsigned long long>(answers), res.elapsed_s,
                static_cast<double>(hot) /
                    static_cast<double>(std::max<std::uint64_t>(answers, 1)),
                res.clients[kBatcher].batch_ms.size(),
                median(res.clients[kBatcher].batch_ms),
                w.rebuild_ms.size(), median(w.rebuild_ms));
  out.note(buf);
  if (res.cpus.empty()) {
    out.note("client threads unpinned: too few CPUs for one each");
  } else {
    std::snprintf(buf, sizeof(buf),
                  "client threads pinned: query on CPU %d, batch on CPU %d, "
                  "writer on CPU %d",
                  res.cpus[kSingle], res.cpus[kBatcher], res.cpus[kWriter]);
    out.note(buf);
  }
}

// Receives the timed loops' results so none of them is optimized away.
volatile std::uint64_t g_sink = 0;

template <class F>
double ns_per_op(std::size_t ops, F&& block) {
  std::vector<double> per;
  for (int rep = 0; rep < 32; ++rep) {
    const auto t0 = Clock::now();
    block();
    per.push_back(static_cast<double>(ns_since(t0)) / static_cast<double>(ops));
  }
  return median(per);
}

// Single-thread layer costs on the server after the loop has stopped.
void layer_costs(Inputs& in, std::uint64_t seed, Tracer& tr,
                 LayerValues& layer) {
  serve::CutServer& server = *in.server;
  Rng rng(splitmix64(seed ^ 0x5717EULL));
  std::vector<serve::QueryPair> stream(4096);
  for (auto& q : stream) q = in.pool[draw(rng)];

  std::uint64_t sink = 0;
  layer["serve.pin_ns"] = ns_per_op(stream.size(), [&] {
    for (std::size_t i = 0; i < stream.size(); ++i) {
      sink += server.snapshot()->epoch();
    }
  });
  const serve::SnapshotPtr snap = server.snapshot();
  layer["serve.walk_ns"] = ns_per_op(stream.size(), [&] {
    for (const auto& q : stream) sink += snap->query(q.s, q.t);
  });
  layer["serve.query_ns"] = ns_per_op(stream.size(), [&] {
    for (const auto& q : stream) sink += server.query(q.s, q.t);
  });
  const std::vector<serve::QueryPair> batch(stream.begin(),
                                            stream.begin() + kBatch);
  layer["serve.batch_answer_ns"] = ns_per_op(kBatch, [&] {
    sink += server.query_batch(batch).front();
  });
  // Tracing overhead: the same block of queries, each in its own span.
  const double traced = ns_per_op(stream.size(), [&] {
    for (const auto& q : stream) {
      ScopedSpan span(&tr, "serve.query", 0, 0);
      sink += server.query(q.s, q.t);
    }
  });
  layer["trace.overhead_ms"] =
      (traced - layer["serve.query_ns"]) * static_cast<double>(stream.size()) *
      1e-6;
  std::vector<double> gh;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = Clock::now();
    sink += build_gomory_hu(in.a).parent.size();
    gh.push_back(ms_since(t0));
  }
  layer["flow.gomory_hu_ms"] = median(gh);
  g_sink = sink;
}

}  // namespace

Outcome run_serve(const RunArgs& args) {
  Outcome out;
  std::vector<double> setup_s;
  std::vector<double> gen_ms;
  std::vector<double> build_ms;
  Inputs in = set_up(args.seed, setup_s, gen_ms, build_ms);
  const TreeDepth depth_a = tree_depth(in.server->snapshot()->tree());

  Tracer tr;
  const LoopResult res =
      closed_loop(in, args.seed, args.seconds, args.trace ? &tr : nullptr);
  const double rss_mb = peak_rss_mb();
  report_loop(res, out);

  LayerValues layer;
  const double ratio = check_answers(in, res, out, layer);
  std::string reps = "setup reps (s):";
  for (const double s : setup_s) reps.append(" ").append(std::to_string(s));
  out.note(reps);
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "input: n=%u m=%zu; Gomory-Hu tree depth mean %.1f max %u; "
                "pair-repeat share %.4f",
                in.a.n, in.a.m(), depth_a.mean, depth_a.max,
                layer["input.pair_repeat_share"]);
  out.note(buf);

  if (!args.trace) {
    std::vector<double> single_ms;
    for (const std::uint32_t ns : res.clients[kSingle].latency_ns) {
      single_ms.push_back(ns * 1e-6);
    }
    EndToEnd e;
    e.setup_s = median(setup_s);
    e.peak_rss_mb = rss_mb;
    e.request_p50_ms = median(single_ms);
    e.request_tail_ms = tail_of(single_ms);
    // The median period, so a burst of host load in a few periods does
    // not move the figure; a run shorter than one period falls back to the
    // whole run.
    std::uint64_t answers = 0;
    for (const Client& c : res.clients) answers += c.answers;
    e.requests_per_s = res.period_answers_per_s.empty()
                           ? static_cast<double>(answers) / res.elapsed_s
                           : median(res.period_answers_per_s);
    e.approx_ratio_mean = ratio;
    out.note(describe(e.request_tail_ms, "single query"));
    char pbuf[160];
    std::snprintf(pbuf, sizeof(pbuf),
                  "single query us: p90 %.3f p99 %.3f p99.9 %.3f p99.99 %.3f",
                  percentile(single_ms, 90) * 1e3,
                  percentile(single_ms, 99) * 1e3,
                  percentile(single_ms, 99.9) * 1e3,
                  percentile(single_ms, 99.99) * 1e3);
    out.note(pbuf);
    emit_end_to_end(out, e);
    return out;
  }

  std::vector<double> batch_ms;
  std::vector<double> rebuild_ms;
  for (const Span& s : tr.spans()) {
    const std::string_view name = s.name;
    if (name == "serve.query_batch") batch_ms.push_back(s.ms());
    if (name == "serve.update_graph") rebuild_ms.push_back(s.ms());
  }
  layer["serve.batch_ms_p50"] = median(batch_ms);
  layer["serve.rebuild_ms_p50"] = median(rebuild_ms);
  layer["serve.build_ms"] = median(build_ms);
  layer["graph.gen_ms"] = median(gen_ms);
  layer["input.tree_depth_mean"] = depth_a.mean;
  layer["input.tree_depth_max"] = depth_a.max;
  layer_costs(in, args.seed, tr, layer);
  layer["trace.spans"] = static_cast<double>(tr.spans().size());
  std::snprintf(buf, sizeof(buf),
                "tracing overhead %.4f ms per %d-query block",
                layer["trace.overhead_ms"], 4096);
  out.note(buf);
  if (!args.trace_out.empty() && !tr.write(args.trace_out)) {
    out.fail("cannot write spans to " + args.trace_out);
  }
  emit_per_layer(out, layer);
  return out;
}

}  // namespace perfbench
