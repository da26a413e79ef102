#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string_view>

#include "workloads.h"

namespace perfbench {

void Outcome::fail(const std::string& why, std::uint64_t n) {
  correct = false;
  failed += n;
  note("FAILED: " + why);
}

namespace {

// Nearest rank of percentile q among n samples, in [1, n]; the epsilon keeps
// q/100 * n from rounding up past an exact integer (p99.9 of 10000 is 9990).
std::size_t rank_of(double q, std::size_t n) {
  const auto r = static_cast<std::size_t>(
      std::ceil(q / 100.0 * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(r, 1, std::max<std::size_t>(n, 1));
}

}  // namespace

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[rank_of(q, v.size()) - 1];
}

double median(std::vector<double> v) { return percentile(std::move(v), 50); }

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

Tail tail_of(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  for (const double pct : {99.0, 90.0, 75.0}) {
    if (v.size() - rank_of(pct, v.size()) >= 10) {
      t.pct = pct;
      break;
    }
  }
  t.beyond = v.empty() ? 0 : v.size() - rank_of(t.pct, v.size());
  t.value = percentile(std::move(v), t.pct);
  return t;
}

std::string describe(const Tail& t, const char* what) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "%s tail: p%g of %zu samples (%zu beyond it)", what, t.pct,
                t.samples, t.beyond);
  return buf;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (const Span& s : spans_) {
    out << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"request\":" << s.request
        << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << "}\n";
  }
  return static_cast<bool>(out);
}

double sum_ms(const std::vector<Span>& spans, const char* name,
              std::uint64_t request) {
  double total = 0;
  for (const Span& s : spans) {
    if (s.request == request && std::string_view(s.name) == name) {
      total += s.ms();
    }
  }
  return total;
}

std::size_t count_spans(const std::vector<Span>& spans, const char* name,
                        std::uint64_t request) {
  return static_cast<std::size_t>(
      std::count_if(spans.begin(), spans.end(), [&](const Span& s) {
        return s.request == request && std::string_view(s.name) == name;
      }));
}

double self_ms(const std::vector<Span>& spans, std::uint64_t id) {
  const auto it = std::find_if(spans.begin(), spans.end(),
                               [&](const Span& s) { return s.id == id; });
  if (it == spans.end()) return 0;
  const Span* self = &*it;
  std::vector<std::pair<std::int64_t, std::int64_t>> kids;
  for (const Span& s : spans) {
    if (s.parent == id) {
      kids.emplace_back(std::max(s.start_ns, self->start_ns),
                        std::min(s.end_ns, self->end_ns));
    }
  }
  std::sort(kids.begin(), kids.end());
  std::int64_t covered = 0;
  std::int64_t reach = self->start_ns;
  for (const auto& [b, e] : kids) {
    const std::int64_t from = std::max(b, reach);
    if (e > from) {
      covered += e - from;
      reach = e;
    }
  }
  return (self->end_ns - self->start_ns - covered) * 1e-6;
}

namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

// The per-layer metrics, in BENCHMARK.json order.
constexpr LayerMetric kPerLayer[] = {
    {"ampc_algo.tracker_ms", "ms"},
    {"ampc_algo.tracker_calls", "count"},
    {"ampc.dht_read_words", "words"},
    {"ampc.dht_write_words", "words"},
    {"ampc.max_machine_traffic", "words"},
    {"ampc.peak_table_words", "words"},
    {"ampc.rounds", "count"},
    {"ampc.charged_rounds", "count"},
    {"ampc.ns_per_round", "ns"},
    {"ampc.budget_violations", "count"},
    {"kcut.component_solves", "count"},
    {"kcut.component_ms_p50", "ms"},
    {"kcut.self_ms", "ms"},
    {"mincut.self_ms", "ms"},
    {"mincut.instances", "count"},
    {"mincut.depth", "count"},
    {"exact.local_ms", "ms"},
    {"exact.local_solves", "count"},
    {"support.speedup_vs_1thread", "x"},
    {"mpc.solve_ms", "ms"},
    {"mpc.rounds", "count"},
    {"mpc.messages", "words"},
    {"serve.pin_ns", "ns"},
    {"serve.walk_ns", "ns"},
    {"serve.query_ns", "ns"},
    {"serve.batch_answer_ns", "ns"},
    {"serve.batch_ms_p50", "ms"},
    {"serve.rebuild_ms_p50", "ms"},
    {"serve.build_ms", "ms"},
    {"flow.gomory_hu_ms", "ms"},
    {"flow.st_min_cut_us", "us"},
    {"graph.gen_ms", "ms"},
    {"kernel.reference_ms", "ms"},
    {"input.pair_repeat_share", "ratio"},
    {"input.tree_depth_mean", "count"},
    {"input.tree_depth_max", "count"},
    {"trace.overhead_ms", "ms"},
    {"trace.spans", "count"},
};

}  // namespace

void emit_per_layer(Outcome& out, const LayerValues& values) {
  for (const LayerMetric& m : kPerLayer) {
    const auto it = values.find(m.name);
    out.metric(m.name, it == values.end() ? 0.0 : it->second, m.unit);
  }
  for (const auto& [name, value] : values) {
    const bool known = std::any_of(
        std::begin(kPerLayer), std::end(kPerLayer),
        [&](const LayerMetric& m) { return name == m.name; });
    if (!known) out.fail("unlisted per-layer metric " + name);
  }
}

void emit_end_to_end(Outcome& out, const EndToEnd& e) {
  out.metric("setup_s", e.setup_s, "s");
  out.metric("peak_rss_mb", e.peak_rss_mb, "MB");
  out.metric("request_p50_ms", e.request_p50_ms, "ms");
  out.metric("request_tail_ms", e.request_tail_ms.value, "ms");
  out.metric("requests_per_s", e.requests_per_s, "1/s");
  out.metric("approx_ratio_mean", e.approx_ratio_mean, "ratio");
}

}  // namespace perfbench
