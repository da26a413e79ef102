// Shared pieces of the repo benchmark: run arguments, the result record the
// measuring process prints, order statistics, peak RSS, and the in-memory
// span tracer used by traced runs.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;  // where a traced run writes its spans ("" = none)
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// What one benchmark process reports. Info lines are printed before the
// final JSON line (input properties, which tail percentile was used, ...).
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> info;

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string line) { info.push_back(std::move(line)); }
  // A failed correctness gate: counts `n` failed operations.
  void fail(const std::string& why, std::uint64_t n = 1);
};

// Nearest-rank percentile (q in [0, 100]) of an unsorted sample.
double percentile(std::vector<double> v, double q);
double median(std::vector<double> v);
double mean(const std::vector<double>& v);

// The highest of p75/p90/p99 that leaves at least ten samples beyond it.
// With fewer than 40 samples none qualifies and p75 is used; `beyond` then
// says how thin the estimate is. p99.9 is not a candidate: on a small VM it
// tracks the hypervisor's wake-up latency rather than the program (see
// perfbench/README.md).
struct Tail {
  double value = 0;
  double pct = 75;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};
Tail tail_of(std::vector<double> v);
std::string describe(const Tail& t, const char* what);

double peak_rss_mb();

// Spans of a traced run, kept in memory and written out at the end. Every
// span names its parent and the request (one solve, one client call) it
// belongs to; ids start at 1, parent 0 means a root span, request 0 makes
// the span its own request. Thread-safe: the recursion drivers close spans
// from pool threads.
struct Span {
  const char* name = "";  // static string
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t request = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;

  [[nodiscard]] double ms() const { return (end_ns - start_ns) * 1e-6; }
};

class Tracer {
 public:
  Tracer() : epoch_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  std::uint64_t next_id() { return next_id_.fetch_add(1) + 1; }
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }
  void record(const Span& s) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(s);
  }
  // Not concurrent with record().
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  // One JSON object per line; returns false if the file cannot be written.
  bool write(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  std::atomic<std::uint64_t> next_id_{0};
  std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

// RAII span. A null tracer records nothing and costs one branch.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tr, const char* name, std::uint64_t parent,
             std::uint64_t request)
      : tr_(tr) {
    if (tr_ == nullptr) return;
    span_.name = name;
    span_.id = tr_->next_id();
    span_.parent = parent;
    span_.request = request == 0 ? span_.id : request;
    span_.start_ns = tr_->now_ns();
  }
  ~ScopedSpan() {
    if (tr_ == nullptr) return;
    span_.end_ns = tr_->now_ns();
    tr_->record(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::uint64_t id() const { return span_.id; }
  [[nodiscard]] std::uint64_t request() const { return span_.request; }

 private:
  Tracer* tr_;
  Span span_;
};

// Span analysis over one trace.
// Sum of durations (ms) of spans named `name` that belong to `request`.
double sum_ms(const std::vector<Span>& spans, const char* name,
              std::uint64_t request);
std::size_t count_spans(const std::vector<Span>& spans, const char* name,
                        std::uint64_t request);
// Self time (ms) of span `id`: its duration minus the part of its interval
// covered by the union of its children's intervals.
double self_ms(const std::vector<Span>& spans, std::uint64_t id);

}  // namespace perfbench
