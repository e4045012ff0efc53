// Shared pieces of the benchmark program: run options, the result every
// workload fills, the metric tables, small statistics helpers, and the span
// recorder the traced run keeps.
//
// The benchmark measures each layer from outside: it times its own calls into
// the library's public functions and reads what those functions already
// return (executed Timelines, memory stats, MultiprocResult,
// ServingReport). Nothing here reaches into the library's internals.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/trace/timeline.h"

namespace perfbench {

// Steady-clock seconds (same clock as pf::now_seconds, so serving
// timestamps and benchmark timestamps compare directly).
double now_s();

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // The traced run writes its Chrome trace here.
  std::string trace_path;
};

// What one run reports. Metric values are keyed by name; units live in the
// metric tables below.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;

  // A failed output check: `ops` operations count as failed and the run
  // is no longer correct. The reason goes to stderr.
  void fail_check(const std::string& what, std::uint64_t ops);
};

struct MetricDef {
  const char* name;
  const char* unit;
};
// Printed by untraced runs (--trace 0).
const std::vector<MetricDef>& end_to_end_metrics();
// Printed by traced runs (--trace 1). A layer a workload does not exercise
// reads 0 (README lists which workloads each metric applies to).
const std::vector<MetricDef>& per_layer_metrics();

// Prints the final result line: one JSON object with correct, attempted,
// failed and the metrics of the run's mode. Throws if an end-to-end metric
// is missing or a metric is not finite (a bug in the benchmark, not a measurement).
void print_result(const Result& r, bool trace);

// Runs `round` at least once and then until `seconds` have passed since
// the call: a run always measures whole rounds.
template <typename Fn>
void for_rounds(double seconds, Fn&& round) {
  const double deadline = now_s() + seconds;
  do round();
  while (now_s() < deadline);
}

// --- Statistics -----------------------------------------------------------
double mean(const std::vector<double>& xs);
// Nearest-rank median (pf::percentile_nearest_rank at 50).
double median(std::vector<double> xs);

// Timed samples in windows of consecutive operations, for the timed
// end-to-end metrics. The CPU time a shared host takes from its guests
// changes from one second to the next, and it slows a pipeline by more than
// its share, since every stage waits for a stalled one. No window runs
// faster than the program allows, so each timed metric is the statistic of
// the window the host disturbed least: the lowest window median, the
// lowest window 75th percentile (nearest rank), the highest rate. A slower
// program moves every window. Where windows differ by their inputs, not
// only by the host (serving: each window holds other arrivals), the lowest
// window picks an input, and the lower quartile over windows is steadier.
struct WindowStats {
  std::vector<double> p50, p75;  // per window, seconds
  std::vector<double> rate;      // per window or round: work per second

  // One window's samples, in seconds.
  void add(std::vector<double> samples);
  double best_p50() const;
  double best_tail() const;
  double best_rate() const;
  double low_quartile_p50() const;
  double low_quartile_tail() const;
};

// Peak resident set size in MiB of this process / of the largest waited-for
// child process.
double peak_rss_mb_self();
double peak_rss_mb_children();

// --- Per-layer totals read off executed Timelines --------------------------
// Sums interval durations by layer over every timeline added (one per
// training step or serving run). All times in seconds.
struct TimelineTotals {
  std::size_t timelines = 0;
  double fwd = 0.0, bwd = 0.0;           // nn forward / backward (B + W)
  double curv = 0.0, inv = 0.0, precond = 0.0;  // kfac
  double optim = 0.0;                    // optimizer updates
  double admit = 0.0;                    // serving admission
  double idle_share = 0.0;  // sum over timelines of mean-over-lanes idle share
  double kfac_tail = 0.0;   // sum over timelines of makespan - last backward end

  void add(const pf::Timeline& tl);
};

// --- Span recorder --------------------------------------------------------
// Keeps spans (name, start, end, parent, run id) in memory around the
// benchmark's calls into the library, and merges executed Timelines into the
// time window of the span that produced them. write() emits one Chrome
// trace: the merged Timeline through pf::to_chrome_trace_json (pid 0, one
// track per lane) followed by the spans (pid 1). Spans open and close on
// the benchmark's main thread; other threads hand finished spans to add()
// after they are joined. A disabled recorder records nothing.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled);
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  bool enabled() const { return enabled_; }

  class Scope {
   public:
    Scope(SpanRecorder& rec, const char* name, int run);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    // Start of this span in steady-clock seconds.
    double start() const { return start_; }

   private:
    SpanRecorder& rec_;
    int index_ = -1;
    double start_ = 0.0;
  };

  // A finished span, a child of the innermost open span; times in
  // steady-clock seconds.
  void add(const std::string& name, double start, double end, int run);
  // Merges `tl`, whose times are seconds since `origin` (steady clock),
  // into the trace.
  void merge_timeline(const pf::Timeline& tl, double origin);
  void write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    double start = 0.0, end = 0.0;
    int parent = -1, run = -1;
  };
  bool enabled_;
  double origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  pf::Timeline merged_;
  bool have_merged_ = false;
};

}  // namespace perfbench
