#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "src/common/check.h"
#include "src/common/strings.h"
#include "src/serve/serving_engine.h"
#include "src/trace/chrome_trace.h"

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Result::fail_check(const std::string& what, std::uint64_t ops) {
  correct = false;
  failed += ops;
  std::fprintf(stderr, "perfbench: check failed: %s (%llu operations)\n",
               what.c_str(), static_cast<unsigned long long>(ops));
}

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"latency_ms_p50", "ms"},
      {"latency_ms_tail", "ms"},
      {"throughput_per_s", "1/s"},
      {"loss_end", "nats"},
      {"peak_rss_mb", "MB"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"nn.fwd_ms", "ms"},
      {"nn.bwd_ms", "ms"},
      {"kfac.curv_ms", "ms"},
      {"kfac.inv_ms", "ms"},
      {"kfac.precond_ms", "ms"},
      {"optim.update_ms", "ms"},
      {"pipeline.idle_share", "ratio"},
      {"pipeline.kfac_tail_ms", "ms"},
      {"nn.peak_stash_mb", "MB"},
      {"common.arena_fresh_per_step", "count"},
      {"comm.inproc_handoff_us", "us"},
      {"comm.shm_handoff_us", "us"},
      {"comm.blocked_waits_per_step", "count"},
      {"comm.blocked_wait_ms_per_step", "ms"},
      {"train.fork_join_ms", "ms"},
      {"serve.admit_ms_per_micro", "ms"},
      {"serve.batch_fill", "ratio"},
      {"serve.queue_ms_p50", "ms"},
      {"serve.service_ms_p50", "ms"},
      {"serve.open_ms_p90", "ms"},
      {"bench.gen_lag_ms_max", "ms"},
      {"linalg.gemm_gflops", "GFLOP/s"},
      {"linalg.cholesky_ms", "ms"},
      {"data.batch_ms", "ms"},
      {"bench.trace_overhead", "ratio"},
  };
  return defs;
}

void print_result(const Result& r, bool trace) {
  std::string metrics;
  for (const MetricDef& d : trace ? per_layer_metrics() : end_to_end_metrics()) {
    const auto it = r.metrics.find(d.name);
    if (it == r.metrics.end() && !trace)
      throw std::logic_error(std::string("end-to-end metric not measured: ") +
                             d.name);
    const double v = it == r.metrics.end() ? 0.0 : it->second;
    if (!std::isfinite(v))
      throw std::logic_error(std::string("metric is not a finite number: ") + d.name);
    if (!metrics.empty()) metrics += ", ";
    metrics += pf::format("\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                          d.name, v, d.unit);
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      r.correct ? "true" : "false",
      static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.failed), metrics.c_str());
  std::fflush(stdout);
}

double mean(const std::vector<double>& xs) {
  PF_CHECK(!xs.empty()) << "mean of an empty sample";
  double s = 0.0;
  for (const double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double median(std::vector<double> xs) {
  return pf::percentile_nearest_rank(std::move(xs), 50.0);
}

void WindowStats::add(std::vector<double> samples) {
  PF_CHECK(!samples.empty()) << "a window without timed samples";
  p50.push_back(pf::percentile_nearest_rank(samples, 50.0));
  p75.push_back(pf::percentile_nearest_rank(std::move(samples), 75.0));
}

double WindowStats::best_p50() const { return std::ranges::min(p50); }
double WindowStats::best_tail() const { return std::ranges::min(p75); }
double WindowStats::best_rate() const { return std::ranges::max(rate); }
double WindowStats::low_quartile_p50() const {
  return pf::percentile_nearest_rank(p50, 25.0);
}
double WindowStats::low_quartile_tail() const {
  return pf::percentile_nearest_rank(p75, 25.0);
}

namespace {
double maxrss_mb(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}
}  // namespace

double peak_rss_mb_self() { return maxrss_mb(RUSAGE_SELF); }
double peak_rss_mb_children() { return maxrss_mb(RUSAGE_CHILDREN); }

void TimelineTotals::add(const pf::Timeline& tl) {
  using pf::WorkKind;
  const double makespan = tl.makespan();
  double last_bwd = 0.0, idle = 0.0;
  for (std::size_t d = 0; d < tl.n_devices(); ++d) {
    double busy = 0.0;
    for (const pf::Interval& iv : tl.device_intervals(d)) {
      const double t = iv.duration();
      if (pf::counts_as_busy(iv.kind)) busy += t;
      switch (iv.kind) {
        case WorkKind::kForward: fwd += t; break;
        case WorkKind::kBackward:
        case WorkKind::kBackwardWeight:
          bwd += t;
          last_bwd = std::max(last_bwd, iv.end);
          break;
        case WorkKind::kCurvatureA:
        case WorkKind::kCurvatureB:
        case WorkKind::kSyncCurvature: curv += t; break;
        case WorkKind::kInversionA:
        case WorkKind::kInversionB: inv += t; break;
        case WorkKind::kPrecondition: precond += t; break;
        case WorkKind::kOptimizerUpdate: optim += t; break;
        case WorkKind::kAdmission: admit += t; break;
        default: break;
      }
    }
    if (makespan > 0.0) idle += 1.0 - busy / makespan;
  }
  if (tl.n_devices() > 0) idle_share += idle / static_cast<double>(tl.n_devices());
  if (last_bwd > 0.0) kfac_tail += makespan - last_bwd;
  ++timelines;
}

SpanRecorder::SpanRecorder(bool enabled) : enabled_(enabled), origin_(now_s()) {}

SpanRecorder::Scope::Scope(SpanRecorder& rec, const char* name, int run)
    : rec_(rec), start_(now_s()) {
  if (!rec_.enabled_) return;
  index_ = static_cast<int>(rec_.spans_.size());
  rec_.spans_.push_back(
      Span{name, start_, start_, rec_.open_.empty() ? -1 : rec_.open_.back(), run});
  rec_.open_.push_back(index_);
}

SpanRecorder::Scope::~Scope() {
  if (index_ < 0) return;
  rec_.spans_[static_cast<std::size_t>(index_)].end = now_s();
  rec_.open_.pop_back();
}

void SpanRecorder::add(const std::string& name, double start, double end,
                       int run) {
  if (!enabled_) return;
  spans_.push_back(Span{name, start, end, open_.empty() ? -1 : open_.back(), run});
}

void SpanRecorder::merge_timeline(const pf::Timeline& tl, double origin) {
  if (!enabled_) return;
  if (!have_merged_) {
    merged_ = pf::Timeline(tl.n_devices());
    have_merged_ = true;
  }
  merged_.append_shifted(tl, origin - origin_);
}

void SpanRecorder::write(const std::string& path) const {
  if (!enabled_) return;
  // to_chrome_trace_json emits "[\n<events>\n]\n"; splice the spans in
  // before the closing bracket so the file stays one JSON array.
  std::string out = pf::to_chrome_trace_json(merged_);
  const std::size_t close = out.rfind(']');
  PF_CHECK(close != std::string::npos);
  out.resize(close);
  while (!out.empty() && out.back() == '\n') out.pop_back();
  bool first = merged_.all_intervals().empty();
  auto event = [&](const std::string& e) {
    out += first ? "\n  " : ",\n  ";
    first = false;
    out += e;
  };
  event(R"({"name":"process_name","ph":"M","pid":0,"args":{"name":"executed timeline"}})");
  event(R"({"name":"process_name","ph":"M","pid":1,"args":{"name":"benchmark spans"}})");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    event(pf::format(
        "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":%.3f,"
        "\"dur\":%.3f,\"args\":{\"span\":%zu,\"parent\":%d,\"run\":%d}}",
        s.name.c_str(), (s.start - origin_) * 1e6, (s.end - s.start) * 1e6, i,
        s.parent, s.run));
  }
  out += "\n]\n";
  std::ofstream f(path);
  PF_CHECK(f.good()) << "cannot open " << path;
  f << out;
  PF_CHECK(f.good()) << "write failed for " << path;
}

}  // namespace perfbench
