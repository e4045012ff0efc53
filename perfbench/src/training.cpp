// The two training workloads and the reference mode.
//
//   pipefisher_kfac  in-process PipelineRuntime, 1f1b, 4 stages × 8 micros of
//                    8 sequences, d_model 64 / d_ff 128, K-FAC (curvature
//                    every step, inversion every third) over LAMB, 3 pool
//                    workers + the caller.
//   lamb_forked      run_multiproc, 1f1b, 2 processes × 1 thread, LAMB only,
//                    d_model 32 / d_ff 64, 16 micros of 2 sequences.
//
// A round is one fixed-length training run from the seeded initialization:
// in-process (pipefisher_kfac) or one run_multiproc call (lamb_forked); a
// run repeats whole rounds until its measuring time is spent. Every round's
// losses (and, forked, its parameters) must equal the first one's bit for
// bit. pipefisher_kfac's timed metrics are those of its best window of six
// consecutive steps (WindowStats); lamb_forked's are the median and 75th
// percentile over its calls of the mean step time.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/strings.h"
#include "src/optim/kfac_optimizer.h"
#include "src/optim/lamb.h"
#include "src/serve/serving_engine.h"
#include "src/train/multiproc.h"
#include "src/train/pipeline_runtime.h"
#include "src/train/trainer.h"
#include "workloads.h"

namespace perfbench {

pf::BertConfig base_model(std::size_t d_model, std::size_t d_ff) {
  pf::BertConfig cfg;
  cfg.vocab = 48;
  cfg.d_model = d_model;
  cfg.d_ff = d_ff;
  cfg.n_heads = 4;
  cfg.n_layers = 4;
  cfg.seq_len = 32;
  return cfg;
}

Seeds::Seeds(std::uint64_t seed)
    : corpus(pf::derive_stream_seed(seed, 1, 0)),
      model(pf::derive_stream_seed(seed, 2, 0)),
      data(pf::derive_stream_seed(seed, 3, 0)),
      requests(pf::derive_stream_seed(seed, 4, 0)) {}

Data::Data(const Seeds& seeds, const pf::BertConfig& m)
    : corpus(pf::CorpusConfig{.vocab = m.vocab, .seed = seeds.corpus}),
      batcher(corpus, pf::MlmBatcherConfig{.seq_len = m.seq_len}) {}

namespace {

struct TrainShape {
  std::size_t d_model, d_ff;
  int stages, micros;
  std::size_t micro_batch;
  std::size_t steps;  // steps per round
  int workers;        // in-process pool workers
  bool kfac;
  std::size_t sequences_per_step() const {
    return static_cast<std::size_t>(micros) * micro_batch;
  }
};

constexpr TrainShape kKfacShape{64, 128, 4, 8, 8, 32, 3, true};
// Two processes, not one per block: with four spinning ring consumers on a
// 4-vCPU host, the step time swung from 27 to 72 ms with the CPU time the
// host took (run-to-run spread 47%); two processes spread 6% under the same
// load.
constexpr TrainShape kForkedShape{32, 64, 2, 16, 2, 16, 1, false};

// Losses are averaged over this many steps at each end of a round.
constexpr std::size_t kLossWindow = 8;
// Timed pipefisher_kfac steps per window: two inversion periods (a round's
// 31 timed steps make five windows).
constexpr std::size_t kWindowSteps = 6;
// Steps of the serial Trainer compared with the runtime's first steps.
constexpr std::size_t kSerialSteps = 4;

pf::PipelineRuntimeConfig runtime_config(const TrainShape& s, const Seeds& seeds) {
  pf::PipelineRuntimeConfig pc;
  pc.schedule = "1f1b";
  pc.n_stages = s.stages;
  pc.n_micro = s.micros;
  pc.micro_batch_size = s.micro_batch;
  pc.total_steps = s.steps;
  pc.lr = pf::PolyWarmupSchedule(1e-2, 0, s.steps);
  pc.data_seed = seeds.data;
  pc.stage_threads = 1;
  pc.workers = s.workers;
  pc.use_kfac = s.kfac;
  pc.kfac.curvature_interval = 1;
  pc.kfac.inverse_interval = 3;
  pc.transport = "inproc";
  return pc;
}

// Properties a fixed-length run's loss curve must have, whatever the seed:
// finite; step 0 near the loss of a uniform prediction over the vocabulary
// and the two NSP classes; smoothed loss lower at the end than at the start.
// Returns the violated property, or "" when all hold.
std::string loss_curve_problem(const std::vector<double>& loss, std::size_t vocab) {
  for (const double l : loss)
    if (!std::isfinite(l)) return "non-finite loss";
  const double uniform = std::log(static_cast<double>(vocab)) + std::log(2.0);
  if (std::abs(loss.front() - uniform) > 0.02 * uniform)
    return pf::format("step-0 loss %.6f is not within 2%% of %.6f", loss.front(),
                      uniform);
  const std::vector<double> head(loss.begin(), loss.begin() + kLossWindow);
  const std::vector<double> tail_w(loss.end() - kLossWindow, loss.end());
  if (!(mean(tail_w) < mean(head)))
    return pf::format("smoothed loss did not fall (%.6f -> %.6f)", mean(head),
                      mean(tail_w));
  return "";
}

double loss_end(const std::vector<double>& loss) {
  return mean(std::vector<double>(loss.end() - kLossWindow, loss.end()));
}

// Per-step timeline and memory accounting of the traced phase.
struct StepLayers {
  TimelineTotals totals;
  double peak_stash_mb = 0.0;
  double arena_fresh = 0.0;

  void add(const pf::PipelineRuntime& rt) {
    totals.add(rt.last_executed_timeline());
    double stash = 0.0;
    for (const auto& m : rt.memory_stats()) {
      stash += static_cast<double>(m.peak_stash_bytes);
      arena_fresh += static_cast<double>(m.arena_fresh);
    }
    peak_stash_mb = std::max(peak_stash_mb, stash / (1024.0 * 1024.0));
  }

  void report(Result& r) const {
    const double n = static_cast<double>(std::max<std::size_t>(1, totals.timelines));
    r.metrics["nn.fwd_ms"] = totals.fwd / n * 1e3;
    r.metrics["nn.bwd_ms"] = totals.bwd / n * 1e3;
    r.metrics["kfac.curv_ms"] = totals.curv / n * 1e3;
    r.metrics["kfac.inv_ms"] = totals.inv / n * 1e3;
    r.metrics["kfac.precond_ms"] = totals.precond / n * 1e3;
    r.metrics["optim.update_ms"] = totals.optim / n * 1e3;
    r.metrics["pipeline.idle_share"] = totals.idle_share / n;
    r.metrics["pipeline.kfac_tail_ms"] = totals.kfac_tail / n * 1e3;
    r.metrics["nn.peak_stash_mb"] = peak_stash_mb;
    r.metrics["common.arena_fresh_per_step"] = arena_fresh / n;
  }
};

// One step under a span; in the traced phase its timeline and memory
// stats are read off the runtime and merged into the trace.
double traced_step(pf::PipelineRuntime& rt, SpanRecorder& spans, int run,
                   StepLayers* layers) {
  SpanRecorder::Scope span(spans, "step", run);
  const double loss = rt.step().total;
  if (layers != nullptr) {
    layers->add(rt);
    spans.merge_timeline(rt.last_executed_timeline(), span.start());
  }
  return loss;
}

// The serial Trainer at a training shape — K-FAC with per-micro curvature
// over LAMB, accumulating the shape's micro-batches: the reference the
// repo's tests compare the runtime against.
std::unique_ptr<pf::Trainer> serial_trainer(pf::BertModel& model, const Data& data,
                                            const TrainShape& shape, const Seeds& seeds) {
  const pf::PipelineRuntimeConfig pc = runtime_config(shape, seeds);
  pf::TrainerConfig tc;
  tc.batch_size = shape.micro_batch;
  tc.accumulation_steps = static_cast<std::size_t>(shape.micros);
  tc.total_steps = shape.steps;
  tc.schedule = pc.lr;
  tc.data_seed = seeds.data;
  pf::KfacOptimizerOptions ko = pc.kfac;
  ko.per_micro_curvature = true;
  return std::make_unique<pf::Trainer>(
      model, data.batcher,
      std::make_unique<pf::KfacOptimizer>(model.kfac_linears(),
                                          std::make_unique<pf::Lamb>(), ko),
      tc);
}

// Pins the calling thread, and the processes it forks from then on, to the
// last `n` CPUs it may run on; restores its CPU set when destroyed. Without
// it, a forked child's vCPU idles whenever the child parks on a ring wait,
// and waking an idle vCPU of a virtual machine is slow at times: on a quiet
// 4-vCPU VM the median lamb_forked call spread 0.05-0.07 across runs
// unpinned, 0.015 pinned.
class CpuPin {
 public:
  explicit CpuPin(int n) {
    if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
    cpu_set_t want;
    CPU_ZERO(&want);
    int taken = 0;
    for (int c = CPU_SETSIZE - 1; c >= 0 && taken < n; --c)
      if (CPU_ISSET(c, &saved_)) {
        CPU_SET(c, &want);
        ++taken;
      }
    pinned_ = taken == n && sched_setaffinity(0, sizeof(want), &want) == 0;
  }
  ~CpuPin() {
    if (pinned_) sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

std::vector<std::vector<double>> param_values(pf::BertModel& model) {
  std::vector<std::vector<double>> out;
  for (pf::Param* p : model.params())
    out.emplace_back(p->w.data(), p->w.data() + p->w.size());
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// pipefisher_kfac

Result run_pipefisher_kfac(const Options& opt) {
  const TrainShape& shape = kKfacShape;
  const Seeds seeds(opt.seed);
  const pf::BertConfig mcfg = base_model(shape.d_model, shape.d_ff);
  const Data data(seeds, mcfg);
  const pf::PipelineRuntimeConfig pc = runtime_config(shape, seeds);

  Result r;
  SpanRecorder spans(opt.trace), off(false);
  std::vector<double> first_loss;  // round 0, the reference for later rounds
  int run = 0;

  struct Phase {
    std::vector<double> setup;
    WindowStats steps;
    StepLayers layers;
  };
  auto measure = [&](double seconds, SpanRecorder& rec, Phase& ph) {
    for_rounds(seconds, [&] {
      SpanRecorder::Scope round(rec, "round", run);
      std::vector<double> loss;
      const double t0 = now_s();
      std::unique_ptr<pf::BertModel> model;
      std::unique_ptr<pf::PipelineRuntime> rt;
      {
        SpanRecorder::Scope setup(rec, "setup", run);
        {
          SpanRecorder::Scope s(rec, "model_build", run);
          pf::Rng init(seeds.model);
          model = std::make_unique<pf::BertModel>(mcfg, init);
        }
        {
          SpanRecorder::Scope s(rec, "runtime_construct", run);
          rt = std::make_unique<pf::PipelineRuntime>(*model, data.batcher, pc);
        }
        loss.push_back(traced_step(*rt, rec, run, rec.enabled() ? &ph.layers : nullptr));
      }
      ph.setup.push_back(now_s() - t0);
      std::vector<double> step;
      for (std::size_t k = 1; k < shape.steps; ++k) {
        const double ts = now_s();
        loss.push_back(traced_step(*rt, rec, run, rec.enabled() ? &ph.layers : nullptr));
        step.push_back(now_s() - ts);
      }
      // Windows of kWindowSteps timed steps, each holding the same number
      // of inversion steps; the round's last step is in none.
      for (std::size_t w = 0; w + kWindowSteps <= step.size(); w += kWindowSteps) {
        const std::vector<double> win(step.begin() + w, step.begin() + w + kWindowSteps);
        double busy = 0.0;
        for (const double t : win) busy += t;
        ph.steps.rate.push_back(
            static_cast<double>(kWindowSteps * shape.sequences_per_step()) / busy);
        ph.steps.add(win);
      }
      r.attempted += shape.steps;
      if (first_loss.empty()) first_loss = loss;
      const std::string problem = loss_curve_problem(loss, mcfg.vocab);
      if (!problem.empty())
        r.fail_check(pf::format("pipefisher_kfac round %d: ", run) + problem, shape.steps);
      else if (loss != first_loss)
        r.fail_check(pf::format("pipefisher_kfac round %d losses differ from round 0", run),
                     shape.steps);
      ++run;
    });
  };
  Phase main_phase, traced_phase;
  measure(opt.trace ? opt.seconds / 2 : opt.seconds, off, main_phase);
  if (opt.trace) measure(opt.seconds / 2, spans, traced_phase);
  r.metrics["peak_rss_mb"] = peak_rss_mb_self();
  r.metrics["setup_s"] = std::ranges::min(main_phase.setup);
  r.metrics["latency_ms_p50"] = main_phase.steps.best_p50() * 1e3;
  r.metrics["latency_ms_tail"] = main_phase.steps.best_tail() * 1e3;
  r.metrics["throughput_per_s"] = main_phase.steps.best_rate();
  r.metrics["loss_end"] = loss_end(first_loss);

  // Probes first: the serial Trainer's KfacOptimizer starts the library's
  // global thread pool, which would otherwise idle beside the probe threads.
  run_probes(mcfg, shape.micro_batch, data.batcher, seeds.data, spans, r);
  // The serial Trainer — the reference the repo's own tests compare the
  // runtime against — must reproduce the first steps bit for bit.
  {
    SpanRecorder::Scope span(spans, "serial_trainer_check", -1);
    pf::Rng init(seeds.model);
    pf::BertModel model(mcfg, init);
    const auto trainer = serial_trainer(model, data, shape, seeds);
    for (std::size_t k = 0; k < kSerialSteps; ++k)
      if (trainer->step().total != first_loss[k]) {
        r.fail_check(pf::format("pipefisher_kfac step %zu differs from the serial "
                                "Trainer", k),
                     r.attempted - r.failed);
        break;
      }
  }
  if (opt.trace) {
    traced_phase.layers.report(r);
    r.metrics["bench.trace_overhead"] =
        traced_phase.steps.best_rate() / main_phase.steps.best_rate();
    spans.write(opt.trace_path);
  }
  return r;
}

// ---------------------------------------------------------------------------
// lamb_forked

Result run_lamb_forked(const Options& opt) {
  const TrainShape& shape = kForkedShape;
  const Seeds seeds(opt.seed);
  const pf::BertConfig mcfg = base_model(shape.d_model, shape.d_ff);
  const Data data(seeds, mcfg);
  pf::MultiprocConfig mc;
  mc.runtime = runtime_config(shape, seeds);
  mc.channel_timeout_seconds = 60.0;

  Result r;
  SpanRecorder spans(opt.trace), off(false);
  pf::MultiprocResult first;  // call 0, the reference for later calls
  int run = 0;

  struct Phase {
    std::vector<double> setup, fork_join;
    std::vector<double> per_step;  // each call's wall_seconds / steps
    double blocked_waits = 0.0, blocked_wait_s = 0.0;
    std::size_t steps = 0;
    // Sequences per second at the median call.
    double rate(const TrainShape& s) const {
      return static_cast<double>(s.sequences_per_step()) / median(per_step);
    }
  };
  // A forked call's speed changes from call to call within a run (its
  // children's ring waits either catch the peer spinning or park and pay a
  // vCPU wake-up): on a quiet host, 28-53 ms per step. The lowest of a run's
  // calls or rounds then spread 0.1-0.2 across runs, the median call less.
  auto call = [&](SpanRecorder& rec, Phase& ph) {
    const double t0 = now_s();
    std::unique_ptr<pf::BertModel> model;
    {
      SpanRecorder::Scope s(rec, "model_build", run);
      pf::Rng init(seeds.model);
      model = std::make_unique<pf::BertModel>(mcfg, init);
    }
    const double t1 = now_s();
    pf::MultiprocResult res;
    {
      SpanRecorder::Scope s(rec, "run_multiproc", run);
      std::fflush(nullptr);  // children must not inherit unflushed output
      res = pf::run_multiproc(*model, data.batcher, mc);
    }
    const double call_s = now_s() - t1;
    ph.fork_join.push_back(call_s - res.wall_seconds);
    ph.setup.push_back((t1 - t0) + (call_s - res.wall_seconds));
    ph.steps += shape.steps;
    for (const auto& h : res.handoff) {
      ph.blocked_waits += static_cast<double>(h.waits);
      ph.blocked_wait_s += static_cast<double>(h.waits) * h.wait_mean;
    }
    ph.per_step.push_back(res.wall_seconds / static_cast<double>(shape.steps));
    r.attempted += 1;
    if (first.trace.loss.empty()) first = res;
    const std::string problem = loss_curve_problem(res.trace.loss, mcfg.vocab);
    if (!problem.empty())
      r.fail_check(pf::format("lamb_forked call %d: ", run) + problem, 1);
    else if (res.trace.loss != first.trace.loss || res.params != first.params)
      r.fail_check(pf::format("lamb_forked call %d differs from call 0", run), 1);
    ++run;
  };
  auto measure = [&](double seconds, SpanRecorder& rec, Phase& ph) {
    const CpuPin pin(shape.stages);  // one vCPU per child process
    for_rounds(seconds, [&] {
      SpanRecorder::Scope round(rec, "round", run);
      call(rec, ph);
    });
  };

  Phase main_phase, traced_phase;
  measure(opt.trace ? opt.seconds / 2 : opt.seconds, off, main_phase);
  if (opt.trace) measure(opt.seconds / 2, spans, traced_phase);
  r.metrics["peak_rss_mb"] = peak_rss_mb_children();
  r.metrics["setup_s"] = std::ranges::min(main_phase.setup);
  r.metrics["latency_ms_p50"] = median(main_phase.per_step) * 1e3;
  r.metrics["latency_ms_tail"] =
      pf::percentile_nearest_rank(main_phase.per_step, 75.0) * 1e3;
  r.metrics["throughput_per_s"] = main_phase.rate(shape);
  r.metrics["loss_end"] = loss_end(first.trace.loss);

  // The in-process runtime at the same shape must produce the same losses
  // and parameters. Forked children expose no timeline, so the traced run
  // reads the nn and optimizer layers off this run's step timelines.
  {
    SpanRecorder::Scope span(spans, "inprocess_check", -1);
    pf::Rng init(seeds.model);
    pf::BertModel model(mcfg, init);
    pf::PipelineRuntime rt(model, data.batcher, mc.runtime);
    StepLayers layers;
    std::vector<double> loss;
    for (std::size_t k = 0; k < shape.steps; ++k)
      loss.push_back(traced_step(rt, spans, -1, opt.trace ? &layers : nullptr));
    if (loss != first.trace.loss || param_values(model) != first.params)
      r.fail_check("lamb_forked differs from the in-process runtime at the same shape",
                   r.attempted - r.failed);
    if (opt.trace) layers.report(r);
  }
  run_probes(mcfg, shape.micro_batch, data.batcher, seeds.data, spans, r);
  if (opt.trace) {
    const double steps = static_cast<double>(traced_phase.steps);
    r.metrics["comm.blocked_waits_per_step"] = traced_phase.blocked_waits / steps;
    r.metrics["comm.blocked_wait_ms_per_step"] = traced_phase.blocked_wait_s / steps * 1e3;
    r.metrics["train.fork_join_ms"] = median(traced_phase.fork_join) * 1e3;
    r.metrics["bench.trace_overhead"] = traced_phase.rate(shape) / main_phase.rate(shape);
    spans.write(opt.trace_path);
  }
  return r;
}

// ---------------------------------------------------------------------------
// Reference figures

int run_reference(std::uint64_t seed) {
  const TrainShape& shape = kKfacShape;
  const Seeds seeds(seed);
  const pf::BertConfig mcfg = base_model(shape.d_model, shape.d_ff);
  const Data data(seeds, mcfg);
  std::printf("reference figures, seed %llu, pipefisher_kfac shape (%zu steps)\n",
              static_cast<unsigned long long>(seed), shape.steps);

  {
    pf::Rng init(seeds.model);
    pf::BertModel model(mcfg, init);
    const auto trainer = serial_trainer(model, data, shape, seeds);
    std::vector<double> ts;
    for (std::size_t k = 0; k < kSerialSteps * 2; ++k) {
      const double t0 = now_s();
      trainer->step();
      ts.push_back(now_s() - t0);
    }
    std::printf("  serial Trainer, K-FAC:      %.1f ms/step (median of %zu steps)\n",
                median(ts) * 1e3, ts.size());
  }
  for (const bool kfac : {true, false}) {
    TrainShape s = shape;
    s.kfac = kfac;
    pf::Rng init(seeds.model);
    pf::BertModel model(mcfg, init);
    pf::PipelineRuntime rt(model, data.batcher, runtime_config(s, seeds));
    std::vector<double> loss, ts;
    for (std::size_t k = 0; k < s.steps; ++k) {
      const double t0 = now_s();
      loss.push_back(rt.step().total);
      if (k > 0) ts.push_back(now_s() - t0);
    }
    std::printf("  runtime, %-6s            %.1f ms/step, loss %.4f at step 0, "
                "%.4f at step %zu, loss_end %.4f\n",
                kfac ? "K-FAC:" : "LAMB:", median(ts) * 1e3, loss.front(),
                loss.back(), s.steps - 1, loss_end(loss));
  }
  return 0;
}

}  // namespace perfbench
