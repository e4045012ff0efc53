// Layer probes: each one times a single library function at the shape a
// workload runs it at and checks the function's output against a
// computation made apart from it.
#include <algorithm>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "src/comm/stage_channel.h"
#include "src/comm/tensor_wire.h"
#include "src/comm/transport_channel.h"
#include "src/common/rng.h"
#include "src/linalg/cholesky.h"
#include "src/linalg/gemm.h"
#include "workloads.h"

namespace perfbench {
namespace {

pf::Matrix random_matrix(std::size_t rows, std::size_t cols, pf::Rng& rng) {
  pf::Matrix m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = rng.uniform(-1.0, 1.0);
  return m;
}

// Median seconds of `fn` over `reps` calls.
template <typename Fn>
double median_seconds(int reps, Fn&& fn) {
  std::vector<double> ts;
  ts.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const double t0 = now_s();
    fn();
    ts.push_back(now_s() - t0);
  }
  return median(std::move(ts));
}

double max_abs(const pf::Matrix& m) {
  double v = 0.0;
  for (std::size_t i = 0; i < m.size(); ++i) v = std::max(v, std::abs(m.data()[i]));
  return v;
}

void gemm_probe(std::size_t m, std::size_t k_dim, std::size_t n, pf::Rng& rng,
                SpanRecorder& spans, Result& r) {
  SpanRecorder::Scope span(spans, "probe.gemm", -1);
  const pf::Matrix a = random_matrix(m, k_dim, rng);
  const pf::Matrix b = random_matrix(k_dim, n, rng);
  pf::Matrix c;
  const double t = median_seconds(31, [&] { c = pf::matmul(a, b, 1); });
  // Naive triple loop, ascending k. The packed kernels may fuse multiply
  // and add, so agreement is to rounding, not bitwise.
  double worst = 0.0;
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      double want = 0.0, scale = 0.0;
      for (std::size_t k = 0; k < k_dim; ++k) {
        want += a(i, k) * b(k, j);
        scale += std::abs(a(i, k) * b(k, j));
      }
      worst = std::max(worst, std::abs(c(i, j) - want) / (scale + 1e-300));
    }
  if (!(worst <= 1e-12))
    r.fail_check("GEMM probe disagrees with the naive triple loop (relative "
                 "error " + std::to_string(worst) + ")", 0);
  const double flops = 2.0 * static_cast<double>(m * n * k_dim);
  r.metrics["linalg.gemm_gflops"] = flops / t / 1e9;
}

void cholesky_probe(std::size_t n, pf::Rng& rng, SpanRecorder& spans, Result& r) {
  SpanRecorder::Scope span(spans, "probe.cholesky", -1);
  // A damped second-moment matrix, like a K-FAC factor: XᵀX/n + 1e-3·I.
  const pf::Matrix x = random_matrix(2 * n, n, rng);
  pf::Matrix m = pf::matmul_tn(x, x, 1);
  for (std::size_t i = 0; i < m.size(); ++i)
    m.data()[i] /= static_cast<double>(x.rows());
  for (std::size_t i = 0; i < n; ++i) m(i, i) += 1e-3;
  pf::Matrix l;
  const double t = median_seconds(15, [&] { l = pf::cholesky(m, 1); });
  const pf::Matrix rebuilt = pf::matmul_nt(l, l, 1);
  double worst = 0.0;
  for (std::size_t i = 0; i < m.size(); ++i)
    worst = std::max(worst, std::abs(rebuilt.data()[i] - m.data()[i]));
  if (!(worst <= 1e-12 * max_abs(m)))
    r.fail_check("Cholesky factor does not rebuild its input (max error " +
                     std::to_string(worst) + ")", 0);
  r.metrics["linalg.cholesky_ms"] = t * 1e3;
}

// One-way handoff latency: median of half the round-trip time of a keyed
// ping-pong between two threads over a channel pair. Every payload that
// comes back is compared bit for bit with the one sent.
double ping_pong_us(pf::Channel& ab, pf::Channel& ba, const pf::Matrix& payload,
                    Result& r) {
  constexpr int kWarmup = 20, kIters = 200;
  std::thread echo([&] {
    for (int i = 0; i < kWarmup + kIters; ++i) ba.send(i, ab.recv(i, 60.0));
  });
  std::vector<double> half_rtt;
  bool intact = true;
  for (int i = 0; i < kWarmup + kIters; ++i) {
    pf::Matrix out = payload;
    const double t0 = now_s();
    ab.send(i, std::move(out));
    const pf::Matrix back = ba.recv(i, 60.0);
    const double t = now_s() - t0;
    if (i >= kWarmup) half_rtt.push_back(t / 2.0);
    intact = intact && back.rows() == payload.rows() &&
             back.cols() == payload.cols() &&
             std::equal(back.data(), back.data() + back.size(), payload.data());
  }
  echo.join();
  if (!intact) r.fail_check(ab.name() + ": payload did not round-trip bitwise", 0);
  return median(std::move(half_rtt)) * 1e6;
}

void channel_probes(std::size_t rows, std::size_t cols, pf::Rng& rng,
                    SpanRecorder& spans, Result& r) {
  const pf::Matrix payload = random_matrix(rows, cols, rng);
  {
    SpanRecorder::Scope span(spans, "probe.inproc_handoff", -1);
    pf::StageChannel ab("probe-inproc[a->b]"), ba("probe-inproc[b->a]");
    r.metrics["comm.inproc_handoff_us"] = ping_pong_us(ab, ba, payload, r);
  }
  {
    SpanRecorder::Scope span(spans, "probe.shm_handoff", -1);
    const std::size_t slot = pf::wire_bytes(rows, cols);
    pf::SharedRegion reg_ab(pf::ShmRing::required_bytes(2, slot));
    pf::SharedRegion reg_ba(pf::ShmRing::required_bytes(2, slot));
    pf::TransportChannel ab("probe-shm[a->b]",
                            pf::ShmRing::create(reg_ab.data(), 2, slot));
    pf::TransportChannel ba("probe-shm[b->a]",
                            pf::ShmRing::create(reg_ba.data(), 2, slot));
    r.metrics["comm.shm_handoff_us"] = ping_pong_us(ab, ba, payload, r);
  }
}

void batch_probe(std::size_t seqs, const pf::MlmBatcher& batcher,
                 std::uint64_t seed, SpanRecorder& spans, Result& r) {
  SpanRecorder::Scope span(spans, "probe.mlm_batch", -1);
  pf::Rng rng(seed);
  pf::BertBatch b;
  const double t =
      median_seconds(51, [&] { b = batcher.next_batch(seqs, rng); });
  const bool shaped = b.batch == seqs && b.ids.size() == b.batch * b.seq &&
                      b.nsp_labels.size() == b.batch;
  if (!shaped) r.fail_check("MlmBatcher draw has the wrong shape", 0);
  r.metrics["data.batch_ms"] = t * 1e3;
}

}  // namespace

void run_probes(const pf::BertConfig& m, std::size_t seqs,
                const pf::MlmBatcher& batcher, std::uint64_t seed,
                SpanRecorder& spans, Result& r) {
  SpanRecorder::Scope span(spans, "probes", -1);
  pf::Rng rng(seed);
  const std::size_t rows = seqs * m.seq_len;
  gemm_probe(rows, m.d_model, m.d_ff, rng, spans, r);
  cholesky_probe(m.d_ff, rng, spans, r);
  channel_probes(rows, m.d_model, rng, spans, r);
  batch_probe(seqs, batcher, seed, spans, r);
}

}  // namespace perfbench
