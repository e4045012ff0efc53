// The benchmark's workloads, its layer probes and the reference mode.
#pragma once

#include <cstddef>
#include <cstdint>

#include "bench.h"
#include "src/data/mlm_batcher.h"
#include "src/nn/bert.h"

namespace perfbench {

// Every workload shares this base model: BERT, vocab 48, 4 layers, 4 heads,
// sequence 32; only the widths differ.
pf::BertConfig base_model(std::size_t d_model, std::size_t d_ff);

// Seeds derived from --seed: corpus, model initialization, batch stream
// and request trace each get their own stream.
struct Seeds {
  std::uint64_t corpus, model, data, requests;
  explicit Seeds(std::uint64_t seed);
};

// The seeded corpus and the batcher drawing from it.
struct Data {
  Data(const Seeds& seeds, const pf::BertConfig& m);
  pf::SyntheticCorpus corpus;
  pf::MlmBatcher batcher;
};

// Runs the layer probes at the shapes a workload with model `m` and
// micro-batches of `seqs` sequences runs them at: the FFN up-projection
// GEMM, Cholesky of the largest K-FAC factor (d_ff), the channel ping-pong
// with one boundary tensor, one MlmBatcher draw. Checks their outputs
// against computations made apart from the probed code (failures make the
// run incorrect) and stores linalg.gemm_gflops, linalg.cholesky_ms,
// comm.inproc_handoff_us, comm.shm_handoff_us and data.batch_ms in `r`.
void run_probes(const pf::BertConfig& m, std::size_t seqs,
                const pf::MlmBatcher& batcher, std::uint64_t seed,
                SpanRecorder& spans, Result& r);

Result run_pipefisher_kfac(const Options& opt);
Result run_lamb_forked(const Options& opt);
Result run_serve_bert(const Options& opt);

// Prints the README's reference figures for `seed`: serial Trainer and
// in-process first-order (LAMB) runs at the pipefisher_kfac shape next to
// the K-FAC runtime. Returns the process exit code.
int run_reference(std::uint64_t seed);

}  // namespace perfbench
