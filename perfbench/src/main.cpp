// Benchmark program: runs one workload and prints its result line.
//
//   perfbench --workload <pipefisher_kfac|lamb_forked|serve_bert>
//                    --seed <n> --seconds <s> --trace <0|1>
//                    [--trace-out <chrome trace path, required with --trace 1>]
//   perfbench --reference --seed <n>
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, and the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). The exit code is non-zero when an output check failed or an
// operation threw.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.h"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload W --seed N "
               "--seconds S --trace 0|1 [--trace-out PATH] | --reference --seed N\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  bool reference = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--reference") {
      reference = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    if (a == "--workload") opt.workload = v;
    else if (a == "--seed") opt.seed = std::stoull(v);
    else if (a == "--seconds") opt.seconds = std::stod(v);
    else if (a == "--trace" && (v == "0" || v == "1")) opt.trace = v == "1";
    else if (a == "--trace-out") opt.trace_path = v;
    else usage(("unknown argument " + a).c_str());
  }
  if (reference) return perfbench::run_reference(opt.seed);
  if (!(opt.seconds > 0.0)) usage("--seconds must be positive");
  if (opt.trace && opt.trace_path.empty()) usage("--trace 1 needs --trace-out");

  try {
    perfbench::Result r;
    if (opt.workload == "pipefisher_kfac") r = perfbench::run_pipefisher_kfac(opt);
    else if (opt.workload == "lamb_forked") r = perfbench::run_lamb_forked(opt);
    else if (opt.workload == "serve_bert") r = perfbench::run_serve_bert(opt);
    else usage(("unknown workload " + opt.workload).c_str());
    perfbench::print_result(r, opt.trace);
    return r.correct && r.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }
}
