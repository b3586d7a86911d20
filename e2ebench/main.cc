// Whole-search benchmark of VolcanoML: fixed-work joint vs. decomposed
// searches, an evaluation-bound large space, and daemon churn. See
// README.md for the workloads and metrics.
//
// Usage: e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--out-dir <dir>]

#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

int main(int argc, char** argv) {
  e2ebench::RunArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "e2ebench: %s needs a value\n", flag.c_str());
      return 2;
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      std::fprintf(stderr, "e2ebench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (args.workload.empty() || !(args.seconds > 0.0)) {
    std::fprintf(stderr,
                 "usage: e2ebench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--out-dir <dir>]\n");
    return 2;
  }
  return e2ebench::RunWorkload(args);
}
