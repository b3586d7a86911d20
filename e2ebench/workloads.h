#ifndef E2EBENCH_WORKLOADS_H_
#define E2EBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

namespace e2ebench {

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where span files and the daemon's temporary directory go.
  std::string out_dir = ".bench_build/e2ebench";
};

/// Runs one workload, prints its report and, as the last stdout line, the
/// result JSON. Returns the process exit code: 0 when every correctness
/// check passed, 1 otherwise, 2 for an unknown workload.
int RunWorkload(const RunArgs& args);

}  // namespace e2ebench

#endif  // E2EBENCH_WORKLOADS_H_
