// The three workloads of the benchmark (see README.md).

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <memory>
#include <string>

#include "common.h"

namespace perfbench {

/// Threads the program gets in every workload (portfolio racing threads,
/// the answer pool, the service's racing threads). With the client thread
/// and the serve loop the total stays within four cores.
inline constexpr int kProgramThreads = 2;

/// Run settings a workload may read.
struct Options {
  std::string work_dir;  // scratch directory inside the checkout
};

std::unique_ptr<Workload> MakeDecomposeWorkload(const Options& options);
std::unique_ptr<Workload> MakeAnswerWorkload(const Options& options);
std::unique_ptr<Workload> MakeServeWorkload(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
