#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

struct RunOptions {
  std::string workload;  ///< lookup | similarity | refresh
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;  ///< Scratch files (database, log, spans).
};

struct RunOutput {
  uint64_t attempted = 0;  ///< Reads sent while timed + refresh rounds.
  uint64_t failed = 0;     ///< Errors + wrong answers + rejections + timeouts.
  std::vector<std::string> problems;  ///< Every correctness failure.
  MetricList metrics;  ///< End-to-end, or per-layer when traced.
  std::vector<std::pair<std::string, std::string>> fingerprint;
  std::vector<std::string> notes;  ///< Human-readable detail lines.
};

bool IsWorkload(const std::string& name);

/// Sets up, serves, measures and checks one workload. Returns false only
/// when the run could not be carried out at all (set-up failed); wrong
/// answers land in `out->problems`.
bool RunWorkload(const RunOptions& options, RunOutput* out);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
