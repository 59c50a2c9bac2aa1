// The repo benchmark: one workload per invocation, served by an
// in-process GenAlgServer to GenAlgClient connections, every answer
// checked. Normally launched through perfbench/run.py, which builds it:
//
//   perfbench --workload lookup|similarity|refresh --seed N --seconds S
//             --trace 0|1 --work-dir DIR
//
// Prints a fingerprint line, detail lines, and as its last line one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics untraced, the per-layer metrics with --trace 1. Exits 1 if any
// answer is wrong.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload lookup|similarity|refresh "
               "--seed N --seconds S --trace 0|1 --work-dir DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || !perfbench::IsWorkload(options.workload) ||
      options.seconds <= 0 || options.work_dir.empty()) {
    return Usage();
  }

  perfbench::RunOutput out;
  if (!perfbench::RunWorkload(options, &out)) {
    for (const auto& p : out.problems) std::fprintf(stderr, "%s\n", p.c_str());
    return 1;
  }

  std::string fingerprint = "{";
  for (const auto& [key, value] : out.fingerprint) {
    if (fingerprint.size() > 1) fingerprint += ", ";
    fingerprint += JsonString(key) + ": " + JsonString(value);
  }
  std::printf("fingerprint %s}\n", fingerprint.c_str());
  for (const auto& note : out.notes) std::printf("note %s\n", note.c_str());
  for (const auto& p : out.problems) std::printf("WRONG %s\n", p.c_str());

  const bool correct = out.problems.empty();
  std::string metrics;
  for (const auto& m : out.metrics) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    if (!metrics.empty()) metrics += ", ";
    metrics += JsonString(m.name) + ": {\"value\": " + value +
               ", \"unit\": " + JsonString(m.unit) + "}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
