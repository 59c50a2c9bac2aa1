#ifndef PERFBENCH_STACK_H_
#define PERFBENCH_STACK_H_

// The Figure 3 deployment the benchmark serves: four seeded synthetic
// sources of mixed capability, the ETL pipeline, the Unifying Database
// (optionally file-backed with a write-ahead log and a small buffer
// pool), the k-mer index, and an in-process GenAlgServer.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "algebra/signature.h"
#include "base/result.h"
#include "base/thread_pool.h"
#include "etl/pipeline.h"
#include "etl/source.h"
#include "etl/warehouse.h"
#include "server/server.h"
#include "udb/adapter.h"
#include "udb/database.h"
#include "udb/storage.h"

namespace perfbench {

/// Threads of the pool that runs the ETL extract fan-out and the
/// integrator's content matching. One: the pool runs every task inline,
/// so a refresh round is serial work on the thread that calls it and
/// stays on the CPU that thread is pinned to.
inline constexpr size_t kEtlThreads = 1;

struct StackOptions {
  uint64_t seed = 1;
  size_t records_per_source = 100;  ///< Four sources, one per monitor class.
  size_t pool_pages = 4096;         ///< Buffer-pool frames (8 KiB pages).
  /// Empty: in-memory pages, no log. Otherwise the database file and a
  /// write-ahead log (fsync on every commit) are created in this
  /// directory.
  std::string wal_dir;
  /// 0: no server.
  size_t worker_threads = 0;
  /// Per-round source evolution (SyntheticSource::EvolveStep).
  double evolve_p_update = 0.01;
  double evolve_p_churn = 0.0;
};

/// Wall times of the set-up phases, in seconds.
struct SetupTimes {
  double initial_load_s = 0;
  double index_build_s = 0;
  double total_s = 0;
};

struct Stack {
  genalg::algebra::SignatureRegistry algebra;
  std::unique_ptr<genalg::udb::Adapter> adapter;
  genalg::udb::DiskManager* disk = nullptr;  // Owned by db.
  std::unique_ptr<genalg::udb::Database> db;
  std::unique_ptr<genalg::etl::Warehouse> warehouse;
  std::vector<std::unique_ptr<genalg::etl::SyntheticSource>> sources;
  std::unique_ptr<genalg::ThreadPool> etl_pool;
  std::unique_ptr<genalg::etl::EtlPipeline> pipeline;
  std::unique_ptr<genalg::server::GenAlgServer> server;
  StackOptions options;

  ~Stack();

  /// One maintenance round as the writer runs it: every source takes
  /// EvolveStep, then the pipeline polls and applies (one transaction).
  genalg::Result<genalg::etl::EtlPipeline::RoundStats> RefreshRound();
};

/// Source population + initial load (+ WAL attach) + k-mer index build +
/// server start; `times` gets the total and the load and index phases.
genalg::Result<std::unique_ptr<Stack>> BuildStack(const StackOptions& options,
                                                  SetupTimes* times);

}  // namespace perfbench

#endif  // PERFBENCH_STACK_H_
