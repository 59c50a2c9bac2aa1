#include "stack.h"

#include <utility>

#include "common.h"
#include "udb/wal.h"

namespace perfbench {

using genalg::Result;
using genalg::Status;
namespace etl = genalg::etl;
namespace udb = genalg::udb;

// Populate draws each record's length uniformly from [len/2, 3len/2).
constexpr size_t kSequenceLength = 500;
constexpr size_t kKmerK = 8;

Stack::~Stack() {
  // The server borrows the database: drain it first.
  if (server != nullptr) server->Shutdown();
}

Result<etl::EtlPipeline::RoundStats> Stack::RefreshRound() {
  for (auto& source : sources) {
    GENALG_RETURN_IF_ERROR(source->EvolveStep(options.evolve_p_update,
                                              options.evolve_p_churn));
  }
  return pipeline->RunOnce();
}

Result<std::unique_ptr<Stack>> BuildStack(const StackOptions& options,
                                          SetupTimes* times) {
  static constexpr etl::SourceCapability kCaps[] = {
      etl::SourceCapability::kLogged, etl::SourceCapability::kQueryable,
      etl::SourceCapability::kNonQueryable, etl::SourceCapability::kActive};
  static constexpr etl::SourceRepresentation kReprs[] = {
      etl::SourceRepresentation::kFlatFile,
      etl::SourceRepresentation::kHierarchical,
      etl::SourceRepresentation::kRelational,
      etl::SourceRepresentation::kFlatFile};

  auto stack = std::make_unique<Stack>();
  stack->options = options;
  const Clock::time_point start = Clock::now();

  for (size_t i = 0; i < 4; ++i) {
    auto source = std::make_unique<etl::SyntheticSource>(
        "S" + std::to_string(i), kReprs[i], kCaps[i],
        options.seed * 7919 + i);
    GENALG_RETURN_IF_ERROR(
        source->Populate(options.records_per_source, kSequenceLength));
    stack->sources.push_back(std::move(source));
  }
  const Clock::time_point populated = Clock::now();

  GENALG_RETURN_IF_ERROR(
      genalg::algebra::RegisterStandardAlgebra(&stack->algebra));
  stack->adapter = std::make_unique<udb::Adapter>(&stack->algebra);
  GENALG_RETURN_IF_ERROR(udb::RegisterStandardUdts(stack->adapter.get()));
  std::unique_ptr<udb::DiskManager> disk;
  if (!options.wal_dir.empty()) {
    GENALG_ASSIGN_OR_RETURN(
        disk, udb::FileDiskManager::Open(options.wal_dir + "/db.pages"));
  } else {
    disk = std::make_unique<udb::MemoryDiskManager>();
  }
  stack->disk = disk.get();
  stack->db = std::make_unique<udb::Database>(
      stack->adapter.get(), std::move(disk), options.pool_pages);
  // One explicitly sized pool runs both the extract fan-out and the
  // integrator's content matching.
  stack->etl_pool = std::make_unique<genalg::ThreadPool>(kEtlThreads);
  etl::Integrator::Options integrator;
  integrator.pool = stack->etl_pool.get();
  stack->warehouse =
      std::make_unique<etl::Warehouse>(stack->db.get(), integrator);
  GENALG_RETURN_IF_ERROR(stack->warehouse->InitSchema());
  stack->pipeline = std::make_unique<etl::EtlPipeline>(
      stack->warehouse.get(), stack->etl_pool.get());
  for (auto& source : stack->sources) {
    GENALG_RETURN_IF_ERROR(stack->pipeline->AddSource(source.get()));
  }
  // The bulk load runs before the log is attached: under the WAL's
  // no-steal rule one load transaction would have to pin every page of a
  // table larger than the pool.
  GENALG_RETURN_IF_ERROR(stack->pipeline->InitialLoad());
  const Clock::time_point loaded = Clock::now();

  GENALG_RETURN_IF_ERROR(
      stack->db->CreateKmerIndex("sequences", "seq", kKmerK));
  const Clock::time_point indexed = Clock::now();

  if (!options.wal_dir.empty()) {
    GENALG_ASSIGN_OR_RETURN(
        auto wal, udb::FileWalFile::Open(options.wal_dir + "/db.wal"));
    GENALG_RETURN_IF_ERROR(stack->db->EnableWal(std::move(wal)));
    stack->db->wal()->set_group_commit_size(1);  // fsync every commit.
  }

  if (options.worker_threads > 0) {
    genalg::server::ServerOptions server_options;
    server_options.worker_threads = options.worker_threads;
    server_options.admission_queue_depth = 64;
    stack->server = std::make_unique<genalg::server::GenAlgServer>(
        stack->db.get(), server_options);
    GENALG_RETURN_IF_ERROR(stack->server->Start());
  }
  const Clock::time_point served = Clock::now();

  times->initial_load_s = SecondsBetween(populated, loaded);
  times->index_build_s = SecondsBetween(loaded, indexed);
  times->total_s = SecondsBetween(start, served);
  return stack;
}

}  // namespace perfbench
