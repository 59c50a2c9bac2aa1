// Durability tour: the archival story of C15 and the persistence layer.
//
// Act 1: a warehouse is loaded from a repository, then a write-ahead log
//        is attached, whose first checkpoint makes the pages and the
//        catalog durable.
// Act 2: the process "restarts": a brand-new stack recovers from the same
//        files and keeps answering queries — with its indexes rebuilt.
// Act 3: the repository vanishes; the warehouse exports a GenAlgXML
//        archive, which a third, empty warehouse imports.
//
// Run:  ./build/examples/durability_tour

#include <cstdio>
#include <cstdlib>

#include "algebra/signature.h"
#include "etl/pipeline.h"
#include "etl/source.h"
#include "etl/warehouse.h"
#include "udb/adapter.h"
#include "udb/database.h"
#include "udb/storage.h"
#include "udb/wal.h"

int main() {
  using namespace genalg;
  const char* tmpdir = std::getenv("TMPDIR");
  std::string base = (tmpdir != nullptr ? tmpdir : "/tmp");
  std::string db_path = base + "/genalg_durability.db";
  std::string wal_path = db_path + ".wal";
  std::remove(db_path.c_str());
  std::remove(wal_path.c_str());

  algebra::SignatureRegistry registry;
  if (!algebra::RegisterStandardAlgebra(&registry).ok()) return 1;
  udb::Adapter adapter(&registry);
  if (!udb::RegisterStandardUdts(&adapter).ok()) return 1;

  std::string archive_xml;

  // ------------------------------------------ Act 1: load + checkpoint.
  {
    auto disk = udb::FileDiskManager::Open(db_path);
    if (!disk.ok()) return 1;
    udb::Database db(&adapter, std::move(*disk), 64);
    etl::Warehouse warehouse(&db);
    if (!warehouse.InitSchema().ok()) return 1;

    etl::SyntheticSource source("DUR", etl::SourceRepresentation::kFlatFile,
                                etl::SourceCapability::kLogged, 4040);
    (void)source.Populate(25, 400);
    etl::EtlPipeline pipeline(&warehouse);
    (void)pipeline.AddSource(&source);
    if (!pipeline.InitialLoad().ok()) return 1;
    (void)db.CreateKmerIndex("sequences", "seq");
    auto derived = warehouse.DeriveProteins();
    std::printf("act 1: loaded %lld entities, derived %lld proteins, "
                "checkpointing to %s\n",
                static_cast<long long>(*warehouse.SequenceCount()),
                derived.ok() ? static_cast<long long>(*derived) : -1LL,
                db_path.c_str());
    // The bulk load ran without a log; the checkpoint written when the
    // log is attached flushes and fsyncs every page and logs the catalog.
    auto wal = udb::FileWalFile::Open(wal_path);
    if (!wal.ok()) return 1;
    if (Status s = db.EnableWal(std::move(*wal)); !s.ok()) {
      std::fprintf(stderr, "checkpoint failed: %s\n", s.ToString().c_str());
      return 1;
    }
    auto xml = warehouse.ExportGenAlgXml();
    if (!xml.ok()) return 1;
    archive_xml = *xml;
    std::printf("act 1: exported a %zu-byte GenAlgXML archive\n",
                archive_xml.size());
  }  // Stack destroyed: "process exit".

  // -------------------------------------------- Act 2: recover + query.
  {
    auto disk = udb::FileDiskManager::Open(db_path);
    if (!disk.ok()) return 1;
    auto wal = udb::FileWalFile::Open(wal_path);
    if (!wal.ok()) return 1;
    auto db = udb::Database::Recover(&adapter, std::move(*disk),
                                     std::move(*wal), 64);
    if (!db.ok()) {
      std::fprintf(stderr, "recovery failed: %s\n",
                   db.status().ToString().c_str());
      return 1;
    }
    auto count = (*db)->Execute("SELECT count(*) FROM sequences");
    auto proteins = (*db)->Execute(
        "SELECT count(*), avg(weight) FROM proteins");
    auto indexed = (*db)->Execute(
        "SELECT count(*) FROM sequences WHERE contains(seq, "
        "parse_dna('ATTGCCATAT'))");
    if (!count.ok() || !proteins.ok() || !indexed.ok()) return 1;
    std::printf(
        "act 2: recovered database answers — %lld sequences, %lld "
        "proteins (avg %.0f Da), k-mer index rebuilt and used "
        "(rows touched: %llu)\n",
        static_cast<long long>(*count->rows[0][0].AsInt()),
        static_cast<long long>(*proteins->rows[0][0].AsInt()),
        proteins->rows[0][1].is_null() ? 0.0
                                       : *proteins->rows[0][1].AsReal(),
        static_cast<unsigned long long>((*db)->last_rows_scanned()));
  }

  // ------------------------------ Act 3: the repository is gone; import.
  {
    udb::Database fresh(&adapter);
    etl::Warehouse restored(&fresh);
    if (!restored.InitSchema().ok()) return 1;
    if (Status s = restored.ImportGenAlgXml(archive_xml); !s.ok()) {
      std::fprintf(stderr, "import failed: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf(
        "act 3: a fresh warehouse restored %lld entities from the XML "
        "archive alone — the defunct repository's knowledge survives "
        "(C15)\n",
        static_cast<long long>(*restored.SequenceCount()));
  }

  std::remove(db_path.c_str());
  std::remove(wal_path.c_str());
  return 0;
}
