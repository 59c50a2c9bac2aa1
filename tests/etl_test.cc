#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <sstream>
#include <string>

#include "algebra/signature.h"
#include "align/aligner.h"
#include "base/rng.h"
#include "etl/diff.h"
#include "etl/integrator.h"
#include "etl/monitor.h"
#include "etl/pipeline.h"
#include "etl/source.h"
#include "etl/warehouse.h"
#include "formats/tree.h"
#include "udb/adapter.h"
#include "udb/database.h"

namespace genalg::etl {
namespace {

using formats::SequenceRecord;
using align::Alignment;
using formats::TreeNode;
using seq::NucleotideSequence;

// ---------------------------------------------------------------- Diffs.

TEST(LcsDiffTest, EditScriptReproducesTarget) {
  std::vector<std::string> a = {"one", "two", "three", "four"};
  std::vector<std::string> b = {"one", "TWO", "three", "five", "four"};
  auto edits = LcsDiff(a, b);
  EXPECT_EQ(ApplyLineEdits(edits), b);
  // two->TWO is delete+insert, five is insert: 3 non-keep ops.
  EXPECT_EQ(EditDistance(edits), 3u);
}

TEST(LcsDiffTest, IdenticalAndEmptyInputs) {
  std::vector<std::string> same = {"a", "b"};
  EXPECT_EQ(EditDistance(LcsDiff(same, same)), 0u);
  EXPECT_EQ(EditDistance(LcsDiff({}, same)), 2u);
  EXPECT_EQ(EditDistance(LcsDiff(same, {})), 2u);
  EXPECT_TRUE(ApplyLineEdits(LcsDiff(same, {})).empty());
}

TEST(LcsDiffTest, RandomizedRoundTripProperty) {
  Rng rng(109);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<std::string> a;
    std::vector<std::string> b;
    for (size_t i = 0; i < 30; ++i) {
      a.push_back(std::to_string(rng.Uniform(10)));
    }
    b = a;
    // Random mutations.
    for (int m = 0; m < 5; ++m) {
      if (b.empty() || rng.Bernoulli(0.5)) {
        b.insert(b.begin() + rng.Uniform(b.size() + 1),
                 std::to_string(rng.Uniform(10)));
      } else {
        b.erase(b.begin() + rng.Uniform(b.size()));
      }
    }
    EXPECT_EQ(ApplyLineEdits(LcsDiff(a, b)), b);
  }
}

TEST(TreeDiffTest, ValueUpdate) {
  TreeNode a{"Seq", "X", {{"Len", "5", {}}}};
  TreeNode b{"Seq", "X", {{"Len", "9", {}}}};
  auto edits = TreeDiff(a, b);
  ASSERT_EQ(edits.size(), 1u);
  EXPECT_EQ(edits[0].op, TreeEdit::Op::kUpdateValue);
  EXPECT_EQ(ApplyTreeEdits(a, edits), b);
}

TEST(TreeDiffTest, InsertAndDeleteSubtrees) {
  TreeNode a{"Dump", "", {
      {"Seq", "A", {{"Len", "1", {}}}},
      {"Seq", "B", {}},
  }};
  TreeNode b{"Dump", "", {
      {"Seq", "A", {{"Len", "1", {}}}},
      {"New", "C", {{"Child", "x", {}}}},
  }};
  auto edits = TreeDiff(a, b);
  EXPECT_EQ(ApplyTreeEdits(a, edits), b);
}

TEST(TreeDiffTest, RootReplacement) {
  TreeNode a{"Old", "x", {}};
  TreeNode b{"New", "y", {{"kid", "z", {}}}};
  auto edits = TreeDiff(a, b);
  EXPECT_EQ(ApplyTreeEdits(a, edits), b);
}

TEST(TreeDiffTest, RandomizedRoundTripProperty) {
  Rng rng(113);
  for (int trial = 0; trial < 15; ++trial) {
    TreeNode a{"Dump", "", {}};
    for (int i = 0; i < 6; ++i) {
      TreeNode child{"Seq", std::to_string(rng.Uniform(100)), {}};
      for (int j = 0; j < 3; ++j) {
        child.children.push_back(
            {"Attr", std::to_string(rng.Uniform(10)), {}});
      }
      a.children.push_back(std::move(child));
    }
    TreeNode b = a;
    // Mutate: change values, drop a child, add a child.
    if (!b.children.empty()) {
      b.children[rng.Uniform(b.children.size())].value = "mutated";
      b.children.erase(b.children.begin() + rng.Uniform(b.children.size()));
    }
    b.children.push_back({"Seq", "fresh", {}});
    auto edits = TreeDiff(a, b);
    EXPECT_EQ(ApplyTreeEdits(a, edits), b);
  }
}

TEST(SnapshotDifferentialTest, DetectsAllThreeKinds) {
  KeyedSnapshot before = {{"A", "1"}, {"B", "2"}, {"C", "3"}};
  KeyedSnapshot after = {{"B", "2"}, {"C", "9"}, {"D", "4"}};
  auto delta = SnapshotDifferential(before, after);
  EXPECT_EQ(delta.inserted, (std::vector<std::string>{"D"}));
  EXPECT_EQ(delta.deleted, (std::vector<std::string>{"A"}));
  EXPECT_EQ(delta.changed, (std::vector<std::string>{"C"}));
}

// --------------------------------------------------------------- Source.

TEST(SyntheticSourceTest, PopulateAndCapabilityGating) {
  SyntheticSource source("SRC", SourceRepresentation::kFlatFile,
                         SourceCapability::kNonQueryable, 1);
  ASSERT_TRUE(source.Populate(10, 200).ok());
  EXPECT_EQ(source.record_count(), 10u);
  // Non-queryable: only snapshots.
  EXPECT_TRUE(source.Query("x").status().IsFailedPrecondition());
  EXPECT_TRUE(source.ReadLog(0).status().IsFailedPrecondition());
  EXPECT_TRUE(source.Subscribe([](const SourceChange&) {})
                  .IsFailedPrecondition());
  EXPECT_TRUE(source.Snapshot().ok());
}

TEST(SyntheticSourceTest, SnapshotRoundTripsAllRepresentations) {
  for (SourceRepresentation repr :
       {SourceRepresentation::kFlatFile, SourceRepresentation::kHierarchical,
        SourceRepresentation::kRelational}) {
    SyntheticSource source("RT", repr, SourceCapability::kNonQueryable, 7);
    ASSERT_TRUE(source.Populate(5, 150).ok());
    auto snapshot = source.Snapshot();
    ASSERT_TRUE(snapshot.ok());
    auto parsed = SyntheticSource::ParseSnapshot(repr, *snapshot);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    ASSERT_EQ(parsed->size(), 5u);
    auto originals = source.AllRecords();
    for (size_t i = 0; i < 5; ++i) {
      EXPECT_EQ((*parsed)[i].accession, originals[i].accession);
      EXPECT_EQ((*parsed)[i].sequence, originals[i].sequence);
    }
  }
}

TEST(SyntheticSourceTest, EvolveBumpsVersionsDeterministically) {
  SyntheticSource a("EV", SourceRepresentation::kFlatFile,
                    SourceCapability::kLogged, 42);
  SyntheticSource b("EV", SourceRepresentation::kFlatFile,
                    SourceCapability::kLogged, 42);
  ASSERT_TRUE(a.Populate(8, 100).ok());
  ASSERT_TRUE(b.Populate(8, 100).ok());
  ASSERT_TRUE(a.EvolveStep(0.5).ok());
  ASSERT_TRUE(b.EvolveStep(0.5).ok());
  auto ra = a.AllRecords();
  auto rb = b.AllRecords();
  ASSERT_EQ(ra.size(), rb.size());
  for (size_t i = 0; i < ra.size(); ++i) EXPECT_EQ(ra[i], rb[i]);
}

// --------------------------------------------------------- Monitors.

// Each Figure 2 monitor must report exactly the same semantic deltas for
// the same source history.
class MonitorTest
    : public ::testing::TestWithParam<
          std::tuple<SourceCapability, SourceRepresentation>> {};

TEST_P(MonitorTest, DetectsInsertUpdateDelete) {
  auto [capability, representation] = GetParam();
  SyntheticSource source("MON", representation, capability, 11);
  ASSERT_TRUE(source.Populate(6, 120).ok());
  auto monitor = MakeMonitorFor(&source);
  ASSERT_TRUE(monitor.ok()) << monitor.status().ToString();
  // Baseline poll: snapshot/polling monitors see the initial content.
  ASSERT_TRUE((*monitor)->Poll().ok());

  // One update, one delete, one insert.
  auto records = source.AllRecords();
  SequenceRecord updated = records[0];
  updated.description = "changed description";
  ASSERT_TRUE(source.UpdateRecord(updated).ok());
  ASSERT_TRUE(source.DeleteRecord(records[1].accession).ok());
  SequenceRecord fresh;
  fresh.accession = "MONNEW1";
  fresh.source_db = "MON";
  fresh.sequence = NucleotideSequence::Dna("ACGTACGTAC").value();
  ASSERT_TRUE(source.AddRecord(fresh).ok());

  auto deltas = (*monitor)->Poll();
  ASSERT_TRUE(deltas.ok()) << deltas.status().ToString();
  size_t inserts = 0;
  size_t updates = 0;
  size_t deletes = 0;
  for (const Delta& d : *deltas) {
    switch (d.kind) {
      case Delta::Kind::kInsert:
        ++inserts;
        EXPECT_EQ(d.accession, "MONNEW1");
        ASSERT_TRUE(d.after.has_value());
        break;
      case Delta::Kind::kUpdate:
        ++updates;
        EXPECT_EQ(d.accession, records[0].accession);
        ASSERT_TRUE(d.after.has_value());
        EXPECT_EQ(d.after->description, "changed description");
        break;
      case Delta::Kind::kDelete:
        ++deletes;
        EXPECT_EQ(d.accession, records[1].accession);
        break;
    }
  }
  EXPECT_EQ(inserts, 1u);
  EXPECT_EQ(updates, 1u);
  EXPECT_EQ(deletes, 1u);
  // A quiet poll yields nothing.
  EXPECT_TRUE((*monitor)->Poll()->empty());
}

INSTANTIATE_TEST_SUITE_P(
    Figure2Cells, MonitorTest,
    ::testing::Values(
        std::make_tuple(SourceCapability::kActive,
                        SourceRepresentation::kFlatFile),
        std::make_tuple(SourceCapability::kLogged,
                        SourceRepresentation::kFlatFile),
        std::make_tuple(SourceCapability::kLogged,
                        SourceRepresentation::kHierarchical),
        std::make_tuple(SourceCapability::kLogged,
                        SourceRepresentation::kRelational),
        std::make_tuple(SourceCapability::kQueryable,
                        SourceRepresentation::kFlatFile),
        std::make_tuple(SourceCapability::kQueryable,
                        SourceRepresentation::kHierarchical),
        std::make_tuple(SourceCapability::kNonQueryable,
                        SourceRepresentation::kFlatFile),
        std::make_tuple(SourceCapability::kNonQueryable,
                        SourceRepresentation::kHierarchical),
        std::make_tuple(SourceCapability::kNonQueryable,
                        SourceRepresentation::kRelational)));

TEST(MonitorTest2, SnapshotMonitorMeasuresEditScripts) {
  SyntheticSource source("SNAP", SourceRepresentation::kFlatFile,
                         SourceCapability::kNonQueryable, 13);
  ASSERT_TRUE(source.Populate(5, 100).ok());
  auto monitor = SnapshotMonitor::Attach(&source);
  ASSERT_TRUE(monitor.ok());
  ASSERT_TRUE((*monitor)->Poll().ok());
  // No change: zero edit script.
  ASSERT_TRUE((*monitor)->Poll().ok());
  EXPECT_EQ((*monitor)->last_edit_script_size(), 0u);
  // A change yields a non-empty script.
  ASSERT_TRUE(source.EvolveStep(0.8).ok());
  ASSERT_TRUE((*monitor)->Poll().ok());
  EXPECT_GT((*monitor)->last_edit_script_size(), 0u);
}

TEST(MonitorTest2, PollingMonitorCountsFetches) {
  SyntheticSource source("POLL", SourceRepresentation::kFlatFile,
                         SourceCapability::kQueryable, 17);
  ASSERT_TRUE(source.Populate(10, 100).ok());
  auto monitor = PollingMonitor::Attach(&source);
  ASSERT_TRUE(monitor.ok());
  ASSERT_TRUE((*monitor)->Poll().ok());
  uint64_t after_first = (*monitor)->entries_fetched();
  EXPECT_EQ(after_first, 10u);
  // Quiet poll: version check only, no record fetches.
  ASSERT_TRUE((*monitor)->Poll().ok());
  EXPECT_EQ((*monitor)->entries_fetched(), after_first);
}

// ------------------------------------------------------------ Integrator.

SequenceRecord MakeRecord(const std::string& accession,
                          const std::string& dna,
                          const std::string& source) {
  SequenceRecord r;
  r.accession = accession;
  r.source_db = source;
  r.organism = "Synthetica exempli";
  r.sequence = NucleotideSequence::Dna(dna).value();
  return r;
}

TEST(IntegratorTest, MergesIdenticalDuplicatesAcrossSources) {
  Integrator integrator;
  auto entries = integrator.Reconcile({
      MakeRecord("ACC1", "ACGTACGTACGTACGTACGTACGTACGTACGTACGT", "DB_A"),
      MakeRecord("ACC1", "ACGTACGTACGTACGTACGTACGTACGTACGTACGT", "DB_B"),
  });
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), 1u);
  const ReconciledEntry& e = (*entries)[0];
  EXPECT_EQ(e.provenance.size(), 2u);
  EXPECT_TRUE(e.alternates.empty());
  EXPECT_DOUBLE_EQ(e.confidence, 1.0);
}

TEST(IntegratorTest, ConflictingSequencesKeptAsAlternatives) {
  // C9: both alternatives must remain accessible.
  Integrator integrator;
  auto entries = integrator.Reconcile({
      MakeRecord("ACC1", "AAAACCCCGGGGTTTTAAAACCCCGGGGTTTT", "DB_A"),
      MakeRecord("ACC1", "TTTTGGGGCCCCAAAATTTTGGGGCCCCAAAA", "DB_B"),
  });
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), 1u);
  const ReconciledEntry& e = (*entries)[0];
  EXPECT_EQ(e.alternates.size(), 1u);
  EXPECT_DOUBLE_EQ(e.confidence, 0.5);
  EXPECT_EQ(e.provenance.size(), 2u);
}

TEST(IntegratorTest, HigherVersionWinsCanonical) {
  Integrator integrator;
  SequenceRecord v1 = MakeRecord("ACC1", "AAAACCCCGGGGTTTTAAAACCCCGGGGTTTT",
                                 "DB_A");
  SequenceRecord v2 = MakeRecord("ACC1", "CCCCAAAACCCCGGGGTTTTAAAACCCCGGGG",
                                 "DB_B");
  v1.version = 1;
  v2.version = 3;
  auto entries = integrator.Reconcile({v1, v2});
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ((*entries)[0].canonical.version, 3);
  EXPECT_EQ((*entries)[0].canonical.source_db, "DB_B");
}

TEST(IntegratorTest, ContentMatchingMergesRenamedEntities) {
  // The semantic-heterogeneity case: two repositories hold the same
  // molecule under different accessions.
  Rng rng(127);
  std::string dna = rng.RandomDna(200);
  std::string near = dna;
  near[10] = near[10] == 'A' ? 'C' : 'A';  // 99.5% identity.
  Integrator integrator;
  auto entries = integrator.Reconcile({
      MakeRecord("DBA0001", dna, "DB_A"),
      MakeRecord("DBB0777", near, "DB_B"),
      MakeRecord("DBB0778", Rng(131).RandomDna(200), "DB_B"),
  });
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), 2u);
  // Merged under the smaller accession, with the synonym recorded.
  EXPECT_EQ((*entries)[0].canonical.accession, "DBA0001");
  EXPECT_EQ((*entries)[0].canonical.attributes.at("also_known_as"),
            "DBB0777");
  EXPECT_EQ((*entries)[0].provenance.size(), 2u);
}

TEST(IntegratorTest, ContentMatchingCanBeDisabled) {
  Rng rng(137);
  std::string dna = rng.RandomDna(200);
  Integrator::Options options;
  options.content_matching = false;
  Integrator integrator(options);
  auto entries = integrator.Reconcile({
      MakeRecord("A1", dna, "DB_A"),
      MakeRecord("B1", dna, "DB_B"),
  });
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 2u);
}

// ------------------------------------------------- Warehouse + pipeline.

class PipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(algebra::RegisterStandardAlgebra(&algebra_).ok());
    adapter_ = std::make_unique<udb::Adapter>(&algebra_);
    ASSERT_TRUE(udb::RegisterStandardUdts(adapter_.get()).ok());
    db_ = std::make_unique<udb::Database>(adapter_.get());
    warehouse_ = std::make_unique<Warehouse>(db_.get());
    ASSERT_TRUE(warehouse_->InitSchema().ok());
  }

  algebra::SignatureRegistry algebra_;
  std::unique_ptr<udb::Adapter> adapter_;
  std::unique_ptr<udb::Database> db_;
  std::unique_ptr<Warehouse> warehouse_;
};

TEST_F(PipelineTest, InitialLoadThenQuery) {
  SyntheticSource flat("FLT", SourceRepresentation::kFlatFile,
                       SourceCapability::kLogged, 19);
  SyntheticSource hier("HIR", SourceRepresentation::kHierarchical,
                       SourceCapability::kQueryable, 23);
  ASSERT_TRUE(flat.Populate(8, 150).ok());
  ASSERT_TRUE(hier.Populate(7, 150).ok());

  EtlPipeline pipeline(warehouse_.get());
  ASSERT_TRUE(pipeline.AddSource(&flat).ok());
  ASSERT_TRUE(pipeline.AddSource(&hier).ok());
  ASSERT_TRUE(pipeline.InitialLoad().ok());

  EXPECT_EQ(warehouse_->SequenceCount().value(), 15);
  // The loaded warehouse answers genomic SQL.
  auto r = db_->Execute(
      "SELECT count(*) FROM sequences WHERE gc_content(seq) > 0.3");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r->rows[0][0].AsInt().value(), 0);
}

TEST_F(PipelineTest, IncrementalMaintenanceTracksSources) {
  SyntheticSource source("INC", SourceRepresentation::kFlatFile,
                         SourceCapability::kLogged, 29);
  ASSERT_TRUE(source.Populate(5, 120).ok());
  EtlPipeline pipeline(warehouse_.get());
  ASSERT_TRUE(pipeline.AddSource(&source).ok());
  ASSERT_TRUE(pipeline.InitialLoad().ok());
  ASSERT_EQ(warehouse_->SequenceCount().value(), 5);

  // Quiet round: nothing to do.
  auto quiet = pipeline.RunOnce();
  ASSERT_TRUE(quiet.ok());
  EXPECT_EQ(quiet->deltas_detected, 0u);

  // Source evolves; the warehouse follows incrementally.
  ASSERT_TRUE(source.EvolveStep(0.6, /*p_churn=*/1.0).ok());
  auto round = pipeline.RunOnce();
  ASSERT_TRUE(round.ok());
  EXPECT_GT(round->deltas_detected, 0u);
  EXPECT_EQ(warehouse_->SequenceCount().value(),
            static_cast<int64_t>(source.record_count()));

  // An updated record's new description is visible.
  auto records = source.AllRecords();
  SequenceRecord changed = records[0];
  changed.description = "fresh annotation";
  ASSERT_TRUE(source.UpdateRecord(changed).ok());
  ASSERT_TRUE(pipeline.RunOnce().ok());
  auto r = db_->Execute(
      "SELECT description FROM sequences WHERE accession = '" +
      changed.accession + "'");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].AsString().value(), "fresh annotation");
}

TEST_F(PipelineTest, DeleteOnlyRemovesWhenNoSourceContributes) {
  // Two sources carry the same accession; deleting from one must keep it.
  SyntheticSource src_a("DUP", SourceRepresentation::kFlatFile,
                        SourceCapability::kLogged, 31);
  SyntheticSource src_b("DUP2", SourceRepresentation::kFlatFile,
                        SourceCapability::kLogged, 37);
  SequenceRecord shared =
      MakeRecord("SHARED1", "ACGTACGTACGTACGTACGTACGTACGTACGT", "DUP");
  ASSERT_TRUE(src_a.AddRecord(shared).ok());
  SequenceRecord mirrored = shared;
  mirrored.source_db = "DUP2";
  ASSERT_TRUE(src_b.AddRecord(mirrored).ok());

  EtlPipeline pipeline(warehouse_.get());
  ASSERT_TRUE(pipeline.AddSource(&src_a).ok());
  ASSERT_TRUE(pipeline.AddSource(&src_b).ok());
  ASSERT_TRUE(pipeline.InitialLoad().ok());
  ASSERT_EQ(warehouse_->SequenceCount().value(), 1);

  ASSERT_TRUE(src_a.DeleteRecord("SHARED1").ok());
  ASSERT_TRUE(pipeline.RunOnce().ok());
  EXPECT_EQ(warehouse_->SequenceCount().value(), 1);  // DUP2 still has it.

  ASSERT_TRUE(src_b.DeleteRecord("SHARED1").ok());
  ASSERT_TRUE(pipeline.RunOnce().ok());
  EXPECT_EQ(warehouse_->SequenceCount().value(), 0);
}

TEST_F(PipelineTest, ConflictingSourcesYieldAlternates) {
  SyntheticSource src_a("CFA", SourceRepresentation::kFlatFile,
                        SourceCapability::kLogged, 41);
  SyntheticSource src_b("CFB", SourceRepresentation::kFlatFile,
                        SourceCapability::kLogged, 43);
  ASSERT_TRUE(src_a
                  .AddRecord(MakeRecord("CONFLICT1",
                                        "AAAACCCCGGGGTTTTAAAACCCCGGGGTTTT",
                                        "CFA"))
                  .ok());
  ASSERT_TRUE(src_b
                  .AddRecord(MakeRecord("CONFLICT1",
                                        "TTTTGGGGCCCCAAAATTTTGGGGCCCCAAAA",
                                        "CFB"))
                  .ok());
  EtlPipeline pipeline(warehouse_.get());
  ASSERT_TRUE(pipeline.AddSource(&src_a).ok());
  ASSERT_TRUE(pipeline.AddSource(&src_b).ok());
  ASSERT_TRUE(pipeline.InitialLoad().ok());
  auto seq_rows = db_->Execute("SELECT confidence FROM sequences");
  ASSERT_TRUE(seq_rows.ok());
  ASSERT_EQ(seq_rows->rows.size(), 1u);
  EXPECT_DOUBLE_EQ(seq_rows->rows[0][0].AsReal().value(), 0.5);
  auto alt_rows = db_->Execute("SELECT count(*) FROM alternates");
  ASSERT_TRUE(alt_rows.ok());
  EXPECT_EQ(alt_rows->rows[0][0].AsInt().value(), 1);
}

TEST_F(PipelineTest, FullReloadMatchesIncrementalResult) {
  SyntheticSource source("REL", SourceRepresentation::kFlatFile,
                         SourceCapability::kLogged, 47);
  ASSERT_TRUE(source.Populate(6, 120).ok());
  EtlPipeline pipeline(warehouse_.get());
  ASSERT_TRUE(pipeline.AddSource(&source).ok());
  ASSERT_TRUE(pipeline.InitialLoad().ok());
  ASSERT_TRUE(source.EvolveStep(0.5, 1.0).ok());
  ASSERT_TRUE(pipeline.RunOnce().ok());
  auto incremental = db_->Execute(
      "SELECT accession, version FROM sequences ORDER BY accession");
  ASSERT_TRUE(incremental.ok());

  ASSERT_TRUE(pipeline.FullReload().ok());
  auto reloaded = db_->Execute(
      "SELECT accession, version FROM sequences ORDER BY accession");
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(incremental->rows, reloaded->rows);
}

// The parallel bulk-load path (per-source extract fan-out, sharded index
// build, batched seed-and-extend verification) must load a warehouse
// indistinguishable from the serial one. Each pool size gets a fresh
// stack and identically-seeded sources; the GenAlgXML dump of the public
// space is the equality witness (rows, features, alternates and all).
TEST(ParallelEtlDeterminismTest, InitialLoadIdenticalAcrossPoolSizes) {
  auto run = [](ThreadPool* pool) -> std::pair<int64_t, std::string> {
    algebra::SignatureRegistry algebra;
    EXPECT_TRUE(algebra::RegisterStandardAlgebra(&algebra).ok());
    udb::Adapter adapter(&algebra);
    EXPECT_TRUE(udb::RegisterStandardUdts(&adapter).ok());
    udb::Database db(&adapter);
    Integrator::Options options;
    options.pool = pool;
    Warehouse warehouse(&db, options);
    EXPECT_TRUE(warehouse.InitSchema().ok());

    SyntheticSource flat("FLT", SourceRepresentation::kFlatFile,
                         SourceCapability::kLogged, 301);
    SyntheticSource hier("HIR", SourceRepresentation::kHierarchical,
                         SourceCapability::kQueryable, 302);
    SyntheticSource rel("REL", SourceRepresentation::kRelational,
                        SourceCapability::kNonQueryable, 303);
    EXPECT_TRUE(flat.Populate(10, 200).ok());
    EXPECT_TRUE(hier.Populate(9, 200).ok());
    EXPECT_TRUE(rel.Populate(8, 200).ok());

    EtlPipeline pipeline(&warehouse, pool);
    EXPECT_TRUE(pipeline.AddSource(&flat).ok());
    EXPECT_TRUE(pipeline.AddSource(&hier).ok());
    EXPECT_TRUE(pipeline.AddSource(&rel).ok());
    EXPECT_TRUE(pipeline.InitialLoad().ok());

    auto count = warehouse.SequenceCount();
    EXPECT_TRUE(count.ok());
    auto xml = warehouse.ExportGenAlgXml();
    EXPECT_TRUE(xml.ok());
    return {count.value_or(-1), xml.value_or("")};
  };

  ThreadPool serial(1);
  auto [serial_count, serial_xml] = run(&serial);
  EXPECT_GT(serial_count, 0);
  for (size_t threads : {2u, 8u}) {
    ThreadPool pool(threads);
    auto [count, xml] = run(&pool);
    EXPECT_EQ(count, serial_count) << "threads=" << threads;
    EXPECT_EQ(xml, serial_xml) << "threads=" << threads;
  }
}

TEST(ParallelEtlDeterminismTest, FullReloadIdenticalAcrossPoolSizes) {
  auto run = [](ThreadPool* pool) -> std::string {
    algebra::SignatureRegistry algebra;
    EXPECT_TRUE(algebra::RegisterStandardAlgebra(&algebra).ok());
    udb::Adapter adapter(&algebra);
    EXPECT_TRUE(udb::RegisterStandardUdts(&adapter).ok());
    udb::Database db(&adapter);
    Integrator::Options options;
    options.pool = pool;
    Warehouse warehouse(&db, options);
    EXPECT_TRUE(warehouse.InitSchema().ok());

    SyntheticSource a("SRC_A", SourceRepresentation::kFlatFile,
                      SourceCapability::kLogged, 311);
    SyntheticSource b("SRC_B", SourceRepresentation::kRelational,
                      SourceCapability::kQueryable, 312);
    EXPECT_TRUE(a.Populate(8, 150).ok());
    EXPECT_TRUE(b.Populate(7, 150).ok());

    EtlPipeline pipeline(&warehouse, pool);
    EXPECT_TRUE(pipeline.AddSource(&a).ok());
    EXPECT_TRUE(pipeline.AddSource(&b).ok());
    EXPECT_TRUE(pipeline.InitialLoad().ok());
    EXPECT_TRUE(a.EvolveStep(0.4, 0.5).ok());
    EXPECT_TRUE(b.EvolveStep(0.4, 0.5).ok());
    EXPECT_TRUE(pipeline.FullReload().ok());
    return warehouse.ExportGenAlgXml().value_or("");
  };

  ThreadPool serial(1);
  std::string serial_xml = run(&serial);
  ASSERT_FALSE(serial_xml.empty());
  for (size_t threads : {2u, 8u}) {
    ThreadPool pool(threads);
    EXPECT_EQ(run(&pool), serial_xml) << "threads=" << threads;
  }
}

// Stage 2 on near-duplicates planted across sources: a chain A~B, B~C
// whose ends A and C do not resemble each other, a pair above the
// integrator's 0.95 identity threshold and one just below it, among
// unrelated records. The merged groups must be the connected components
// of `resembles` run on every pair, and the warehouse dump the same at
// every pool size.
TEST(ParallelEtlDeterminismTest, StageTwoMergesPlantedNearDuplicates) {
  Rng rng(541);
  const std::string spine = rng.RandomDna(600);
  // A copy of `s` with a substitution every `period` bases.
  const auto every = [](std::string s, size_t period) {
    for (size_t i = period / 2; i < s.size(); i += period) {
      s[i] = s[i] == 'A' ? 'C' : 'A';
    }
    return s;
  };
  const std::string above = rng.RandomDna(300);
  const std::string below = rng.RandomDna(200);
  std::vector<SequenceRecord> records = {
      MakeRecord("CHAIN_A", spine.substr(0, 400), "DB_A"),
      MakeRecord("CHAIN_B", spine.substr(150, 400), "DB_B"),
      MakeRecord("CHAIN_C", spine.substr(450) + rng.RandomDna(250), "DB_C"),
      MakeRecord("ABOVE_1", above, "DB_A"),
      MakeRecord("ABOVE_2", every(above, 25), "DB_C"),  // 96% identical.
      MakeRecord("BELOW_1", below, "DB_B"),
      MakeRecord("BELOW_2", every(below, 19), "DB_A"),  // 94.7% identical.
  };
  for (int k = 0; k < 6; ++k) {
    records.push_back(MakeRecord("NOISE_" + std::to_string(k),
                                 rng.RandomDna(250 + rng.Uniform(200)),
                                 k % 2 == 0 ? "DB_B" : "DB_C"));
  }
  const Integrator::Options defaults;
  // The oracle: union-find over `resembles` on every pair.
  std::vector<size_t> root(records.size());
  std::iota(root.begin(), root.end(), 0);
  const auto find = [&](size_t x) {
    while (root[x] != x) x = root[x];
    return x;
  };
  for (size_t i = 0; i < records.size(); ++i) {
    for (size_t j = i + 1; j < records.size(); ++j) {
      if (align::Resembles(records[i].sequence, records[j].sequence,
                           defaults.min_identity, defaults.min_overlap)
              .value()) {
        root[find(i)] = find(j);
      }
    }
  }
  std::set<std::set<std::string>> expected;
  std::map<size_t, std::set<std::string>> by_root;
  for (size_t i = 0; i < records.size(); ++i) {
    by_root[find(i)].insert(records[i].accession);
  }
  for (auto& [r, group] : by_root) expected.insert(group);
  // The planted shape holds: the chain is one group only through B, the
  // pair above the threshold merges and the pair below does not.
  EXPECT_FALSE(align::Resembles(records[0].sequence, records[2].sequence,
                                defaults.min_identity, defaults.min_overlap)
                   .value());
  EXPECT_TRUE(expected.count({"CHAIN_A", "CHAIN_B", "CHAIN_C"}));
  EXPECT_TRUE(expected.count({"ABOVE_1", "ABOVE_2"}));
  EXPECT_TRUE(expected.count({"BELOW_1"}));
  EXPECT_TRUE(expected.count({"BELOW_2"}));
  const Alignment near =
      align::LocalAlign(records[5].sequence, records[6].sequence).value();
  EXPECT_GT(near.Identity(), 0.94);
  EXPECT_LT(near.Identity(), defaults.min_identity);

  std::string serial_xml;
  for (size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    Integrator::Options options;
    options.pool = &pool;
    auto entries = Integrator(options).Reconcile(records);
    ASSERT_TRUE(entries.ok());
    std::set<std::set<std::string>> groups;
    for (const ReconciledEntry& e : *entries) {
      std::set<std::string> group = {e.canonical.accession};
      auto synonyms = e.canonical.attributes.find("also_known_as");
      if (synonyms != e.canonical.attributes.end()) {
        std::stringstream list(synonyms->second);
        for (std::string id; std::getline(list, id, ',');) group.insert(id);
      }
      groups.insert(group);
    }
    EXPECT_EQ(groups, expected) << "threads=" << threads;

    algebra::SignatureRegistry algebra;
    ASSERT_TRUE(algebra::RegisterStandardAlgebra(&algebra).ok());
    udb::Adapter adapter(&algebra);
    ASSERT_TRUE(udb::RegisterStandardUdts(&adapter).ok());
    udb::Database db(&adapter);
    Warehouse warehouse(&db, options);
    ASSERT_TRUE(warehouse.InitSchema().ok());
    ASSERT_TRUE(warehouse.LoadBatch(records).ok());
    auto xml = warehouse.ExportGenAlgXml();
    ASSERT_TRUE(xml.ok());
    if (threads == 1) {
      // Merged entities leave the public space; unmerged ones stay.
      serial_xml = *xml;
      EXPECT_EQ(serial_xml.find("CHAIN_C"), std::string::npos);
      EXPECT_EQ(serial_xml.find("ABOVE_2"), std::string::npos);
      EXPECT_NE(serial_xml.find("BELOW_2"), std::string::npos);
    } else {
      EXPECT_EQ(*xml, serial_xml) << "threads=" << threads;
    }
  }
}

TEST_F(PipelineTest, DeriveProteinsEvolvesTheSchema) {
  // A record carrying a clean forward gene and one carrying a reverse
  // gene; one noisy annotation (span past the end) must be skipped.
  SequenceRecord fwd =
      MakeRecord("DPF1", "CCCCATGAAAGTTTAAGGGG", "SRC");
  gdt::Feature fwd_gene;
  fwd_gene.id = "DPF1.g";
  fwd_gene.kind = gdt::FeatureKind::kGene;
  fwd_gene.span = {4, 16};  // ATGAAAGTTTAA -> MKV.
  fwd.features.push_back(fwd_gene);

  std::string gene_rc = NucleotideSequence::Dna("ATGAAAGTTTAA")
                            .value()
                            .ReverseComplement()
                            .ToString();
  SequenceRecord rev = MakeRecord("DPR1", "TT" + gene_rc + "AA", "SRC");
  gdt::Feature rev_gene;
  rev_gene.id = "DPR1.g";
  rev_gene.kind = gdt::FeatureKind::kGene;
  rev_gene.span = {2, 14};
  rev_gene.strand = gdt::Strand::kReverse;
  rev.features.push_back(rev_gene);

  SequenceRecord noisy = MakeRecord("DPN1", "ACGTACGT", "SRC");
  gdt::Feature bad;
  bad.id = "DPN1.g";
  bad.kind = gdt::FeatureKind::kGene;
  bad.span = {2, 9000};  // Past the end: B10 noise.
  noisy.features.push_back(bad);

  ASSERT_TRUE(warehouse_->LoadBatch({fwd, rev, noisy}).ok());
  auto derived = warehouse_->DeriveProteins(/*codon_table_id=*/1);
  ASSERT_TRUE(derived.ok()) << derived.status().ToString();
  EXPECT_EQ(*derived, 2);

  // The new table answers protein-level SQL, including protseq UDTs.
  auto rows = db_->Execute(
      "SELECT accession, length, molecular_weight(pseq) FROM proteins "
      "ORDER BY accession");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->rows.size(), 2u);
  EXPECT_EQ(rows->rows[0][0].AsString().value(), "DPF1");
  EXPECT_EQ(rows->rows[0][1].AsInt().value(), 3);  // MKV.
  EXPECT_GT(rows->rows[0][2].AsReal().value(), 100.0);
  EXPECT_EQ(rows->rows[1][0].AsString().value(), "DPR1");

  // Re-derivation replaces, not duplicates.
  ASSERT_TRUE(warehouse_->DeriveProteins(1).ok());
  auto count = db_->Execute("SELECT count(*) FROM proteins");
  EXPECT_EQ(count->rows[0][0].AsInt().value(), 2);
}

TEST_F(PipelineTest, XmlArchiveRoundTrip) {
  // C15 + Sec. 6.4: dump the warehouse as GenAlgXML and rebuild an
  // identical warehouse from the archive.
  SyntheticSource source("XML", SourceRepresentation::kFlatFile,
                         SourceCapability::kLogged, 59);
  ASSERT_TRUE(source.Populate(6, 150).ok());
  EtlPipeline pipeline(warehouse_.get());
  ASSERT_TRUE(pipeline.AddSource(&source).ok());
  ASSERT_TRUE(pipeline.InitialLoad().ok());
  auto xml = warehouse_->ExportGenAlgXml();
  ASSERT_TRUE(xml.ok()) << xml.status().ToString();

  // Fresh stack, import the archive.
  udb::Database db2(adapter_.get());
  Warehouse restored(&db2);
  ASSERT_TRUE(restored.InitSchema().ok());
  ASSERT_TRUE(restored.ImportGenAlgXml(*xml).ok());
  EXPECT_EQ(restored.SequenceCount().value(),
            warehouse_->SequenceCount().value());
  auto original_rows = db_->Execute(
      "SELECT accession, organism FROM sequences ORDER BY accession");
  auto restored_rows = db2.Execute(
      "SELECT accession, organism FROM sequences ORDER BY accession");
  ASSERT_TRUE(original_rows.ok() && restored_rows.ok());
  EXPECT_EQ(original_rows->rows, restored_rows->rows);
  // Features survive the archive too.
  auto original_features =
      db_->Execute("SELECT count(*) FROM features");
  auto restored_features = db2.Execute("SELECT count(*) FROM features");
  EXPECT_EQ(original_features->rows, restored_features->rows);
}

TEST_F(PipelineTest, WarehousePreservesDeletedSourceContent) {
  // C15: a repository disappears; its data survives in the warehouse.
  SyntheticSource doomed("DOOM", SourceRepresentation::kFlatFile,
                         SourceCapability::kLogged, 53);
  ASSERT_TRUE(doomed.Populate(4, 100).ok());
  EtlPipeline pipeline(warehouse_.get());
  ASSERT_TRUE(pipeline.AddSource(&doomed).ok());
  ASSERT_TRUE(pipeline.InitialLoad().ok());
  // The company goes under: the source simply stops being polled. The
  // warehouse keeps serving its archived content.
  EXPECT_EQ(warehouse_->SequenceCount().value(), 4);
}

}  // namespace
}  // namespace genalg::etl
