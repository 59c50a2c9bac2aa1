// Cross-module property tests: invariants that must hold for arbitrary
// (seeded-random) inputs, connecting layers that unit tests exercise in
// isolation.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "algebra/signature.h"
#include "algebra/term.h"
#include "align/aligner.h"
#include "base/rng.h"
#include "etl/integrator.h"
#include "etl/pipeline.h"
#include "etl/source.h"
#include "etl/warehouse.h"
#include "gdt/ops.h"
#include "index/kmer_index.h"
#include "index/suffix_array.h"
#include "obs/metrics.h"
#include "seq/nucleotide_sequence.h"
#include "udb/adapter.h"
#include "udb/database.h"
#include "udb/datum.h"

namespace genalg {
namespace {

using seq::NucleotideSequence;

// --------------------------------------------------------------- Algebra.

// Decode must equal the composed algebra term for arbitrary valid genes:
// the kernel-library path and the algebra path are the same function.
class DecodeCompositionProperty : public ::testing::TestWithParam<int> {};

TEST_P(DecodeCompositionProperty, DecodeEqualsComposedTerm) {
  Rng rng(GetParam() * 7919);
  algebra::SignatureRegistry registry;
  ASSERT_TRUE(algebra::RegisterStandardAlgebra(&registry).ok());

  size_t n_codons = 3 + rng.Uniform(30);
  std::string coding = "ATG";
  for (size_t i = 0; i < n_codons; ++i) {
    coding += 'C';
    coding += rng.Pick("ACGT");
    coding += rng.Pick("ACGT");
  }
  coding += "TAA";
  size_t split = 3 * (1 + rng.Uniform(n_codons));
  std::string intron = "GT" + rng.RandomDna(6 + rng.Uniform(12)) + "AG";
  gdt::Gene gene;
  gene.id = "P" + std::to_string(GetParam());
  gene.sequence = NucleotideSequence::Dna(coding.substr(0, split) + intron +
                                          coding.substr(split))
                      .value();
  gene.exons = {{0, split}, {split + intron.size(), gene.sequence.size()}};

  auto direct = gdt::Decode(gene);
  ASSERT_TRUE(direct.ok());

  algebra::Term term = algebra::Term::Apply(
      "translate",
      algebra::Term::Apply(
          "splice", algebra::Term::Apply(
                        "transcribe",
                        algebra::Term::Constant(
                            algebra::Value::GeneVal(gene)))));
  auto via_term = term.Evaluate(registry);
  ASSERT_TRUE(via_term.ok());
  EXPECT_EQ(via_term->AsProtein()->sequence, direct->sequence);
  EXPECT_DOUBLE_EQ(via_term->AsProtein()->confidence, direct->confidence);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecodeCompositionProperty,
                         ::testing::Range(1, 13));

// Every ORF reported by FindOrfs must be re-derivable from TranslateFrame
// of its frame: the two views of the same reading frame agree.
TEST(OrfFrameProperty, FindOrfsAgreesWithTranslateFrame) {
  Rng rng(7001);
  for (int trial = 0; trial < 10; ++trial) {
    auto dna = NucleotideSequence::Dna(rng.RandomDna(600)).value();
    auto orfs = gdt::FindOrfs(dna, 5);
    ASSERT_TRUE(orfs.ok());
    for (const gdt::Orf& orf : *orfs) {
      auto frame_protein = gdt::TranslateFrame(dna, orf.frame);
      ASSERT_TRUE(frame_protein.ok());
      // The ORF's residues appear verbatim in the frame translation at
      // codon offset (begin - frame_offset) / 3.
      size_t frame_offset = static_cast<size_t>(std::abs(orf.frame)) - 1;
      size_t codon_index = (orf.begin - frame_offset) / 3;
      std::string frame_text = frame_protein->ToString();
      std::string orf_text = orf.protein.ToString();
      ASSERT_LE(codon_index + orf_text.size(), frame_text.size());
      EXPECT_EQ(frame_text.substr(codon_index, orf_text.size()), orf_text)
          << "frame " << orf.frame << " begin " << orf.begin;
      // And the codon right after the ORF body is its stop.
      EXPECT_EQ(frame_text[codon_index + orf_text.size()], '*');
    }
  }
}

// ----------------------------------------------------------------- Index.

TEST(SuffixArrayProperty, CountsArePositionCounts) {
  Rng rng(7103);
  std::string text = rng.RandomString(2000, "ACGT");
  auto sa = index::SuffixArray::Build(text);
  for (int trial = 0; trial < 30; ++trial) {
    std::string pattern = rng.RandomDna(1 + rng.Uniform(5));
    EXPECT_EQ(sa.CountOccurrences(pattern), sa.FindAll(pattern).size());
  }
  // Single-character counts sum to the text length.
  size_t total = 0;
  for (char c : std::string("ACGT")) {
    total += sa.CountOccurrences(std::string(1, c));
  }
  EXPECT_EQ(total, text.size());
}

// ----------------------------------------------------------------- Datum.

TEST(DatumProperty, OrderKeyAgreesWithCompare) {
  Rng rng(7207);
  auto random_datum = [&]() -> udb::Datum {
    switch (rng.Uniform(4)) {
      case 0:
        return udb::Datum::Int(static_cast<int64_t>(rng.Next()));
      case 1:
        return udb::Datum::Real((rng.NextDouble() - 0.5) * 1e6);
      case 2:
        return udb::Datum::String(rng.RandomDna(rng.Uniform(12)));
      default:
        return udb::Datum::Bool(rng.Bernoulli(0.5));
    }
  };
  for (int trial = 0; trial < 500; ++trial) {
    udb::Datum a = random_datum();
    udb::Datum b = random_datum();
    if (a.kind() != b.kind()) continue;  // Keys only order within a kind.
    auto compared = a.Compare(b);
    ASSERT_TRUE(compared.ok());
    int key_order = a.OrderKey() < b.OrderKey()   ? -1
                    : b.OrderKey() < a.OrderKey() ? 1
                                                  : 0;
    EXPECT_EQ(key_order, *compared)
        << a.ToString() << " vs " << b.ToString();
  }
}

// ------------------------------------------------------------ Integrator.

TEST(IntegratorProperty, ReconcileIsIdempotentOnItsOwnOutput) {
  Rng rng(7309);
  for (int trial = 0; trial < 8; ++trial) {
    // Random batch with duplicates and conflicts.
    std::vector<formats::SequenceRecord> batch;
    size_t n = 3 + rng.Uniform(8);
    for (size_t i = 0; i < n; ++i) {
      formats::SequenceRecord r;
      r.accession = "IDP" + std::to_string(rng.Uniform(5));
      r.source_db = "S" + std::to_string(rng.Uniform(3));
      r.sequence =
          NucleotideSequence::Dna(rng.RandomDna(60 + rng.Uniform(60)))
              .value();
      batch.push_back(std::move(r));
    }
    etl::Integrator integrator;
    auto first = integrator.Reconcile(batch);
    ASSERT_TRUE(first.ok());
    // Feed the canonical records back in: entity set must be stable.
    std::vector<formats::SequenceRecord> canon;
    for (const auto& entry : *first) canon.push_back(entry.canonical);
    auto second = integrator.Reconcile(canon);
    ASSERT_TRUE(second.ok());
    ASSERT_EQ(second->size(), first->size());
    for (size_t i = 0; i < first->size(); ++i) {
      EXPECT_EQ((*second)[i].canonical.accession,
                (*first)[i].canonical.accession);
      EXPECT_EQ((*second)[i].canonical.sequence,
                (*first)[i].canonical.sequence);
    }
  }
}

// ------------------------------------------------------------- Warehouse.

class WarehouseInvariantTest : public ::testing::TestWithParam<int> {};

TEST_P(WarehouseInvariantTest, ReferentialIntegrityUnderChurn) {
  algebra::SignatureRegistry registry;
  ASSERT_TRUE(algebra::RegisterStandardAlgebra(&registry).ok());
  udb::Adapter adapter(&registry);
  ASSERT_TRUE(udb::RegisterStandardUdts(&adapter).ok());
  udb::Database db(&adapter);
  etl::Warehouse warehouse(&db);
  ASSERT_TRUE(warehouse.InitSchema().ok());

  etl::SyntheticSource source("CHU", etl::SourceRepresentation::kFlatFile,
                              etl::SourceCapability::kLogged,
                              static_cast<uint64_t>(GetParam()) * 31 + 5);
  ASSERT_TRUE(source.Populate(8, 150).ok());
  etl::EtlPipeline pipeline(&warehouse);
  ASSERT_TRUE(pipeline.AddSource(&source).ok());
  ASSERT_TRUE(pipeline.InitialLoad().ok());

  Rng rng(GetParam());
  for (int round = 0; round < 4; ++round) {
    ASSERT_TRUE(source.EvolveStep(rng.NextDouble() * 0.5, 1.0).ok());
    ASSERT_TRUE(pipeline.RunOnce().ok());

    // Invariant 1: every feature row references a live sequence row.
    auto seq_rows = db.Execute("SELECT accession FROM sequences");
    auto feature_rows = db.Execute("SELECT accession FROM features");
    ASSERT_TRUE(seq_rows.ok() && feature_rows.ok());
    std::set<std::string> live;
    for (const auto& row : seq_rows->rows) {
      live.insert(*row[0].AsString());
    }
    for (const auto& row : feature_rows->rows) {
      EXPECT_TRUE(live.count(*row[0].AsString()))
          << "orphaned feature row in round " << round;
    }
    // Invariant 2: accessions are unique.
    EXPECT_EQ(live.size(), seq_rows->rows.size());
    // Invariant 3: warehouse count matches the live source exactly.
    EXPECT_EQ(live.size(), source.record_count());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WarehouseInvariantTest,
                         ::testing::Range(1, 7));

// ------------------------------------------------------------------ SQL.

TEST(SqlProperty, RepeatedQueriesAreDeterministic) {
  algebra::SignatureRegistry registry;
  ASSERT_TRUE(algebra::RegisterStandardAlgebra(&registry).ok());
  udb::Adapter adapter(&registry);
  ASSERT_TRUE(udb::RegisterStandardUdts(&adapter).ok());
  udb::Database db(&adapter);
  ASSERT_TRUE(db.Execute("CREATE TABLE t (a INT, b TEXT, s NUCSEQ)").ok());
  Rng rng(7411);
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (" +
                           std::to_string(rng.Uniform(10)) + ", '" +
                           rng.RandomDna(4) + "', parse_dna('" +
                           rng.RandomDna(40) + "'))")
                    .ok());
  }
  const char* queries[] = {
      "SELECT a, count(*) FROM t GROUP BY a ORDER BY a",
      "SELECT b FROM t WHERE gc_content(s) > 0.4 ORDER BY b, a",
      "SELECT DISTINCT a FROM t ORDER BY a DESC",
      "SELECT x.a FROM t x JOIN t y ON x.b = y.b WHERE x.a < 3 "
      "ORDER BY x.a LIMIT 20",
  };
  for (const char* query : queries) {
    auto first = db.Execute(query);
    ASSERT_TRUE(first.ok()) << query;
    for (int repeat = 0; repeat < 3; ++repeat) {
      auto again = db.Execute(query);
      ASSERT_TRUE(again.ok());
      EXPECT_EQ(again->rows, first->rows) << query;
    }
  }
}

// Seeding completeness of the integrator's stage 2: an alignment of
// L >= 32 columns at identity >= 0.95 has e <= L / 20 edits, so its
// matches form at most e + 1 runs holding at least L - e - (e + 1)(11 - 1)
// >= 4 shared 11-mers (the q-gram lemma). A pair without ambiguity codes
// that resembles at (0.95, 32) must therefore be a FindCandidates(a, 4)
// hit on a k = 11 index.
TEST(SeedingProperty, ResemblingPairsAreSeeded) {
  Rng rng(7717);
  size_t resembling = 0;
  for (int trial = 0; trial < 200; ++trial) {
    // b carries a planted stretch verbatim, a a copy with point edits
    // (mismatches and indels), at rates around the 5% the verdict allows.
    // The flanks of a (A/C) and b (G/T) never match each other, so chance
    // matches there cannot stretch the alignment and dilute its identity.
    std::string shared = rng.RandomDna(32 + rng.Uniform(60));
    std::string edited = shared;
    const size_t edits = rng.Uniform(shared.size() / 20 + 2);
    for (size_t e = 0; e < edits; ++e) {
      size_t at = rng.Uniform(edited.size());
      switch (rng.Uniform(3)) {
        case 0:
          edited[at] = edited[at] == 'A' ? 'C' : 'A';
          break;
        case 1:
          edited.erase(at, 1);
          break;
        default:
          edited.insert(at, 1, rng.Pick("ACGT"));
          break;
      }
    }
    auto flank = [&rng](std::string_view alphabet) {
      return rng.RandomString(rng.Uniform(150), alphabet);
    };
    auto a =
        NucleotideSequence::Dna(flank("AC") + edited + flank("AC")).value();
    auto b =
        NucleotideSequence::Dna(flank("GT") + shared + flank("GT")).value();
    if (!align::Resembles(a, b, 0.95, 32).value()) continue;
    ++resembling;
    std::vector<NucleotideSequence> corpus = {
        a, NucleotideSequence::Dna(rng.RandomDna(300)).value(), b};
    auto idx = index::KmerIndex::Build(corpus, 11).value();
    auto candidates = idx.FindCandidates(a, 4);
    EXPECT_TRUE(std::any_of(candidates.begin(), candidates.end(),
                            [](const index::KmerIndex::Candidate& c) {
                              return c.doc == 2;
                            }))
        << "trial " << trial << ": " << a.ToString() << " / "
        << b.ToString();
  }
  // Most draws resemble, so the implication is tested, not vacuous.
  EXPECT_GE(resembling, 100u);
}

// Indexed and unindexed databases must answer identically under random
// insert/update/delete churn — the index maintenance oracle. Some rows
// carry N runs or a NULL sequence, UPDATE rewrites sequences as well as
// keys, and contains() probes are cut from live rows, so a row missing
// from the k-mer index changes an answer. `backfilled` gets its indexes
// after the first rows load, so its k-mer index is churned from a bulk
// base; one transaction is aborted on all three.
TEST(SqlProperty, IndexedAndUnindexedAgreeUnderChurn) {
  algebra::SignatureRegistry registry;
  ASSERT_TRUE(algebra::RegisterStandardAlgebra(&registry).ok());
  udb::Adapter adapter(&registry);
  ASSERT_TRUE(udb::RegisterStandardUdts(&adapter).ok());
  udb::Database indexed(&adapter);
  udb::Database plain(&adapter);
  udb::Database backfilled(&adapter);
  const std::vector<udb::Database*> dbs = {&plain, &indexed, &backfilled};
  for (udb::Database* db : dbs) {
    ASSERT_TRUE(db->Execute("CREATE TABLE t (a INT, s NUCSEQ)").ok());
  }
  ASSERT_TRUE(indexed.CreateBTreeIndex("t", "a").ok());
  ASSERT_TRUE(indexed.CreateKmerIndex("t", "s").ok());

  Rng rng(7603);
  auto random_cell = [&rng]() -> std::string {
    switch (rng.Uniform(6)) {
      case 0:
        return "NULL";
      case 1: {
        std::string dna = rng.RandomDna(30 + rng.Uniform(30));
        dna.replace(rng.Uniform(dna.size() - 3), 3, "NNN");
        return "parse_dna('" + dna + "')";
      }
      default:
        return "parse_dna('" + rng.RandomDna(30 + rng.Uniform(30)) + "')";
    }
  };
  // A 10-16 base stretch without ambiguity codes of a live row's
  // sequence, or "" when the draw finds none.
  auto live_pattern = [&]() -> std::string {
    auto rows = plain.ScanTable("t");
    EXPECT_TRUE(rows.ok());
    if (!rows.ok() || rows->empty()) return "";
    const udb::Datum& cell = (*rows)[rng.Uniform(rows->size())][1];
    if (cell.is_null()) return "";
    std::string dna = adapter.ToValue(cell)->AsNucSeq()->ToString();
    size_t len = 10 + rng.Uniform(7);
    std::string pattern = dna.substr(rng.Uniform(dna.size() - len + 1), len);
    return pattern.find('N') == std::string::npos ? pattern : "";
  };

  auto random_statement = [&]() -> std::string {
    switch (rng.Uniform(5)) {
      case 0:
      case 1:
        return "INSERT INTO t VALUES (" + std::to_string(rng.Uniform(15)) +
               ", " + random_cell() + ")";
      case 2:
        return "DELETE FROM t WHERE a = " + std::to_string(rng.Uniform(15));
      case 3:
        return "UPDATE t SET a = " + std::to_string(rng.Uniform(15)) +
               " WHERE a = " + std::to_string(rng.Uniform(15));
      default:
        return "UPDATE t SET s = " + random_cell() +
               " WHERE a = " + std::to_string(rng.Uniform(15));
    }
  };
  // Runs one statement on every database; all succeed or all fail.
  auto run_all = [&](const std::string& statement) {
    const bool ok = plain.Execute(statement).ok();
    EXPECT_EQ(indexed.Execute(statement).ok(), ok) << statement;
    EXPECT_EQ(backfilled.Execute(statement).ok(), ok) << statement;
  };

  for (int row = 0; row < 40; ++row) {
    run_all("INSERT INTO t VALUES (" + std::to_string(rng.Uniform(15)) +
            ", " + random_cell() + ")");
  }
  ASSERT_TRUE(backfilled.CreateBTreeIndex("t", "a").ok());
  ASSERT_TRUE(backfilled.CreateKmerIndex("t", "s").ok());
  obs::Counter* compactions =
      obs::Registry::Global().GetCounter("index.kmer.compactions");
  const uint64_t compactions_before = compactions->value();

  size_t matched_probes = 0;
  for (int step = 0; step < 160; ++step) {
    if (step == 80) {
      // An aborted transaction rebuilds every index from the heap.
      std::vector<std::string> statements;
      for (int i = 0; i < 4; ++i) statements.push_back(random_statement());
      for (udb::Database* db : dbs) {
        ASSERT_TRUE(db->Begin().ok());
        for (const std::string& statement : statements) {
          (void)db->Execute(statement);
        }
        ASSERT_TRUE(db->Abort().ok());
      }
    }
    run_all(random_statement());

    if (step % 8 == 7) {
      // Probe through the index paths and compare.
      std::vector<std::string> probes = {"SELECT count(*) FROM t WHERE a = " +
                                         std::to_string(rng.Uniform(15))};
      for (int p = 0; p < 3; ++p) {
        std::string pattern = live_pattern();
        if (pattern.empty()) continue;
        probes.push_back(
            "SELECT count(*) FROM t WHERE contains(s, parse_dna('" +
            pattern + "'))");
      }
      for (size_t p = 0; p < probes.size(); ++p) {
        auto without = plain.Execute(probes[p]);
        ASSERT_TRUE(without.ok()) << probes[p];
        for (udb::Database* db : {&indexed, &backfilled}) {
          auto with_index = db->Execute(probes[p]);
          ASSERT_TRUE(with_index.ok())
              << probes[p] << ": " << with_index.status().ToString();
          EXPECT_EQ(with_index->rows, without->rows)
              << probes[p] << " at step " << step;
        }
        if (p > 0 && *without->rows[0][0].AsInt() > 0) ++matched_probes;
      }
    }
  }
  // The oracle only bites if the probes have rows to find, and if the
  // churn folds deltas into new bases.
  EXPECT_GE(matched_probes, 40u);
  EXPECT_GT(compactions->value() - compactions_before, 0u);
}

// Aggregates must agree with hand-computed values over random data.
TEST(SqlProperty, AggregatesMatchOracle) {
  algebra::SignatureRegistry registry;
  ASSERT_TRUE(algebra::RegisterStandardAlgebra(&registry).ok());
  udb::Adapter adapter(&registry);
  ASSERT_TRUE(udb::RegisterStandardUdts(&adapter).ok());
  udb::Database db(&adapter);
  ASSERT_TRUE(db.Execute("CREATE TABLE t (g INT, v INT)").ok());
  Rng rng(7507);
  std::map<int64_t, std::pair<int64_t, int64_t>> oracle;  // g -> (n, sum).
  for (int i = 0; i < 100; ++i) {
    int64_t g = static_cast<int64_t>(rng.Uniform(6));
    int64_t v = rng.UniformInt(-50, 50);
    ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (" + std::to_string(g) +
                           ", " + std::to_string(v) + ")")
                    .ok());
    oracle[g].first += 1;
    oracle[g].second += v;
  }
  auto r = db.Execute(
      "SELECT g, count(*), sum(v) FROM t GROUP BY g ORDER BY g");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), oracle.size());
  size_t i = 0;
  for (const auto& [g, stats] : oracle) {
    EXPECT_EQ(*r->rows[i][0].AsInt(), g);
    EXPECT_EQ(*r->rows[i][1].AsInt(), stats.first);
    EXPECT_EQ(*r->rows[i][2].AsInt(), stats.second);
    ++i;
  }
}

}  // namespace
}  // namespace genalg
