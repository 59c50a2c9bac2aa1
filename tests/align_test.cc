#include <gtest/gtest.h>

#include <string>

#include "align/aligner.h"
#include "align/scoring.h"
#include "base/rng.h"
#include "seq/nucleotide_sequence.h"
#include "seq/protein_sequence.h"

namespace genalg::align {
namespace {

using seq::NucleotideSequence;
using seq::ProteinSequence;

// ----------------------------------------------------- SubstitutionMatrix.

TEST(ScoringTest, NucleotideMatchMismatch) {
  auto m = SubstitutionMatrix::Nucleotide(2, -1);
  EXPECT_EQ(m.Score('A', 'A'), 2);
  EXPECT_EQ(m.Score('A', 'a'), 2);
  EXPECT_EQ(m.Score('A', 'C'), -1);
  // Ambiguity: N is compatible with everything, R with A/G only.
  EXPECT_EQ(m.Score('N', 'T'), 2);
  EXPECT_EQ(m.Score('R', 'A'), 2);
  EXPECT_EQ(m.Score('R', 'T'), -1);
  // Non-IUPAC characters are mismatches.
  EXPECT_EQ(m.Score('Q', 'A'), -1);
}

TEST(ScoringTest, Blosum62KnownValues) {
  const auto& b = SubstitutionMatrix::Blosum62();
  EXPECT_EQ(b.Score('A', 'A'), 4);
  EXPECT_EQ(b.Score('W', 'W'), 11);
  EXPECT_EQ(b.Score('A', 'W'), -3);
  EXPECT_EQ(b.Score('L', 'I'), 2);
  EXPECT_EQ(b.Score('*', '*'), 1);
  EXPECT_EQ(b.Score('E', 'D'), 2);
  // Symmetry over the whole symbol set.
  std::string syms = "ARNDCQEGHILKMFPSTWYVBZX*";
  for (char x : syms) {
    for (char y : syms) EXPECT_EQ(b.Score(x, y), b.Score(y, x));
  }
  // Unknown symbols behave like X.
  EXPECT_EQ(b.Score('J', 'A'), b.Score('X', 'A'));
}

// ------------------------------------------------------------ GlobalAlign.

TEST(GlobalAlignTest, IdenticalSequences) {
  auto r = GlobalAlign("ACGT", "ACGT", SubstitutionMatrix::Nucleotide(),
                       GapPenalties{-5, -1});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->score, 8);
  EXPECT_EQ(r->aligned_a, "ACGT");
  EXPECT_EQ(r->aligned_b, "ACGT");
  EXPECT_DOUBLE_EQ(r->Identity(), 1.0);
}

TEST(GlobalAlignTest, SingleGap) {
  // ACGT vs AGT: best is deleting C.
  auto r = GlobalAlign("ACGT", "AGT", SubstitutionMatrix::Nucleotide(2, -1),
                       GapPenalties{-2, -1});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->score, 3 * 2 - 3);  // Three matches, one opened gap.
  EXPECT_EQ(r->aligned_a, "ACGT");
  EXPECT_EQ(r->aligned_b, "A-GT");
}

TEST(GlobalAlignTest, EmptySequences) {
  auto r = GlobalAlign("", "", SubstitutionMatrix::Nucleotide(),
                       GapPenalties{-5, -1});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->score, 0);
  EXPECT_EQ(r->Length(), 0u);

  auto r2 = GlobalAlign("ACG", "", SubstitutionMatrix::Nucleotide(),
                        GapPenalties{-5, -1});
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->score, -5 - 3);  // One gap run of length 3.
  EXPECT_EQ(r2->aligned_b, "---");
}

TEST(GlobalAlignTest, AffineGapPrefersOneLongGap) {
  // With affine gaps a single run of 2 is cheaper than two isolated gaps.
  // a: AATTTTAA, b: AATTAA -> drop "TT" contiguously.
  auto r = GlobalAlign("AATTTTAA", "AATTAA",
                       SubstitutionMatrix::Nucleotide(2, -3),
                       GapPenalties{-4, -1});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->score, 6 * 2 - 4 - 2);
  // The two gap columns must be adjacent.
  size_t first_gap = r->aligned_b.find('-');
  ASSERT_NE(first_gap, std::string::npos);
  EXPECT_EQ(r->aligned_b[first_gap + 1], '-');
}

TEST(GlobalAlignTest, GappedStringsReproduceInputs) {
  Rng rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    std::string a = rng.RandomDna(20 + rng.Uniform(60));
    std::string b = rng.RandomDna(20 + rng.Uniform(60));
    auto r = GlobalAlign(a, b, SubstitutionMatrix::Nucleotide(),
                         GapPenalties{-4, -1});
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r->aligned_a.size(), r->aligned_b.size());
    std::string sa, sb;
    for (char c : r->aligned_a) {
      if (c != '-') sa.push_back(c);
    }
    for (char c : r->aligned_b) {
      if (c != '-') sb.push_back(c);
    }
    EXPECT_EQ(sa, a);
    EXPECT_EQ(sb, b);
    // No column may be a double gap.
    for (size_t i = 0; i < r->aligned_a.size(); ++i) {
      EXPECT_FALSE(r->aligned_a[i] == '-' && r->aligned_b[i] == '-');
    }
  }
}

TEST(GlobalAlignTest, RejectsPositiveGapPenalty) {
  EXPECT_TRUE(GlobalAlign("A", "A", SubstitutionMatrix::Nucleotide(),
                          GapPenalties{1, -1})
                  .status()
                  .IsInvalidArgument());
}

TEST(GlobalAlignTest, ProteinOverloadUsesBlosum) {
  auto a = ProteinSequence::FromString("HEAGAWGHEE").value();
  auto b = ProteinSequence::FromString("PAWHEAE").value();
  auto r = GlobalAlign(a, b, GapPenalties{-8, -2});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->aligned_a.size(), r->aligned_b.size());
}

// ------------------------------------------------------------- LocalAlign.

TEST(LocalAlignTest, FindsEmbeddedMatch) {
  // The classic: a short exact region inside noise.
  auto r = LocalAlign("CCCCACGTACGTCCCC", "GGGGACGTACGTGGGG",
                      SubstitutionMatrix::Nucleotide(2, -3),
                      GapPenalties{-5, -2});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->aligned_a, "ACGTACGT");
  EXPECT_EQ(r->aligned_b, "ACGTACGT");
  EXPECT_EQ(r->score, 16);
  EXPECT_EQ(r->begin_a, 4u);
  EXPECT_EQ(r->end_a, 12u);
  EXPECT_EQ(r->begin_b, 4u);
  EXPECT_EQ(r->end_b, 12u);
}

TEST(LocalAlignTest, NoPositiveScoreGivesEmptyAlignment) {
  auto r = LocalAlign("AAAA", "CCCC", SubstitutionMatrix::Nucleotide(2, -3),
                      GapPenalties{-5, -2});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->score, 0);
  EXPECT_EQ(r->Length(), 0u);
}

TEST(LocalAlignTest, LocalScoreAtLeastGlobalScore) {
  Rng rng(11);
  for (int trial = 0; trial < 10; ++trial) {
    std::string a = rng.RandomDna(30 + rng.Uniform(40));
    std::string b = rng.RandomDna(30 + rng.Uniform(40));
    auto g = GlobalAlign(a, b, SubstitutionMatrix::Nucleotide(),
                         GapPenalties{-4, -1});
    auto l = LocalAlign(a, b, SubstitutionMatrix::Nucleotide(),
                        GapPenalties{-4, -1});
    ASSERT_TRUE(g.ok() && l.ok());
    EXPECT_GE(l->score, g->score);
    EXPECT_GE(l->score, 0);
  }
}

TEST(LocalAlignTest, SubsequenceAlignsPerfectly) {
  Rng rng(13);
  std::string genome = rng.RandomDna(400);
  std::string read = genome.substr(100, 50);
  auto r = LocalAlign(read, genome, SubstitutionMatrix::Nucleotide(2, -3),
                      GapPenalties{-5, -2});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->score, 100);  // 50 matches x 2.
  EXPECT_EQ(r->begin_b, 100u);
  EXPECT_EQ(r->end_b, 150u);
  EXPECT_DOUBLE_EQ(r->Identity(), 1.0);
}

// -------------------------------------------------------------- Resembles.

TEST(ResemblesTest, PaperStyleSimilarityPredicate) {
  Rng rng(29);
  std::string base = rng.RandomDna(120);
  auto a = NucleotideSequence::Dna(base).value();
  // A noisy copy: 5% substitutions.
  std::string noisy = base;
  for (size_t i = 0; i < noisy.size(); ++i) {
    if (rng.Bernoulli(0.05)) noisy[i] = rng.Pick("ACGT");
  }
  auto b = NucleotideSequence::Dna(noisy).value();
  EXPECT_TRUE(Resembles(a, b, 0.8, 16).value());
  // An unrelated sequence does not resemble.
  auto c = NucleotideSequence::Dna(Rng(31).RandomDna(120)).value();
  EXPECT_FALSE(Resembles(a, c, 0.95, 60).value());
}

TEST(ResemblesTest, ShortOverlapRejected) {
  auto a = NucleotideSequence::Dna("ACGTACGTAC").value();
  auto b = NucleotideSequence::Dna("ACGTACGTAC").value();
  EXPECT_TRUE(Resembles(a, b, 0.9, 10).value());
  EXPECT_FALSE(Resembles(a, b, 0.9, 11).value());  // Only 10 bases exist.
}

TEST(ResemblesTest, ValidatesIdentityRange) {
  auto a = NucleotideSequence::Dna("ACGT").value();
  EXPECT_TRUE(Resembles(a, a, 1.5, 1).status().IsInvalidArgument());
}

TEST(ResemblesTest, IsSymmetricOnRandomInputs) {
  Rng rng(37);
  for (int trial = 0; trial < 6; ++trial) {
    auto a = NucleotideSequence::Dna(rng.RandomDna(60)).value();
    auto b = NucleotideSequence::Dna(rng.RandomDna(60)).value();
    EXPECT_EQ(Resembles(a, b, 0.7, 12).value(),
              Resembles(b, a, 0.7, 12).value());
  }
}

// ------------------------------------ Property sweep over gap penalties.

class GapSweepTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(GapSweepTest, GlobalAlignmentInvariants) {
  auto [open, extend] = GetParam();
  Rng rng(static_cast<uint64_t>(open * -31 + extend * -7 + 1));
  std::string a = rng.RandomDna(40);
  std::string b = rng.RandomDna(35);
  auto r = GlobalAlign(a, b, SubstitutionMatrix::Nucleotide(),
                       GapPenalties{open, extend});
  ASSERT_TRUE(r.ok());
  // Alignment of x with itself is never worse than with anything else.
  auto self = GlobalAlign(a, a, SubstitutionMatrix::Nucleotide(),
                          GapPenalties{open, extend});
  EXPECT_GE(self->score, r->score);
  EXPECT_EQ(self->score, static_cast<int64_t>(a.size()) * 2);
  // Score symmetry.
  auto rev = GlobalAlign(b, a, SubstitutionMatrix::Nucleotide(),
                         GapPenalties{open, extend});
  EXPECT_EQ(rev->score, r->score);
}

INSTANTIATE_TEST_SUITE_P(
    Penalties, GapSweepTest,
    ::testing::Combine(::testing::Values(0, -2, -5, -10),
                       ::testing::Values(-1, -2, -4)));

}  // namespace
}  // namespace genalg::align
