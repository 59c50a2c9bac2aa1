#include "align/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "align/aligner.h"
#include "align/scoring.h"
#include "base/rng.h"
#include "base/thread_pool.h"
#include "seq/nucleotide_sequence.h"

namespace genalg::align {
namespace {

using seq::NucleotideSequence;

// Alphabets the sweep draws from: plain DNA, IUPAC-ambiguous DNA (with
// gap and invalid characters mixed in), and the BLOSUM symbol set.
constexpr std::string_view kDna = "ACGT";
constexpr std::string_view kIupac = "ACGTRYSWKMBDHVNacgtn-?";
constexpr std::string_view kProtein = "ARNDCQEGHILKMFPSTWYVBZX*jq";

const GapPenalties kGapGrid[] = {
    {-5, -1}, {-2, -2}, {-10, -1}, {0, 0}, {-1, 0}, {-7, -3}};

// Columns of a traced-back alignment whose two characters are equal and
// not a gap: the count LocalAlignStats carries forward.
size_t IdenticalColumns(const Alignment& alignment) {
  size_t same = 0;
  for (size_t k = 0; k < alignment.aligned_a.size(); ++k) {
    if (alignment.aligned_a[k] == alignment.aligned_b[k] &&
        alignment.aligned_a[k] != '-') {
      ++same;
    }
  }
  return same;
}

// ------------------------------------------------- Score-only == full DP.

TEST(KernelTest, LocalScoreMatchesFullDpPropertySweep) {
  Rng rng(2024);
  AlignScratch scratch;
  struct Case {
    std::string_view alphabet;
    const SubstitutionMatrix& scoring;
  };
  const Case cases[] = {
      {kDna, SubstitutionMatrix::Nucleotide()},
      {kDna, SubstitutionMatrix::Nucleotide(3, -2)},
      {kIupac, SubstitutionMatrix::Nucleotide()},
      {kProtein, SubstitutionMatrix::Blosum62()},
  };
  for (const Case& c : cases) {
    for (const GapPenalties& gaps : kGapGrid) {
      for (int trial = 0; trial < 12; ++trial) {
        const std::string a =
            rng.RandomString(rng.Uniform(64), c.alphabet);
        const std::string b =
            rng.RandomString(rng.Uniform(64), c.alphabet);
        auto full = LocalAlign(a, b, c.scoring, gaps);
        ASSERT_TRUE(full.ok());
        auto fast = LocalAlignScore(a, b, c.scoring, gaps, &scratch);
        ASSERT_TRUE(fast.ok());
        EXPECT_EQ(*fast, full->score)
            << "local a=" << a << " b=" << b << " open=" << gaps.open
            << " extend=" << gaps.extend;
      }
    }
  }
}

TEST(KernelTest, GlobalScoreMatchesFullDpPropertySweep) {
  Rng rng(77);
  AlignScratch scratch;
  struct Case {
    std::string_view alphabet;
    const SubstitutionMatrix& scoring;
  };
  const Case cases[] = {
      {kDna, SubstitutionMatrix::Nucleotide()},
      {kIupac, SubstitutionMatrix::Nucleotide(1, -3)},
      {kProtein, SubstitutionMatrix::Blosum62()},
  };
  for (const Case& c : cases) {
    for (const GapPenalties& gaps : kGapGrid) {
      for (int trial = 0; trial < 12; ++trial) {
        const std::string a =
            rng.RandomString(rng.Uniform(48), c.alphabet);
        const std::string b =
            rng.RandomString(rng.Uniform(48), c.alphabet);
        auto full = GlobalAlign(a, b, c.scoring, gaps);
        ASSERT_TRUE(full.ok());
        auto fast = GlobalAlignScore(a, b, c.scoring, gaps, &scratch);
        ASSERT_TRUE(fast.ok());
        EXPECT_EQ(*fast, full->score)
            << "global a=" << a << " b=" << b << " open=" << gaps.open
            << " extend=" << gaps.extend;
      }
    }
  }
}

TEST(KernelTest, EmptyAndDegenerateInputs) {
  const auto& nuc = SubstitutionMatrix::Nucleotide();
  EXPECT_EQ(LocalAlignScore("", "", nuc).value(), 0);
  EXPECT_EQ(LocalAlignScore("ACGT", "", nuc).value(), 0);
  EXPECT_EQ(LocalAlignScore("", "ACGT", nuc).value(), 0);
  EXPECT_EQ(GlobalAlignScore("", "", nuc).value(), 0);
  // Global vs one empty side: pure gap run.
  GapPenalties gaps{-5, -1};
  EXPECT_EQ(GlobalAlignScore("ACG", "", nuc, gaps).value(),
            GlobalAlign("ACG", "", nuc, gaps)->score);
  // Invalid gap penalties are rejected like the full aligners reject them.
  EXPECT_FALSE(LocalAlignScore("A", "A", nuc, GapPenalties{1, 0}).ok());
  EXPECT_FALSE(GlobalAlignScore("A", "A", nuc, GapPenalties{0, 2}).ok());
}

TEST(KernelTest, Int32OverflowGuardFallsBackToFullDp) {
  // Scores near 10^7 per cell overflow the int32 rolling rows for even
  // modest lengths; the kernel must detect that and agree with the
  // int64 full DP anyway.
  const auto big = SubstitutionMatrix::Nucleotide(10'000'000, -9'000'000);
  Rng rng(5);
  const std::string a = rng.RandomDna(300);
  const std::string b = rng.RandomDna(300);
  GapPenalties gaps{-8'000'000, -1'000'000};
  auto full = LocalAlign(a, b, big, gaps);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(LocalAlignScore(a, b, big, gaps).value(), full->score);
  EXPECT_EQ(GlobalAlignScore(a, b, big, gaps).value(),
            GlobalAlign(a, b, big, gaps)->score);
  const AlignmentStats stats = LocalAlignStats(a, b, big, gaps).value();
  EXPECT_EQ(stats.score, full->score);
  EXPECT_EQ(stats.length, full->Length());
  EXPECT_EQ(stats.identities, IdenticalColumns(*full));
}

// ------------------------------------------ Carried stats == traceback.

// Inputs whose DP is full of ties between predecessors, between gap
// extension and gap opening, and between equal-scoring end cells.
std::vector<std::pair<std::string, std::string>> TieHeavyPairs(Rng* rng) {
  std::vector<std::pair<std::string, std::string>> pairs = {
      {"AAAAAAAAAA", "AAAAAAA"},
      {"AAAAAAA", "AAAAAAAAAA"},
      {"ACACACACACAC", "ACACACAC"},
      {"ACGACGACGACG", "ACGACG"},
      {"ACGTTTTACGT", "ACGTACGT"},
      {"ACGTACGT", "ACGTTTTACGT"},
      {"ACGTACGTACGT", "TACGTACG"},
      {"ACGTTGCAACGT", "ACGTNNNNACGT"},
      {"RYSWKMBDHVN", "ACGTACGTACG"},
      {"ACGT-ACGT", "ACGT-ACGT"},
      {"acgtACGT", "ACGTacgt"},
      {"", "ACGT"},
      {"ACGT", ""},
      {"", ""},
  };
  // DNA against its RNA transcript: T and U share a residue class and
  // score as a match, but are different characters, so never identities.
  const std::string dna = rng->RandomDna(60);
  std::string rna = dna;
  std::replace(rna.begin(), rna.end(), 'T', 'U');
  pairs.emplace_back(dna, rna);
  pairs.emplace_back(rna, dna);
  for (int trial = 0; trial < 12; ++trial) {
    // Gap-heavy copies: several indels of 1-6 bases plus substitutions.
    const std::string a = rng->RandomString(20 + rng->Uniform(60), "ACGT");
    std::string b;
    for (size_t i = 0; i < a.size(); ++i) {
      if (rng->Bernoulli(0.08)) {
        i += rng->Uniform(6);  // Deletion.
        continue;
      }
      if (rng->Bernoulli(0.08)) {
        b += rng->RandomString(1 + rng->Uniform(6), "ACGT");  // Insertion.
      }
      b.push_back(rng->Bernoulli(0.05) ? rng->Pick("ACGTN") : a[i]);
    }
    pairs.emplace_back(a, b);
    // Short-period repeats: tandem copies of a 1-3 base unit.
    const std::string unit = rng->RandomString(1 + rng->Uniform(3), "ACGT");
    std::string repeat_a, repeat_b;
    for (size_t k = 1 + rng->Uniform(12); k > 0; --k) repeat_a += unit;
    for (size_t k = 1 + rng->Uniform(12); k > 0; --k) repeat_b += unit;
    pairs.emplace_back(repeat_a, repeat_b);
  }
  return pairs;
}

TEST(KernelTest, LocalStatsMatchTracebackPropertySweep) {
  Rng rng(2025);
  AlignScratch scratch;
  struct Case {
    std::string_view alphabet;
    const SubstitutionMatrix& scoring;
  };
  const Case cases[] = {
      {kDna, SubstitutionMatrix::Nucleotide()},
      {kDna, SubstitutionMatrix::Nucleotide(1, -1)},
      {kIupac, SubstitutionMatrix::Nucleotide()},
      {kProtein, SubstitutionMatrix::Blosum62()},
  };
  const auto check = [&](const std::string& a, const std::string& b,
                         const SubstitutionMatrix& scoring,
                         const GapPenalties& gaps) {
    auto full = LocalAlign(a, b, scoring, gaps);
    ASSERT_TRUE(full.ok());
    auto stats = LocalAlignStats(a, b, scoring, gaps, &scratch);
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->score, full->score)
        << "a=" << a << " b=" << b << " open=" << gaps.open
        << " extend=" << gaps.extend;
    EXPECT_EQ(stats->length, full->Length())
        << "a=" << a << " b=" << b << " open=" << gaps.open
        << " extend=" << gaps.extend;
    EXPECT_EQ(stats->identities, IdenticalColumns(*full))
        << "a=" << a << " b=" << b << " open=" << gaps.open
        << " extend=" << gaps.extend;
    EXPECT_EQ(stats->Identity(), full->Identity());
  };
  for (const Case& c : cases) {
    for (const GapPenalties& gaps : kGapGrid) {
      for (int trial = 0; trial < 12; ++trial) {
        check(rng.RandomString(rng.Uniform(64), c.alphabet),
              rng.RandomString(rng.Uniform(64), c.alphabet), c.scoring,
              gaps);
      }
    }
  }
  const std::vector<std::pair<std::string, std::string>> ties =
      TieHeavyPairs(&rng);
  for (const auto& [a, b] : ties) {
    for (const GapPenalties& gaps : kGapGrid) {
      check(a, b, SubstitutionMatrix::Nucleotide(), gaps);
      check(a, b, SubstitutionMatrix::Nucleotide(1, -1), gaps);
    }
  }
}

// ----------------------------------------------------- Early termination.

TEST(KernelTest, ReachesAgreesWithExactScoreAcrossThresholds) {
  Rng rng(23);
  AlignScratch scratch;
  const auto& nuc = SubstitutionMatrix::Nucleotide();
  for (const GapPenalties& gaps : kGapGrid) {
    for (int trial = 0; trial < 12; ++trial) {
      const std::string a = rng.RandomString(rng.Uniform(50), kIupac);
      const std::string b = rng.RandomString(rng.Uniform(50), kIupac);
      const int64_t exact = LocalAlignScore(a, b, nuc, gaps).value();
      const int64_t probes[] = {-3, 0, 1,         exact - 2, exact - 1,
                                exact, exact + 1, exact + 2, exact + 100};
      for (int64_t threshold : probes) {
        auto reached =
            LocalScoreReaches(a, b, nuc, gaps, threshold, &scratch);
        ASSERT_TRUE(reached.ok());
        EXPECT_EQ(*reached, exact >= threshold)
            << "a=" << a << " b=" << b << " threshold=" << threshold;
      }
    }
  }
}

// ------------------------------------------- Resembles screen soundness.

// Reference implementation: the pre-kernel slow path.
Result<bool> ResemblesByFullAlignment(const NucleotideSequence& a,
                                      const NucleotideSequence& b,
                                      double min_identity,
                                      size_t min_overlap) {
  GENALG_ASSIGN_OR_RETURN(Alignment best, LocalAlign(a, b));
  if (best.Length() < min_overlap) return false;
  return best.Identity() >= min_identity;
}

TEST(KernelTest, ResemblesVerdictsMatchFullEvaluation) {
  Rng rng(31);
  const double identities[] = {0.0, 0.5, 0.8, 0.95, 1.0};
  const size_t overlaps[] = {0, 4, 16, 64, 500};
  for (int trial = 0; trial < 40; ++trial) {
    // Mix of related pairs (mutated copies, half of them with indels)
    // and unrelated noise; half the trials draw IUPAC codes as well.
    const std::string_view alphabet =
        trial % 4 < 2 ? kDna : std::string_view("ACGTRYSWKMBDHVN");
    const bool indels = trial % 8 < 4;
    std::string sa = rng.RandomString(40 + rng.Uniform(120), alphabet);
    std::string sb;
    if (trial % 2 == 0) {
      for (size_t i = 0; i < sa.size(); ++i) {
        if (indels && rng.Bernoulli(0.03)) {
          i += rng.Uniform(4);  // Deletion.
          continue;
        }
        if (indels && rng.Bernoulli(0.03)) {
          sb += rng.RandomString(1 + rng.Uniform(4), alphabet);
        }
        sb.push_back(rng.Bernoulli(0.12) ? rng.Pick(alphabet) : sa[i]);
      }
    } else {
      sb = rng.RandomString(40 + rng.Uniform(120), alphabet);
    }
    auto a = NucleotideSequence::Dna(sa).value();
    auto b = NucleotideSequence::Dna(sb).value();
    for (double min_identity : identities) {
      for (size_t min_overlap : overlaps) {
        const bool expected =
            ResemblesByFullAlignment(a, b, min_identity, min_overlap)
                .value();
        EXPECT_EQ(Resembles(a, b, min_identity, min_overlap).value(),
                  expected)
            << "a=" << sa << " b=" << sb << " identity=" << min_identity
            << " overlap=" << min_overlap;
      }
    }
  }
}

TEST(KernelTest, ResemblesEdgeVerdicts) {
  auto empty = NucleotideSequence::Dna("").value();
  auto acgt = NucleotideSequence::Dna("ACGT").value();
  EXPECT_FALSE(Resembles(empty, acgt, 0.8, 16).value());
  EXPECT_FALSE(Resembles(empty, empty, 0.0, 1).value());
  EXPECT_TRUE(Resembles(empty, empty, 0.0, 0).value());
  EXPECT_FALSE(Resembles(acgt, acgt, 1.5, 0).ok());  // Out of range.
  EXPECT_FALSE(Resembles(acgt, acgt, -0.1, 0).ok());
  EXPECT_TRUE(Resembles(acgt, acgt, 1.0, 4).value());
}

// --------------------------------------------------------- Batch drivers.

TEST(KernelTest, BatchResemblesIdenticalAcrossPoolSizes) {
  Rng rng(41);
  std::vector<NucleotideSequence> store;
  for (int i = 0; i < 24; ++i) {
    std::string s = rng.RandomDna(60 + rng.Uniform(80));
    if (i % 3 == 0 && !store.empty()) {
      s = store.back().ToString();
      for (char& ch : s) {
        if (rng.Bernoulli(0.1)) ch = rng.Pick(kDna);
      }
    }
    store.push_back(NucleotideSequence::Dna(s).value());
  }
  std::vector<std::pair<const NucleotideSequence*,
                        const NucleotideSequence*>>
      pairs;
  for (size_t i = 0; i < store.size(); ++i) {
    for (size_t j = i + 1; j < store.size(); j += 3) {
      pairs.emplace_back(&store[i], &store[j]);
    }
  }
  ThreadPool serial(1);
  auto baseline = BatchResembles(pairs, 0.8, 16, &serial);
  ASSERT_TRUE(baseline.ok());
  // The serial batch equals the one-call-at-a-time loop...
  for (size_t p = 0; p < pairs.size(); ++p) {
    EXPECT_EQ((*baseline)[p],
              Resembles(*pairs[p].first, *pairs[p].second, 0.8, 16).value());
  }
  // ...and every pool size reproduces it, with per-worker scratch reuse.
  for (size_t threads : {2u, 8u}) {
    ThreadPool pool(threads);
    for (int repeat = 0; repeat < 3; ++repeat) {
      auto verdicts = BatchResembles(pairs, 0.8, 16, &pool);
      ASSERT_TRUE(verdicts.ok());
      EXPECT_EQ(*verdicts, *baseline) << "threads=" << threads;
    }
  }
}

TEST(KernelTest, BatchSimilarityMatchesDirectLoop) {
  Rng rng(43);
  auto query = NucleotideSequence::Dna(rng.RandomDna(150)).value();
  std::vector<NucleotideSequence> store;
  for (int i = 0; i < 16; ++i) {
    std::string s;
    if (i % 2 == 0) {
      s = query.ToString().substr(i, 100 - i);
      for (char& ch : s) {
        if (rng.Bernoulli(0.08)) ch = rng.Pick(kDna);
      }
      s = rng.RandomDna(10) + s;
    } else {
      s = rng.RandomDna(120);
    }
    store.push_back(NucleotideSequence::Dna(s).value());
  }
  std::vector<const NucleotideSequence*> targets;
  for (const auto& s : store) targets.push_back(&s);
  for (size_t threads : {1u, 4u}) {
    ThreadPool pool(threads);
    auto verdicts = BatchSimilarity(query, targets, 0.8, 16, &pool);
    ASSERT_TRUE(verdicts.ok());
    ASSERT_EQ(verdicts->size(), targets.size());
    for (size_t i = 0; i < targets.size(); ++i) {
      Alignment full = LocalAlign(query, *targets[i]).value();
      const bool hit =
          full.Length() >= 16 && full.Identity() >= 0.8;
      EXPECT_EQ((*verdicts)[i].hit, hit) << "target " << i;
      if (hit) {
        EXPECT_DOUBLE_EQ((*verdicts)[i].identity, full.Identity());
        EXPECT_EQ((*verdicts)[i].score, full.score);
      }
    }
  }
}

TEST(KernelTest, ScratchReuseDoesNotLeakStateAcrossCalls) {
  Rng rng(47);
  AlignScratch scratch;
  const auto& nuc = SubstitutionMatrix::Nucleotide();
  // Alternate shapes and kernels against one scratch; every answer must
  // match a fresh-scratch evaluation.
  for (int trial = 0; trial < 60; ++trial) {
    const std::string a = rng.RandomString(rng.Uniform(70), kIupac);
    const std::string b = rng.RandomString(rng.Uniform(70), kIupac);
    switch (trial % 3) {
      case 0:
        EXPECT_EQ(LocalAlignScore(a, b, nuc, GapPenalties(), &scratch)
                      .value(),
                  LocalAlignScore(a, b, nuc).value());
        break;
      case 1:
        EXPECT_EQ(GlobalAlignScore(a, b, nuc, GapPenalties(), &scratch)
                      .value(),
                  GlobalAlignScore(a, b, nuc).value());
        break;
      default: {
        const AlignmentStats reused =
            LocalAlignStats(a, b, nuc, GapPenalties(), &scratch).value();
        const AlignmentStats fresh = LocalAlignStats(a, b, nuc).value();
        EXPECT_EQ(reused.score, fresh.score);
        EXPECT_EQ(reused.length, fresh.length);
        EXPECT_EQ(reused.identities, fresh.identities);
      }
    }
  }
}

}  // namespace
}  // namespace genalg::align
