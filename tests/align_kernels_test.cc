#include "align/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <iterator>
#include <string>
#include <vector>

#include "align/aligner.h"
#include "align/scoring.h"
#include "base/rng.h"
#include "base/thread_pool.h"
#include "obs/metrics.h"
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

TEST(KernelTest, EmptyAndDegenerateInputs) {
  const auto& nuc = SubstitutionMatrix::Nucleotide();
  EXPECT_EQ(LocalAlignScore("", "", nuc).value(), 0);
  EXPECT_EQ(LocalAlignScore("ACGT", "", nuc).value(), 0);
  EXPECT_EQ(LocalAlignScore("", "ACGT", nuc).value(), 0);
  // Invalid gap penalties are rejected like the full aligners reject them.
  EXPECT_FALSE(LocalAlignScore("A", "A", nuc, GapPenalties{1, 0}).ok());
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

// ------------------------------------------------- Lane kernel == scalar.

// LocalAlignStatsPairs on the pairs (rows[k], b), which share one b.
Result<std::vector<AlignmentStats>> StatsBlock(
    const std::vector<std::string>& rows, std::string_view b,
    const SubstitutionMatrix& scoring, const GapPenalties& gaps,
    size_t lanes) {
  std::vector<std::pair<std::string_view, std::string_view>> pairs;
  for (const std::string& row : rows) pairs.emplace_back(row, b);
  ThreadPool serial(1);
  return LocalAlignStatsPairs(pairs, scoring, gaps, lanes, &serial);
}

// The shared form of LocalAlignStatsPairs at `lanes` lanes against
// LocalAlignStats on every
// row: random DNA, IUPAC and protein rows, shorter than 80 characters at
// the block sizes `counts` (around the lane counts) and of 300-700
// characters at the 32-lane block sizes, then the tie-heavy pairs, every
// `a` of them against each `b`. BLOSUM62's 24 classes put the pad class
// at table entry 24.
void ExpectLanesMatchScalar(size_t lanes,
                            std::initializer_list<size_t> counts) {
  Rng rng(2026);
  const auto check = [&](const std::vector<std::string>& rows,
                         const std::string& b,
                         const SubstitutionMatrix& scoring,
                         const GapPenalties& gaps) {
    auto block = StatsBlock(rows, b, scoring, gaps, lanes);
    ASSERT_TRUE(block.ok()) << block.status().ToString();
    ASSERT_EQ(block->size(), rows.size());
    for (size_t k = 0; k < rows.size(); ++k) {
      const AlignmentStats scalar =
          LocalAlignStats(rows[k], b, scoring, gaps).value();
      const AlignmentStats& lane = (*block)[k];
      EXPECT_EQ(lane.score, scalar.score)
          << "lanes=" << lanes << " a=" << rows[k] << " b=" << b
          << " open=" << gaps.open << " extend=" << gaps.extend;
      EXPECT_EQ(lane.length, scalar.length)
          << "lanes=" << lanes << " a=" << rows[k] << " b=" << b;
      EXPECT_EQ(lane.identities, scalar.identities)
          << "lanes=" << lanes << " a=" << rows[k] << " b=" << b;
    }
  };
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
  struct Shape {
    size_t min_length, spread;
    std::vector<size_t> counts;
  };
  const Shape shapes[] = {{0, 80, counts}, {300, 401, {1, 31, 32, 33, 64, 65}}};
  for (const Shape& shape : shapes) {
    for (const Case& c : cases) {
      for (const GapPenalties& gaps : kGapGrid) {
        for (size_t count : shape.counts) {
          const std::string b = rng.RandomString(rng.Uniform(64), c.alphabet);
          std::vector<std::string> rows;
          for (size_t k = 0; k < count; ++k) {
            rows.push_back(rng.RandomString(
                shape.min_length + rng.Uniform(shape.spread), c.alphabet));
          }
          check(rows, b, c.scoring, gaps);
        }
      }
    }
  }
  const std::vector<std::pair<std::string, std::string>> ties =
      TieHeavyPairs(&rng);
  std::vector<std::string> rows;
  for (const auto& [a, b] : ties) rows.push_back(a);
  for (const auto& [a, b] : ties) {
    for (const GapPenalties& gaps : kGapGrid) {
      check(rows, b, SubstitutionMatrix::Nucleotide(), gaps);
      check(rows, b, SubstitutionMatrix::Nucleotide(1, -1), gaps);
    }
  }
}

TEST(KernelTest, LaneStatsMatchScalarSse2) {
  ExpectLanesMatchScalar(8, {1, 7, 8, 9, 15, 16, 17});
}

TEST(KernelTest, LaneStatsMatchScalarAvx2) {
  if (StatsLanes() < 16) GTEST_SKIP() << "this CPU has no AVX2";
  ExpectLanesMatchScalar(16, {1, 7, 8, 9, 15, 16, 17});
}

TEST(KernelTest, LaneStatsMatchScalarAvx512) {
  if (StatsLanes() < 32) GTEST_SKIP() << "this CPU has no AVX-512BW";
  ExpectLanesMatchScalar(32, {1, 31, 32, 33, 64, 65});
}

TEST(KernelTest, LaneStatsRouteRowsPastTheInt16BoundToScalar) {
  Rng rng(2027);
  obs::Counter* scalar_rows =
      obs::Registry::Global().GetCounter("align.kernel.lane_scalar_rows");
  const std::string b = rng.RandomDna(40);
  std::string near = b;
  near[7] = near[7] == 'A' ? 'C' : 'A';
  // Rows of 16 001 bases pass |a| + |b| <= 16 000; a match score of 500
  // lets 40 columns reach 20 000; a mismatch of -9000 puts the whole
  // profile out of bounds.
  const std::string long_row = rng.RandomDna(8000) + near +
                               rng.RandomDna(8001 - near.size());
  const std::vector<std::string> rows = {near, long_row, rng.RandomDna(50),
                                         b, long_row.substr(0, 900)};
  struct Case {
    SubstitutionMatrix scoring;
    uint64_t scalar;
  };
  const Case cases[] = {
      {SubstitutionMatrix::Nucleotide(), 1},
      {SubstitutionMatrix::Nucleotide(500, -1), rows.size()},
      {SubstitutionMatrix::Nucleotide(2, -9000), rows.size()},
  };
  for (size_t lanes = 8; lanes <= StatsLanes(); lanes *= 2) {
    for (const Case& c : cases) {
      const uint64_t before = scalar_rows->value();
      auto block = StatsBlock(rows, b, c.scoring, GapPenalties(), lanes);
      ASSERT_TRUE(block.ok());
      EXPECT_EQ(scalar_rows->value() - before, c.scalar);
      for (size_t k = 0; k < rows.size(); ++k) {
        const AlignmentStats scalar =
            LocalAlignStats(rows[k], b, c.scoring).value();
        EXPECT_EQ((*block)[k].score, scalar.score) << "row " << k;
        EXPECT_EQ((*block)[k].length, scalar.length) << "row " << k;
        EXPECT_EQ((*block)[k].identities, scalar.identities) << "row " << k;
      }
    }
  }
  // The long row's verdict through the block form equals the row form's.
  auto pattern = NucleotideSequence::Dna(b).value();
  auto row = NucleotideSequence::Dna(long_row).value();
  EXPECT_EQ(ResemblesBlock(pattern, {&row}).value(),
            std::vector<bool>{Resembles(row, pattern).value()});
  for (size_t unsupported : {size_t{4}, size_t{12}, 2 * StatsLanes()}) {
    EXPECT_FALSE(StatsBlock(rows, b, SubstitutionMatrix::Nucleotide(),
                            GapPenalties(), unsupported)
                     .ok())
        << unsupported;
  }
}

// LocalAlignStatsPairs at `lanes` lanes on pairs whose a and b both
// differ from lane to lane, against LocalAlignStats on every pair. Each
// side is 1-700 characters of plain DNA, IUPAC codes with '-' and invalid
// characters, DNA with an N run, a homopolymer or a tandem repeat; half of
// the b's are mutated copies of part of their a, so most lanes align long
// and end on ties. Each pass size also gets one empty pair and, at the
// larger sizes, two pairs past the int16 bound, which must run the scalar
// kernel and count in align.kernel.lane_scalar_rows.
void ExpectPairLanesMatchScalar(size_t lanes) {
  Rng rng(2029);
  obs::Counter* scalar_rows =
      obs::Registry::Global().GetCounter("align.kernel.lane_scalar_rows");
  const auto draw = [&](size_t n) -> std::string {
    switch (rng.Uniform(5)) {
      case 0:
        return rng.RandomString(n, kDna);
      case 1:
        return rng.RandomString(n, kIupac);
      case 2: {
        std::string s = rng.RandomDna(n);
        const size_t at = rng.Uniform(n);
        std::fill_n(s.begin() + at, std::min(n - at, 1 + rng.Uniform(60)),
                    'N');
        return s;
      }
      case 3:
        return std::string(n, rng.Pick(kDna));
      default: {
        const std::string unit = rng.RandomString(1 + rng.Uniform(3), kDna);
        std::string s;
        while (s.size() < n) s += unit;
        return s.substr(0, n);
      }
    }
  };
  const auto mutate = [&](std::string s) {
    std::string out;
    for (size_t i = 0; i < s.size(); ++i) {
      if (rng.Bernoulli(0.03)) continue;  // Deletion.
      if (rng.Bernoulli(0.03)) {
        out += rng.RandomString(1 + rng.Uniform(4), kDna);  // Insertion.
      }
      out.push_back(rng.Bernoulli(0.08) ? rng.Pick("ACGTN-") : s[i]);
    }
    return out.empty() ? s : out;
  };
  const SubstitutionMatrix scorings[] = {SubstitutionMatrix::Nucleotide(),
                                         SubstitutionMatrix::Nucleotide(1, -1)};
  ThreadPool serial(1);
  size_t round = 0;
  for (const SubstitutionMatrix& scoring : scorings) {
    for (size_t count : {1, 31, 32, 33, 64, 65}) {
      const GapPenalties gaps = kGapGrid[round++ % std::size(kGapGrid)];
      std::vector<std::pair<std::string, std::string>> store;
      for (size_t k = 0; k < count; ++k) {
        std::string a = draw(1 + rng.Uniform(700));
        std::string b = k % 2 == 0
                            ? mutate(a.substr(rng.Uniform(a.size())))
                            : draw(1 + rng.Uniform(700));
        store.emplace_back(std::move(a), std::move(b));
      }
      uint64_t past_bound = 0;
      if (count > 1) {
        store.emplace_back("", draw(1 + rng.Uniform(50)));
        const std::string b = rng.RandomDna(40);
        store.emplace_back(rng.RandomDna(16001 - b.size()) + b, b);
        store.emplace_back(b, rng.RandomDna(20000));
        past_bound = 2;
      }
      std::vector<std::pair<std::string_view, std::string_view>> pairs(
          store.begin(), store.end());
      const uint64_t before = scalar_rows->value();
      auto stats = LocalAlignStatsPairs(pairs, scoring, gaps, lanes, &serial);
      ASSERT_TRUE(stats.ok()) << stats.status().ToString();
      EXPECT_EQ(scalar_rows->value() - before, past_bound) << count;
      ASSERT_EQ(stats->size(), pairs.size());
      for (size_t k = 0; k < pairs.size(); ++k) {
        const auto& [a, b] = store[k];
        const AlignmentStats scalar =
            LocalAlignStats(a, b, scoring, gaps).value();
        const AlignmentStats& lane = (*stats)[k];
        EXPECT_EQ(lane.score, scalar.score)
            << "lanes=" << lanes << " count=" << count << " pair " << k
            << " a=" << a << " b=" << b << " open=" << gaps.open
            << " extend=" << gaps.extend;
        EXPECT_EQ(lane.length, scalar.length)
            << "lanes=" << lanes << " count=" << count << " pair " << k;
        EXPECT_EQ(lane.identities, scalar.identities)
            << "lanes=" << lanes << " count=" << count << " pair " << k;
      }
    }
  }
}

TEST(KernelTest, PairLanesMatchScalarSse2) { ExpectPairLanesMatchScalar(8); }

TEST(KernelTest, PairLanesMatchScalarAvx2) {
  if (StatsLanes() < 16) GTEST_SKIP() << "this CPU has no AVX2";
  ExpectPairLanesMatchScalar(16);
}

TEST(KernelTest, PairLanesMatchScalarAvx512) {
  if (StatsLanes() < 32) GTEST_SKIP() << "this CPU has no AVX-512BW";
  ExpectPairLanesMatchScalar(32);
}

TEST(KernelTest, ResemblesBlockMatchesResemblesPerRow) {
  Rng rng(2028);
  const std::string pattern_chars = rng.RandomDna(60);
  std::vector<NucleotideSequence> store;
  store.push_back(NucleotideSequence::Dna("").value());
  store.push_back(NucleotideSequence::Dna("ACG").value());  // < 0.8 * 16.
  for (int k = 0; k < 40; ++k) {
    std::string s = rng.RandomDna(20 + rng.Uniform(200));
    if (k % 2 == 0) {
      // Embed a mutated copy of (part of) the pattern.
      std::string copy = pattern_chars.substr(rng.Uniform(20));
      for (char& ch : copy) {
        if (rng.Bernoulli(0.1)) ch = rng.Pick("ACGTN");
      }
      s.insert(rng.Uniform(s.size()), copy);
    }
    store.push_back(NucleotideSequence::Dna(s).value());
  }
  // The pattern's RNA transcript: U and T share a residue class, so it
  // scores as the pattern does, but they are not identical.
  std::string transcript = pattern_chars;
  std::replace(transcript.begin(), transcript.end(), 'T', 'U');
  store.push_back(NucleotideSequence::Rna(transcript).value());
  std::vector<const NucleotideSequence*> rows;
  for (const auto& s : store) rows.push_back(&s);
  const auto empty = NucleotideSequence::Dna("").value();
  const auto pattern = NucleotideSequence::Dna(pattern_chars).value();
  for (const NucleotideSequence* b : {&pattern, &empty}) {
    for (double min_identity : {0.0, 0.5, 0.8, 1.0}) {
      for (size_t min_overlap : {size_t{0}, size_t{16}, size_t{64}}) {
        auto block = ResemblesBlock(*b, rows, min_identity, min_overlap);
        ASSERT_TRUE(block.ok());
        ASSERT_EQ(block->size(), rows.size());
        for (size_t k = 0; k < rows.size(); ++k) {
          EXPECT_EQ((*block)[k],
                    Resembles(*rows[k], *b, min_identity, min_overlap).value())
              << "row " << k << " identity=" << min_identity
              << " overlap=" << min_overlap;
        }
      }
    }
  }
  EXPECT_TRUE(ResemblesBlock(pattern, {}).value().empty());
  EXPECT_FALSE(ResemblesBlock(pattern, rows, 1.5, 0).ok());
  EXPECT_FALSE(ResemblesBlock(pattern, rows, -0.1, 0).ok());
}

// ------------------------------------------ Resembles == full alignment.

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

// Every verdict of BatchResembles, hit or miss, against the full
// alignment: pairs among mutated copies, then one query as `a` against
// targets that hold mutated parts of it, as Mediator::SimilarTo pairs
// them. Every pool size gives the same verdicts.
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
  const auto query = NucleotideSequence::Dna(rng.RandomDna(150)).value();
  std::vector<NucleotideSequence> targets;
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
    targets.push_back(NucleotideSequence::Dna(s).value());
  }
  std::vector<std::pair<const NucleotideSequence*,
                        const NucleotideSequence*>>
      pairs;
  for (size_t i = 0; i < store.size(); ++i) {
    for (size_t j = i + 1; j < store.size(); j += 3) {
      pairs.emplace_back(&store[i], &store[j]);
    }
  }
  for (const NucleotideSequence& target : targets) {
    pairs.emplace_back(&query, &target);
  }
  const auto same = [](const std::vector<SimilarityVerdict>& x,
                       const std::vector<SimilarityVerdict>& y) {
    if (x.size() != y.size()) return false;
    for (size_t p = 0; p < x.size(); ++p) {
      if (x[p].hit != y[p].hit || x[p].identity != y[p].identity ||
          x[p].score != y[p].score) {
        return false;
      }
    }
    return true;
  };
  ThreadPool serial(1);
  auto baseline = BatchResembles(pairs, 0.8, 16, &serial);
  ASSERT_TRUE(baseline.ok());
  ASSERT_EQ(baseline->size(), pairs.size());
  size_t hits = 0;
  for (size_t p = 0; p < pairs.size(); ++p) {
    const Alignment full = LocalAlign(*pairs[p].first, *pairs[p].second)
                               .value();
    const bool hit = full.Length() >= 16 && full.Identity() >= 0.8;
    const SimilarityVerdict& verdict = (*baseline)[p];
    EXPECT_EQ(verdict.hit, hit) << "pair " << p;
    EXPECT_EQ(verdict.hit,
              Resembles(*pairs[p].first, *pairs[p].second, 0.8, 16).value())
        << "pair " << p;
    if (hit) {
      ++hits;
      EXPECT_DOUBLE_EQ(verdict.identity, full.Identity()) << "pair " << p;
      EXPECT_EQ(verdict.score, full.score) << "pair " << p;
    } else {
      EXPECT_EQ(verdict.identity, 0.0) << "pair " << p;
      EXPECT_EQ(verdict.score, 0) << "pair " << p;
    }
  }
  EXPECT_GE(hits, 8u);
  EXPECT_LT(hits, pairs.size());
  for (size_t threads : {2u, 8u}) {
    ThreadPool pool(threads);
    for (int repeat = 0; repeat < 3; ++repeat) {
      auto verdicts = BatchResembles(pairs, 0.8, 16, &pool);
      ASSERT_TRUE(verdicts.ok());
      EXPECT_TRUE(same(*verdicts, *baseline)) << "threads=" << threads;
    }
  }
  EXPECT_FALSE(BatchResembles(pairs, 1.5, 16, &serial).ok());
  EXPECT_FALSE(BatchResembles(pairs, -0.1, 16, &serial).ok());
  EXPECT_FALSE(BatchResembles({}, 1.5, 16, &serial).ok());
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
    if (trial % 2 == 0) {
      EXPECT_EQ(
          LocalAlignScore(a, b, nuc, GapPenalties(), &scratch).value(),
          LocalAlignScore(a, b, nuc).value());
    } else {
      const AlignmentStats reused =
          LocalAlignStats(a, b, nuc, GapPenalties(), &scratch).value();
      const AlignmentStats fresh = LocalAlignStats(a, b, nuc).value();
      EXPECT_EQ(reused.score, fresh.score);
      EXPECT_EQ(reused.length, fresh.length);
      EXPECT_EQ(reused.identities, fresh.identities);
    }
  }
}

}  // namespace
}  // namespace genalg::align
