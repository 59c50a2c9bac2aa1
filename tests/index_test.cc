#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "base/rng.h"
#include "base/thread_pool.h"
#include "index/kmer_index.h"
#include "index/suffix_array.h"
#include "seq/nucleotide_sequence.h"

namespace genalg::index {
namespace {

using seq::NucleotideSequence;

// ------------------------------------------------------------ SuffixArray.

TEST(SuffixArrayTest, BananaClassic) {
  auto sa = SuffixArray::Build("banana");
  // Suffixes sorted: a, ana, anana, banana, na, nana.
  EXPECT_EQ(sa.sa(), (std::vector<uint32_t>{5, 3, 1, 0, 4, 2}));
  EXPECT_EQ(sa.lcp(), (std::vector<uint32_t>{0, 1, 3, 0, 0, 2}));
  EXPECT_EQ(sa.LongestRepeatedSubstring(), 3u);  // "ana".
}

TEST(SuffixArrayTest, EmptyText) {
  auto sa = SuffixArray::Build("");
  EXPECT_EQ(sa.size(), 0u);
  EXPECT_FALSE(sa.Contains("A"));
  EXPECT_TRUE(sa.FindAll("A").empty());
}

TEST(SuffixArrayTest, FindAllMatchesNaiveScan) {
  Rng rng(41);
  std::string text = rng.RandomDna(3000);
  auto sa = SuffixArray::Build(text);
  for (size_t plen : {1u, 2u, 4u, 7u, 12u}) {
    for (int trial = 0; trial < 10; ++trial) {
      std::string pattern =
          rng.Bernoulli(0.7)
              ? text.substr(rng.Uniform(text.size() - plen), plen)
              : rng.RandomDna(plen);
      std::vector<uint64_t> naive;
      for (size_t pos = 0; pos + pattern.size() <= text.size(); ++pos) {
        if (text.compare(pos, pattern.size(), pattern) == 0) {
          naive.push_back(pos);
        }
      }
      EXPECT_EQ(sa.FindAll(pattern), naive) << "len=" << plen;
      EXPECT_EQ(sa.CountOccurrences(pattern), naive.size());
      EXPECT_EQ(sa.Contains(pattern), !naive.empty());
    }
  }
}

TEST(SuffixArrayTest, PatternLongerThanText) {
  auto sa = SuffixArray::Build("ACG");
  EXPECT_FALSE(sa.Contains("ACGT"));
  EXPECT_TRUE(sa.FindAll("ACGT").empty());
}

TEST(SuffixArrayTest, EmptyPatternMatchesEverywhere) {
  auto sa = SuffixArray::Build("ACG");
  EXPECT_TRUE(sa.Contains(""));
  EXPECT_EQ(sa.FindAll("").size(), 3u);
  EXPECT_EQ(sa.CountOccurrences(""), 3u);
}

TEST(SuffixArrayTest, SuffixOrderIsCorrectProperty) {
  Rng rng(43);
  std::string text = rng.RandomDna(500);
  auto sa = SuffixArray::Build(text);
  // The permutation must sort the suffixes.
  for (size_t r = 1; r < sa.sa().size(); ++r) {
    std::string_view prev(text.data() + sa.sa()[r - 1],
                          text.size() - sa.sa()[r - 1]);
    std::string_view cur(text.data() + sa.sa()[r],
                         text.size() - sa.sa()[r]);
    EXPECT_LT(prev, cur);
    // And the LCP entry must be exact.
    size_t common = 0;
    while (common < prev.size() && common < cur.size() &&
           prev[common] == cur[common]) {
      ++common;
    }
    EXPECT_EQ(sa.lcp()[r], common);
  }
}

TEST(SuffixArrayTest, RadixBuildMatchesNaiveSort) {
  // Texts chosen to stress the doubling rounds: runs, period-2 repeats,
  // tiny alphabets, and a sentinel-free random tail.
  Rng rng(101);
  std::vector<std::string> texts = {
      "",
      "a",
      "aaaaaaaaaaaaaaaa",
      "abababababababab",
      "mississippi",
      std::string(100, 'A') + "C" + std::string(100, 'A'),
      rng.RandomString(257, "AC"),
      rng.RandomDna(400),
  };
  for (const std::string& text : texts) {
    auto sa = SuffixArray::Build(text);
    std::vector<uint32_t> naive(text.size());
    std::iota(naive.begin(), naive.end(), 0);
    std::sort(naive.begin(), naive.end(), [&](uint32_t a, uint32_t b) {
      return std::string_view(text).substr(a) <
             std::string_view(text).substr(b);
    });
    EXPECT_EQ(sa.sa(), naive) << "text=" << text.substr(0, 32);
  }
}

TEST(SuffixArrayTest, BuildsOverNucleotideSequence) {
  auto s = NucleotideSequence::Dna("ATTGCCATA").value();
  auto sa = SuffixArray::Build(s);
  EXPECT_TRUE(sa.Contains("GCC"));
  EXPECT_EQ(sa.FindAll("AT"), (std::vector<uint64_t>{0, 6}));
}

// -------------------------------------------------------------- KmerIndex.

std::vector<NucleotideSequence> MakeCorpus(Rng* rng, size_t docs,
                                           size_t len) {
  std::vector<NucleotideSequence> corpus;
  for (size_t i = 0; i < docs; ++i) {
    corpus.push_back(NucleotideSequence::Dna(rng->RandomDna(len)).value());
  }
  return corpus;
}

uint64_t Word(std::string_view kmer) {
  uint64_t packed = 0;
  EXPECT_TRUE(PackKmer(NucleotideSequence::Dna(kmer).value(), 0,
                       kmer.size(), &packed));
  return packed;
}

std::vector<uint64_t> Docs(const KmerIndex& idx, uint64_t word) {
  std::span<const uint64_t> docs = idx.Postings(word);
  return std::vector<uint64_t>(docs.begin(), docs.end());
}

TEST(KmerIndexTest, RejectsBadK) {
  std::vector<NucleotideSequence> corpus;
  EXPECT_TRUE(KmerIndex::Build(corpus, 3).status().IsInvalidArgument());
  EXPECT_TRUE(KmerIndex::Build(corpus, 32).status().IsInvalidArgument());
  EXPECT_TRUE(KmerIndex::Build(corpus, 8).ok());
}

TEST(KmerIndexTest, PostingsListEachContainingDocumentOnce) {
  auto a = NucleotideSequence::Dna("ACGTACGTACGT").value();  // Twice.
  auto b = NucleotideSequence::Dna("TTACGTACGT").value();
  auto idx = KmerIndex::Build({a, b}, 8).value();
  EXPECT_EQ(Docs(idx, Word("ACGTACGT")), (std::vector<uint64_t>{0, 1}));
  EXPECT_EQ(Docs(idx, Word("TTACGTAC")), (std::vector<uint64_t>{1}));
  EXPECT_TRUE(idx.Postings(Word("AAAAAAAA")).empty());
}

TEST(KmerIndexTest, AmbiguousWindowsPostedUnderReservedWord) {
  auto s = NucleotideSequence::Dna("ACGTNACGT").value();
  auto clean = NucleotideSequence::Dna("ACGTACGT").value();
  auto idx = KmerIndex::Build({s, clean}, 4).value();
  // Windows 1..4 cover the N: they post document 0 under the reserved
  // word, and "ACGT" (at 0 and 5) lists it once.
  EXPECT_EQ(Docs(idx, Word("ACGT")), (std::vector<uint64_t>{0, 1}));
  EXPECT_EQ(Docs(idx, KmerIndex::kAmbiguousWord),
            (std::vector<uint64_t>{0}));
  // Seeding never counts the ambiguous windows of a query.
  auto candidates = idx.FindCandidates(s, 1);
  ASSERT_EQ(candidates.size(), 2u);
  EXPECT_EQ(candidates[0].shared_kmers, 2u);
  EXPECT_EQ(candidates[1].shared_kmers, 2u);
}

TEST(KmerIndexTest, SharedKmersCountQueryWindows) {
  auto query = NucleotideSequence::Dna("ACGTACGTAA").value();
  auto one_word = NucleotideSequence::Dna("GGACGTGG").value();
  auto idx = KmerIndex::Build({one_word, query}, 4).value();
  // Windows: ACGT CGTA GTAC TACG ACGT CGTA GTAA. Document 1 contains
  // every one; document 0 only ACGT, which two windows hold.
  auto candidates = idx.FindCandidates(query, 1);
  ASSERT_EQ(candidates.size(), 2u);
  EXPECT_EQ(candidates[0].doc, 1u);
  EXPECT_EQ(candidates[0].shared_kmers, 7u);
  EXPECT_EQ(candidates[1].doc, 0u);
  EXPECT_EQ(candidates[1].shared_kmers, 2u);
}

TEST(KmerIndexTest, FindCandidatesRanksTrueSourceFirst) {
  Rng rng(47);
  auto corpus = MakeCorpus(&rng, 20, 500);
  auto idx = KmerIndex::Build(corpus, 11).value();
  // Query: a fragment of document 7 with light noise.
  std::string fragment = corpus[7].ToString().substr(120, 200);
  for (size_t i = 0; i < fragment.size(); i += 37) {
    fragment[i] = fragment[i] == 'A' ? 'C' : 'A';
  }
  auto query = NucleotideSequence::Dna(fragment).value();
  auto candidates = idx.FindCandidates(query, 2);
  ASSERT_FALSE(candidates.empty());
  EXPECT_EQ(candidates[0].doc, 7u);
}

TEST(KmerIndexTest, CandidatesSortedBySharedKmersThenDoc) {
  Rng rng(53);
  auto corpus = MakeCorpus(&rng, 10, 300);
  auto idx = KmerIndex::Build(corpus, 5).value();
  auto query = corpus[3];
  auto candidates = idx.FindCandidates(query, 1);
  ASSERT_GT(candidates.size(), 2u);
  EXPECT_EQ(candidates[0].doc, 3u);
  for (size_t i = 1; i < candidates.size(); ++i) {
    const auto& prev = candidates[i - 1];
    const auto& cur = candidates[i];
    EXPECT_TRUE(prev.shared_kmers > cur.shared_kmers ||
                (prev.shared_kmers == cur.shared_kmers && prev.doc < cur.doc));
  }
}

TEST(KmerIndexTest, MinSharedFilters) {
  Rng rng(59);
  auto corpus = MakeCorpus(&rng, 5, 200);
  auto idx = KmerIndex::Build(corpus, 9).value();
  auto query = corpus[0];
  size_t all = idx.FindCandidates(query, 1).size();
  size_t strict = idx.FindCandidates(query, 50).size();
  EXPECT_GE(all, strict);
  EXPECT_GE(strict, 1u);  // The identical document always qualifies.
}

TEST(KmerIndexTest, ContainsCandidatesIntersectProbesAndAddAmbiguousDocs) {
  auto needle = NucleotideSequence::Dna("ACGTTGCAGGCCTTAA").value();
  std::vector<NucleotideSequence> corpus = {
      NucleotideSequence::Dna("CCACGTTGCAGGCCTTAACC").value(),  // Holds it.
      NucleotideSequence::Dna("ACGTTGCATTTTTTTT").value(),      // 1st half.
      NucleotideSequence::Dna("TTTTTTTTGGCCTTAA").value(),      // 2nd half.
      NucleotideSequence::Dna("ACGTNGCAGGCCTTAA").value(),      // An N.
      NucleotideSequence::Dna("GGGGGGGGGGGGGGGG").value(),
  };
  auto idx = KmerIndex::Build(corpus, 8).value();
  EXPECT_EQ(idx.ContainsCandidates(needle), (std::vector<uint64_t>{0, 3}));
  // An absent first probe leaves only the ambiguous documents.
  EXPECT_EQ(idx.ContainsCandidates(
                NucleotideSequence::Dna("CATCATCATCAT").value()),
            (std::vector<uint64_t>{3}));
}

// Reference postings at document level: for every word, the ascending
// documents with a window of that word (ambiguous windows under
// kAmbiguousWord).
using NaiveIndex = std::map<uint64_t, std::vector<uint64_t>>;

NaiveIndex NaivePostings(const std::vector<NucleotideSequence>& corpus,
                         size_t k) {
  NaiveIndex naive;
  for (uint64_t doc = 0; doc < corpus.size(); ++doc) {
    for (size_t pos = 0; pos + k <= corpus[doc].size(); ++pos) {
      uint64_t packed;
      if (!PackKmer(corpus[doc], pos, k, &packed)) {
        packed = KmerIndex::kAmbiguousWord;
      }
      std::vector<uint64_t>& docs = naive[packed];
      if (docs.empty() || docs.back() != doc) docs.push_back(doc);
    }
  }
  return naive;
}

// Every word of the 4^k space, and the reserved one, has the expected
// postings.
void ExpectPostings(const KmerIndex& idx, const NaiveIndex& expected,
                    const std::string& context) {
  std::vector<uint64_t> words(size_t{1} << (2 * idx.k()));
  std::iota(words.begin(), words.end(), uint64_t{0});
  words.push_back(KmerIndex::kAmbiguousWord);
  for (uint64_t word : words) {
    auto it = expected.find(word);
    std::vector<uint64_t> want =
        it == expected.end() ? std::vector<uint64_t>{} : it->second;
    ASSERT_EQ(Docs(idx, word), want) << context << " word=" << word;
  }
}

// A random DNA string of `len` bases, with a run of Ns one time in four.
std::string ChurnSequence(Rng* rng, size_t len) {
  std::string dna = rng->RandomDna(len);
  if (len > 4 && rng->Uniform(4) == 0) {
    size_t at = rng->Uniform(len - 2);
    dna.replace(at, 2, "NN");
  }
  return dna;
}

// Maintenance oracle: after random Add/Remove churn, the index equals a
// bulk Build over the surviving documents.
TEST(KmerIndexTest, IncrementalMaintenanceEqualsBulkBuild) {
  Rng rng(73);
  const size_t k = 6;
  const size_t docs = 24;
  KmerIndex idx = KmerIndex::Build({}, k).value();
  // Removed and never-added documents hold the empty sequence, which a
  // Build posts nowhere.
  std::vector<NucleotideSequence> live(docs);
  std::vector<bool> present(docs, false);
  for (int step = 0; step < 400; ++step) {
    size_t doc = rng.Uniform(docs);
    if (present[doc]) {
      idx.Remove(doc, live[doc]);
      // Removing again, or a document never added, changes nothing.
      if (rng.Uniform(8) == 0) idx.Remove(doc, live[doc]);
      live[doc] = NucleotideSequence();
      present[doc] = false;
    } else {
      // Lengths 0..49 include sequences shorter than k.
      live[doc] =
          NucleotideSequence::Dna(ChurnSequence(&rng, rng.Uniform(50)))
              .value();
      idx.Add(doc, live[doc]);
      present[doc] = true;
    }
    if (step % 50 == 49) {
      ThreadPool pool(2);
      auto bulk = KmerIndex::Build(live, k, &pool).value();
      ExpectPostings(bulk, NaivePostings(live, k), "bulk");
      ExpectPostings(idx, NaivePostings(live, k),
                     "step " + std::to_string(step));
    }
  }
}

TEST(KmerIndexTest, ParallelBuildIdenticalToSerialAcrossPoolSizes) {
  Rng rng(71);
  auto corpus = MakeCorpus(&rng, 37, 400);
  // A couple of ambiguous runs so the reserved word is exercised too.
  corpus.push_back(NucleotideSequence::Dna("ACGTNNNNACGTACGTNACGT").value());
  corpus.push_back(NucleotideSequence::Dna("ACG").value());  // Below k.
  const size_t k = 8;
  const NaiveIndex naive = NaivePostings(corpus, k);

  ThreadPool serial(1);
  auto reference = KmerIndex::Build(corpus, k, &serial).value();
  for (size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    auto idx = KmerIndex::Build(corpus, k, &pool).value();
    ExpectPostings(idx, naive, "threads=" + std::to_string(threads));
    // And candidate ranking (the consumer-visible surface) must agree
    // with the serial pool's.
    auto query = corpus[5];
    auto a = reference.FindCandidates(query, 2);
    auto b = idx.FindCandidates(query, 2);
    ASSERT_EQ(a.size(), b.size()) << "threads=" << threads;
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].doc, b[i].doc);
      EXPECT_EQ(a[i].shared_kmers, b[i].shared_kmers);
    }
  }
}

TEST(KmerIndexTest, EmptyCorpusBuildsEmptyIndex) {
  for (size_t threads : {1u, 4u}) {
    ThreadPool pool(threads);
    auto idx = KmerIndex::Build({}, 8, &pool).value();
    EXPECT_TRUE(idx.Postings(Word("ACGTACGT")).empty());
    EXPECT_TRUE(idx.Postings(KmerIndex::kAmbiguousWord).empty());
    EXPECT_TRUE(
        idx.FindCandidates(NucleotideSequence::Dna("ACGTACGT").value())
            .empty());
  }
}

TEST(KmerIndexTest, PackKmerTwoBitEncoding) {
  auto s = NucleotideSequence::Dna("ACGT").value();
  uint64_t packed;
  ASSERT_TRUE(PackKmer(s, 0, 4, &packed));
  EXPECT_EQ(packed, 0b00011011u);  // A=0, C=1, G=2, T=3.
  auto amb = NucleotideSequence::Dna("ACGN").value();
  EXPECT_FALSE(PackKmer(amb, 0, 4, &packed));
  EXPECT_FALSE(PackKmer(s, 2, 4, &packed));  // Out of range.
}

// Cross-check: suffix-array search results equal NucleotideSequence::Find
// on unambiguous data (parameterized over corpus sizes).
class IndexAgreementTest : public ::testing::TestWithParam<size_t> {};

TEST_P(IndexAgreementTest, SuffixArrayAgreesWithScan) {
  Rng rng(GetParam());
  auto dna = NucleotideSequence::Dna(rng.RandomDna(GetParam())).value();
  auto sa = SuffixArray::Build(dna);
  for (int trial = 0; trial < 5; ++trial) {
    std::string pattern = rng.RandomDna(3 + rng.Uniform(6));
    auto pat_seq = NucleotideSequence::Dna(pattern).value();
    std::vector<uint64_t> scan_hits;
    size_t pos = dna.Find(pat_seq, 0);
    while (pos != NucleotideSequence::npos) {
      scan_hits.push_back(pos);
      pos = dna.Find(pat_seq, pos + 1);
    }
    EXPECT_EQ(sa.FindAll(pattern), scan_hits);
  }
}

INSTANTIATE_TEST_SUITE_P(CorpusSizes, IndexAgreementTest,
                         ::testing::Values(64, 256, 1024, 4096));

}  // namespace
}  // namespace genalg::index
