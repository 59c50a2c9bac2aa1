#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "base/rng.h"
#include "index/kmer_index.h"
#include "index/suffix_array.h"
#include "obs/metrics.h"
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
  return idx.Postings(word);
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

// corpus[i] is document ids[i], or i when `ids` is empty; ids ascend.
NaiveIndex NaivePostings(const std::vector<NucleotideSequence>& corpus,
                         size_t k, const std::vector<uint64_t>& ids = {}) {
  NaiveIndex naive;
  for (size_t i = 0; i < corpus.size(); ++i) {
    const uint64_t doc = ids.empty() ? i : ids[i];
    for (size_t pos = 0; pos + k <= corpus[i].size(); ++pos) {
      uint64_t packed;
      if (!PackKmer(corpus[i], pos, k, &packed)) {
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
      auto bulk = KmerIndex::Build(live, k).value();
      ExpectPostings(bulk, NaivePostings(live, k), "bulk");
      ExpectPostings(idx, NaivePostings(live, k),
                     "step " + std::to_string(step));
    }
  }
}

uint64_t CounterValue(const char* name) {
  return obs::Registry::Global().GetCounter(name)->value();
}

// The distinct words of one sequence, the reserved word included: its
// postings in an index.
size_t WordCount(const NucleotideSequence& sequence, size_t k) {
  return NaivePostings({sequence}, k).size();
}

// Churn over a bulk-built base: the index always equals a fresh Build of
// the live documents, through every surface, and it compacts exactly when
// the delta plus the dead base postings exceed max(256, base / 4).
TEST(KmerIndexTest, BaseDeltaChurnEqualsBulkBuild) {
  Rng rng(79);
  const size_t k = 6;
  const size_t slots = 48;
  const auto id_of = [](size_t slot) { return uint64_t{5} * slot + 3; };
  std::vector<NucleotideSequence> live(slots);
  std::vector<bool> present(slots, false);
  std::vector<uint64_t> ids;
  std::vector<NucleotideSequence> sequences;
  for (size_t slot = 40; slot-- > 0;) {  // Ids descend: Build sorts them.
    // Lengths 0..199 include sequences shorter than k, and one in four
    // holds an N run.
    live[slot] =
        NucleotideSequence::Dna(ChurnSequence(&rng, rng.Uniform(200)))
            .value();
    present[slot] = true;
    ids.push_back(id_of(slot));
    sequences.push_back(live[slot]);
  }
  KmerIndex idx = KmerIndex::Build(ids, sequences, k).value();

  // A model of the compaction rule.
  size_t base = 0;
  for (const auto& sequence : sequences) base += WordCount(sequence, k);
  std::vector<bool> in_base = present;
  size_t delta = 0;
  size_t dead = 0;
  uint64_t expected_compactions = 0;
  const uint64_t compactions_before = CounterValue("index.kmer.compactions");
  const auto check_compaction = [&] {
    if (delta + dead <= std::max<size_t>(256, base / 4)) return;
    ++expected_compactions;
    base = base - dead + delta;
    in_base = present;
    delta = dead = 0;
  };
  const auto remove = [&](size_t slot) {
    idx.Remove(id_of(slot), live[slot]);
    const size_t words = WordCount(live[slot], k);
    if (in_base[slot]) {
      dead += words;
      in_base[slot] = false;
    } else {
      delta -= words;
    }
    present[slot] = false;
    check_compaction();
  };
  const auto add = [&](size_t slot) {
    live[slot] =
        NucleotideSequence::Dna(ChurnSequence(&rng, rng.Uniform(200)))
            .value();
    idx.Add(id_of(slot), live[slot]);
    delta += WordCount(live[slot], k);
    present[slot] = true;
    check_compaction();
  };

  remove(0);  // Removed and never re-added.
  remove(1);  // Re-added at once with a new sequence.
  add(1);
  for (int step = 0; step < 400; ++step) {
    const size_t slot = 1 + rng.Uniform(slots - 1);
    if (present[slot]) {
      remove(slot);
      // Removing a document that is not live changes nothing.
      if (rng.Uniform(8) == 0) idx.Remove(id_of(slot), live[slot]);
    } else {
      add(slot);
    }
    if (step % 25 != 24) continue;

    std::vector<uint64_t> live_ids;
    std::vector<NucleotideSequence> live_docs;
    for (size_t s = 0; s < slots; ++s) {
      if (!present[s]) continue;
      live_ids.push_back(id_of(s));
      live_docs.push_back(live[s]);
    }
    const std::string context = "step " + std::to_string(step);
    auto fresh = KmerIndex::Build(live_ids, live_docs, k).value();
    const NaiveIndex naive = NaivePostings(live_docs, k, live_ids);
    ExpectPostings(fresh, naive, context + " fresh");
    ExpectPostings(idx, naive, context);
    for (int q = 0; q < 4; ++q) {
      const NucleotideSequence& doc = live_docs[rng.Uniform(live_docs.size())];
      for (uint32_t min_shared : {1u, 3u}) {
        auto got = idx.FindCandidates(doc, min_shared);
        auto want = fresh.FindCandidates(doc, min_shared);
        ASSERT_EQ(got.size(), want.size()) << context;
        for (size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got[i].doc, want[i].doc) << context;
          EXPECT_EQ(got[i].shared_kmers, want[i].shared_kmers) << context;
        }
      }
      // A contains() probe cut from the document, or a random one.
      std::string pattern = doc.ToString();
      const size_t len = 6 + rng.Uniform(15);
      pattern = pattern.size() >= len
                    ? pattern.substr(rng.Uniform(pattern.size() - len + 1),
                                     len)
                    : rng.RandomDna(len);
      if (pattern.find('N') != std::string::npos) continue;
      auto probe = NucleotideSequence::Dna(pattern).value();
      EXPECT_EQ(idx.ContainsCandidates(probe),
                fresh.ContainsCandidates(probe))
          << context << " pattern " << pattern;
    }
  }
  EXPECT_GE(expected_compactions, 3u);
  EXPECT_EQ(CounterValue("index.kmer.compactions") - compactions_before,
            expected_compactions);
}

// One FindCandidates call adds one lookup per unambiguous query window
// and the live postings those windows read: removed base documents do not
// count, delta documents do.
TEST(KmerIndexTest, SeedingCountsExactCounterDeltas) {
  Rng rng(83);
  const size_t k = 8;
  auto corpus = MakeCorpus(&rng, 20, 300);
  corpus[9] = NucleotideSequence::Dna(ChurnSequence(&rng, 300)).value();
  corpus[9].Set(150, seq::kBaseN);
  // Document 4 shares half of document 7, so its removal changes counts.
  corpus[4] = NucleotideSequence::Dna(corpus[7].ToString().substr(150) +
                                      rng.RandomDna(150))
                  .value();
  auto idx = KmerIndex::Build(corpus, k).value();
  const uint64_t compactions = CounterValue("index.kmer.compactions");
  // Below the compaction threshold: document 4 stays a dead base
  // document, and document 100 (a copy of part of document 7) a delta
  // one.
  idx.Remove(4, corpus[4]);
  const auto fragment =
      NucleotideSequence::Dna(corpus[7].ToString().substr(40, 100)).value();
  idx.Add(100, fragment);
  ASSERT_EQ(CounterValue("index.kmer.compactions"), compactions);

  std::vector<NucleotideSequence> live_docs;
  std::vector<uint64_t> live_ids;
  for (uint64_t doc = 0; doc < corpus.size(); ++doc) {
    if (doc == 4) continue;
    live_docs.push_back(corpus[doc]);
    live_ids.push_back(doc);
  }
  live_docs.push_back(fragment);
  live_ids.push_back(100);
  const NaiveIndex naive = NaivePostings(live_docs, k, live_ids);

  std::string text = corpus[7].ToString();
  text[20] = 'N';
  for (size_t i = 3; i < text.size(); i += 41) text[i] = 'A';
  const auto query = NucleotideSequence::Dna(text).value();
  uint64_t lookups = 0;
  uint64_t scanned = 0;
  for (size_t pos = 0; pos + k <= query.size(); ++pos) {
    uint64_t packed;
    if (!PackKmer(query, pos, k, &packed)) continue;
    ++lookups;
    auto it = naive.find(packed);
    if (it != naive.end()) scanned += it->second.size();
  }
  const uint64_t lookups_before = CounterValue("index.kmer.lookups");
  const uint64_t scanned_before = CounterValue("index.kmer.postings_scanned");
  auto candidates = idx.FindCandidates(query, 1);
  EXPECT_EQ(CounterValue("index.kmer.lookups") - lookups_before, lookups);
  EXPECT_EQ(CounterValue("index.kmer.postings_scanned") - scanned_before,
            scanned);
  ASSERT_GE(candidates.size(), 2u);
  EXPECT_EQ(candidates[0].doc, 7u);
  EXPECT_EQ(candidates[1].doc, 100u);
  for (const auto& candidate : candidates) EXPECT_NE(candidate.doc, 4u);
}

TEST(KmerIndexTest, BuildMatchesNaivePostings) {
  Rng rng(71);
  auto corpus = MakeCorpus(&rng, 37, 400);
  // A couple of ambiguous runs so the reserved word is exercised too.
  corpus.push_back(NucleotideSequence::Dna("ACGTNNNNACGTACGTNACGT").value());
  corpus.push_back(NucleotideSequence::Dna("ACG").value());  // Below k.
  const size_t k = 8;
  const NaiveIndex naive = NaivePostings(corpus, k);
  auto idx = KmerIndex::Build(corpus, k).value();
  ExpectPostings(idx, naive, "build");
  // Candidate ranking (the consumer-visible surface) agrees with naive
  // counting over the reference postings.
  const auto& query = corpus[5];
  std::map<uint64_t, uint32_t> shared;
  for (size_t pos = 0; pos + k <= query.size(); ++pos) {
    uint64_t packed;
    if (!PackKmer(query, pos, k, &packed)) continue;
    auto it = naive.find(packed);
    if (it == naive.end()) continue;
    for (uint64_t doc : it->second) ++shared[doc];
  }
  std::vector<std::pair<uint32_t, uint64_t>> want;  // (-shared, doc).
  for (const auto& [doc, count] : shared) {
    if (count >= 2) want.emplace_back(UINT32_MAX - count, doc);
  }
  std::sort(want.begin(), want.end());
  auto got = idx.FindCandidates(query, 2);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].doc, want[i].second);
    EXPECT_EQ(got[i].shared_kmers, UINT32_MAX - want[i].first);
  }
}

TEST(KmerIndexTest, EmptyCorpusBuildsEmptyIndex) {
  auto idx = KmerIndex::Build({}, 8).value();
  EXPECT_TRUE(idx.Postings(Word("ACGTACGT")).empty());
  EXPECT_TRUE(idx.Postings(KmerIndex::kAmbiguousWord).empty());
  EXPECT_TRUE(
      idx.FindCandidates(NucleotideSequence::Dna("ACGTACGT").value())
          .empty());
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
