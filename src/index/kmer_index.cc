#include "index/kmer_index.h"

#include <algorithm>
#include <iterator>
#include <string>
#include <utility>

#include "obs/metrics.h"

namespace genalg::index {

namespace {

// 2-bit code of an unambiguous base, or -1.
int TwoBit(seq::BaseCode code) {
  switch (code) {
    case seq::kBaseA: return 0;
    case seq::kBaseC: return 1;
    case seq::kBaseG: return 2;
    case seq::kBaseT: return 3;
    default: return -1;
  }
}

// Partitions are the high bits of the packed k-mer.
constexpr size_t kPartitionBits = 6;
constexpr size_t kPartitions = size_t{1} << kPartitionBits;

// Hands `visit` the word of each k-window of `sequence` in order: the
// packed k-mer, or kAmbiguousWord for a window holding an ambiguity code.
// One rolling pass, O(sequence length).
template <typename Visit>
void ForEachWindow(const seq::NucleotideSequence& sequence, size_t k,
                   Visit&& visit) {
  const uint64_t mask = (uint64_t{1} << (2 * k)) - 1;
  uint64_t packed = 0;
  size_t clean = 0;  // Unambiguous bases ending at position i.
  for (size_t i = 0; i < sequence.size(); ++i) {
    const int bits = TwoBit(sequence.At(i));
    clean = bits < 0 ? 0 : clean + 1;
    packed = ((packed << 2) | static_cast<uint64_t>(bits & 3)) & mask;
    if (i + 1 >= k) {
      visit(clean >= k ? packed : KmerIndex::kAmbiguousWord);
    }
  }
}

}  // namespace

bool PackKmer(const seq::NucleotideSequence& sequence, size_t pos, size_t k,
              uint64_t* out) {
  if (k > 31 || pos + k > sequence.size()) return false;
  uint64_t packed = 0;
  for (size_t i = 0; i < k; ++i) {
    int bits = TwoBit(sequence.At(pos + i));
    if (bits < 0) return false;
    packed = (packed << 2) | static_cast<uint64_t>(bits);
  }
  *out = packed;
  return true;
}

KmerIndex::KmerIndex(size_t k) : k_(k), partitions_(kPartitions) {}

size_t KmerIndex::PartitionOf(uint64_t word) const {
  // k >= 4, so a packed word has at least kPartitionBits bits; the mask
  // folds kAmbiguousWord into the last partition.
  return (word >> (2 * k_ - kPartitionBits)) & (kPartitions - 1);
}

std::vector<uint64_t> KmerIndex::Words(
    const seq::NucleotideSequence& sequence) const {
  std::vector<uint64_t> words;
  if (sequence.size() < k_) return words;
  words.reserve(sequence.size() - k_ + 1);
  ForEachWindow(sequence, k_, [&words](uint64_t word) {
    words.push_back(word);
  });
  std::sort(words.begin(), words.end());
  words.erase(std::unique(words.begin(), words.end()), words.end());
  return words;
}

Result<KmerIndex> KmerIndex::Build(
    const std::vector<seq::NucleotideSequence>& corpus, size_t k,
    ThreadPool* pool) {
  if (k < 4 || k > 31) {
    return Status::InvalidArgument("k must be in [4, 31], got " +
                                   std::to_string(k));
  }
  KmerIndex idx(k);
  if (corpus.empty()) return idx;
  if (pool == nullptr) pool = ThreadPool::Global();

  // ---- Scan: shard documents into contiguous chunks; each chunk emits
  // per-partition (word, doc) runs in document order. Chunk geometry
  // depends only on the corpus, and every run lands in a slot keyed by
  // (chunk, partition), so the scan is race-free.
  const size_t grain = std::max<size_t>(
      1, (corpus.size() + pool->size() * 4 - 1) / (pool->size() * 4));
  const size_t chunks = (corpus.size() + grain - 1) / grain;
  using Run = std::vector<std::pair<uint64_t, uint64_t>>;
  std::vector<std::vector<Run>> scanned(chunks,
                                        std::vector<Run>(kPartitions));
  pool->ParallelFor(0, corpus.size(), grain, [&](size_t lo, size_t hi) {
    std::vector<Run>& runs = scanned[lo / grain];
    for (size_t doc = lo; doc < hi; ++doc) {
      for (uint64_t word : idx.Words(corpus[doc])) {
        runs[idx.PartitionOf(word)].emplace_back(word, doc);
      }
    }
  });

  // ---- Fill: one task per partition appends the chunk runs in chunk
  // order, i.e. document order, so every posting list comes out sorted
  // and distinct with no sort, whatever the pool size.
  pool->ParallelFor(0, kPartitions, 1, [&](size_t lo, size_t hi) {
    for (size_t p = lo; p < hi; ++p) {
      Partition& partition = idx.partitions_[p];
      // Each pair adds at most one key: reserving for all of them spares
      // the rehashes of a growing map.
      size_t pairs = 0;
      for (size_t c = 0; c < chunks; ++c) pairs += scanned[c][p].size();
      partition.reserve(pairs);
      for (size_t c = 0; c < chunks; ++c) {
        for (const auto& [word, doc] : scanned[c][p]) {
          partition[word].push_back(doc);
        }
      }
    }
  });
  return idx;
}

void KmerIndex::Add(uint64_t doc, const seq::NucleotideSequence& sequence) {
  for (uint64_t word : Words(sequence)) {
    std::vector<uint64_t>& docs = partitions_[PartitionOf(word)][word];
    auto it = std::lower_bound(docs.begin(), docs.end(), doc);
    if (it == docs.end() || *it != doc) docs.insert(it, doc);
  }
}

void KmerIndex::Remove(uint64_t doc,
                       const seq::NucleotideSequence& sequence) {
  for (uint64_t word : Words(sequence)) {
    Partition& partition = partitions_[PartitionOf(word)];
    auto entry = partition.find(word);
    if (entry == partition.end()) continue;
    std::vector<uint64_t>& docs = entry->second;
    auto it = std::lower_bound(docs.begin(), docs.end(), doc);
    if (it != docs.end() && *it == doc) docs.erase(it);
    if (docs.empty()) partition.erase(entry);
  }
}

std::span<const uint64_t> KmerIndex::Postings(uint64_t word) const {
  static obs::Counter* lookups =
      obs::Registry::Global().GetCounter("index.kmer.lookups");
  static obs::Counter* scanned =
      obs::Registry::Global().GetCounter("index.kmer.postings_scanned");
  lookups->Increment();
  const Partition& partition = partitions_[PartitionOf(word)];
  auto it = partition.find(word);
  if (it == partition.end()) return {};
  scanned->Add(it->second.size());
  return it->second;
}

std::vector<uint64_t> KmerIndex::ContainsCandidates(
    const seq::NucleotideSequence& pattern) const {
  std::vector<uint64_t> candidates;
  for (size_t pos = 0, probes = 0;
       pos + k_ <= pattern.size() && probes < 16; pos += k_, ++probes) {
    uint64_t packed;
    if (!PackKmer(pattern, pos, k_, &packed)) break;
    std::span<const uint64_t> hits = Postings(packed);
    if (probes == 0) {
      candidates.assign(hits.begin(), hits.end());
    } else {
      std::vector<uint64_t> both;
      std::set_intersection(candidates.begin(), candidates.end(),
                            hits.begin(), hits.end(),
                            std::back_inserter(both));
      candidates = std::move(both);
    }
    if (candidates.empty()) break;
  }
  std::span<const uint64_t> ambiguous = Postings(kAmbiguousWord);
  std::vector<uint64_t> merged;
  std::set_union(candidates.begin(), candidates.end(), ambiguous.begin(),
                 ambiguous.end(), std::back_inserter(merged));
  return merged;
}

std::vector<KmerIndex::Candidate> KmerIndex::FindCandidates(
    const seq::NucleotideSequence& query, uint32_t min_shared) const {
  std::unordered_map<uint64_t, uint32_t> shared;
  ForEachWindow(query, k_, [&](uint64_t word) {
    if (word == kAmbiguousWord) return;
    for (uint64_t doc : Postings(word)) ++shared[doc];
  });
  std::vector<Candidate> out;
  for (const auto& [doc, count] : shared) {
    if (count >= min_shared) out.push_back(Candidate{doc, count});
  }
  std::sort(out.begin(), out.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.shared_kmers != b.shared_kmers
                         ? a.shared_kmers > b.shared_kmers
                         : a.doc < b.doc;
            });
  return out;
}

}  // namespace genalg::index
