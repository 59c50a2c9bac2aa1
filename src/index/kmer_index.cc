#include "index/kmer_index.h"

#include <algorithm>
#include <array>
#include <iterator>
#include <numeric>
#include <string>
#include <unordered_map>
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

// Build's LSD radix sort orders pairs by this many word bits a pass.
constexpr size_t kRadixBits = 11;
// The base prefix table spans at most this many top bits of a word.
constexpr size_t kPrefixBits = 16;
// The delta and the dead base postings fold into a new base once they
// exceed 1/kCompactRatio of the base's postings and kCompactFloor. A
// compaction costs O(base) and each Add or Remove of a delta document
// O(delta): on 120 rows of 500 bp at k = 8, 18 row updates a round, 1/8
// compacted twice a round and 1/2 made the delta's merges dominate.
constexpr size_t kCompactRatio = 4;
constexpr size_t kCompactFloor = 256;

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

// Adds one call's probes and the live postings they read to the index
// counters, once per call.
void CountProbes(uint64_t lookups, uint64_t scanned) {
  static obs::Counter* lookups_counter =
      obs::Registry::Global().GetCounter("index.kmer.lookups");
  static obs::Counter* scanned_counter =
      obs::Registry::Global().GetCounter("index.kmer.postings_scanned");
  lookups_counter->Add(lookups);
  scanned_counter->Add(scanned);
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

KmerIndex::KmerIndex(size_t k) : k_(k) {}

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
    const std::vector<seq::NucleotideSequence>& corpus, size_t k) {
  std::vector<uint64_t> docs(corpus.size());
  std::iota(docs.begin(), docs.end(), uint64_t{0});
  return Build(docs, corpus, k);
}

Result<KmerIndex> KmerIndex::Build(
    std::span<const uint64_t> docs,
    std::span<const seq::NucleotideSequence> sequences, size_t k) {
  if (k < 4 || k > 31) {
    return Status::InvalidArgument("k must be in [4, 31], got " +
                                   std::to_string(k));
  }
  if (docs.size() != sequences.size()) {
    return Status::InvalidArgument("one document id per sequence");
  }
  KmerIndex idx(k);
  // ---- Scan: ordinals follow ascending document id; every unambiguous
  // window emits its (word, ordinal) pair, in ordinal order.
  std::vector<uint32_t> order(docs.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(),
            [&docs](uint32_t a, uint32_t b) { return docs[a] < docs[b]; });
  struct Pair {
    uint64_t word;
    uint32_t ord;
  };
  std::vector<Pair> pairs;
  pairs.reserve(std::accumulate(
      sequences.begin(), sequences.end(), size_t{0},
      [k](size_t sum, const auto& s) {
        return sum + (s.size() < k ? 0 : s.size() - k + 1);
      }));
  for (uint32_t ord = 0; ord < order.size(); ++ord) {
    const uint64_t doc = docs[order[ord]];
    if (ord > 0 && idx.doc_ids_.back() == doc) {
      return Status::InvalidArgument("duplicate document id " +
                                     std::to_string(doc));
    }
    idx.doc_ids_.push_back(doc);
    bool ambiguous = false;
    ForEachWindow(sequences[order[ord]], k, [&](uint64_t word) {
      if (word == kAmbiguousWord) {
        ambiguous = true;
      } else {
        pairs.push_back(Pair{word, ord});
      }
    });
    if (ambiguous) idx.ambiguous_.push_back(ord);
  }
  idx.removed_.assign(docs.size(), false);

  // ---- Sort: stable LSD radix passes over the word's 2k bits, so the
  // ordinals of one word stay ascending and its duplicates adjacent.
  {
    constexpr size_t kDigits = size_t{1} << kRadixBits;
    std::vector<Pair> sorted(pairs.size());
    for (size_t shift = 0; shift < 2 * k; shift += kRadixBits) {
      const auto digit = [shift](const Pair& p) {
        return (p.word >> shift) & (kDigits - 1);
      };
      std::array<size_t, kDigits + 1> starts{};
      for (const Pair& p : pairs) ++starts[digit(p) + 1];
      std::partial_sum(starts.begin(), starts.end(), starts.begin());
      for (const Pair& p : pairs) sorted[starts[digit(p)]++] = p;
      pairs.swap(sorted);
    }
  }
  pairs.erase(std::unique(pairs.begin(), pairs.end(),
                          [](const Pair& a, const Pair& b) {
                            return a.word == b.word && a.ord == b.ord;
                          }),
              pairs.end());

  // ---- Fill exactly sized arrays.
  size_t keys = 0;
  for (size_t i = 0; i < pairs.size(); ++i) {
    keys += i == 0 || pairs[i].word != pairs[i - 1].word;
  }
  idx.keys_.reserve(keys);
  idx.offsets_.reserve(keys + 1);
  idx.postings_.reserve(pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    if (i == 0 || pairs[i].word != pairs[i - 1].word) {
      idx.keys_.push_back(pairs[i].word);
      idx.offsets_.push_back(static_cast<uint32_t>(i));
    }
    idx.postings_.push_back(pairs[i].ord);
  }
  idx.offsets_.push_back(static_cast<uint32_t>(pairs.size()));
  idx.BuildPrefix();
  return idx;
}

void KmerIndex::BuildPrefix() {
  // prefix_[p] is the first key whose top bits are at least p.
  const size_t bits = std::min(kPrefixBits, 2 * k_);
  prefix_shift_ = 2 * k_ - bits;
  prefix_.clear();
  if (keys_.empty()) return;
  prefix_.resize((size_t{1} << bits) + 1);
  for (uint64_t key : keys_) ++prefix_[(key >> prefix_shift_) + 1];
  std::partial_sum(prefix_.begin(), prefix_.end(), prefix_.begin());
}

std::span<const uint32_t> KmerIndex::KeyPostings(size_t key) const {
  return std::span<const uint32_t>(postings_).subspan(
      offsets_[key], offsets_[key + 1] - offsets_[key]);
}

std::span<const uint32_t> KmerIndex::BaseOrdinals(uint64_t word) const {
  if (word == kAmbiguousWord) return ambiguous_;
  if (keys_.empty() || (word >> (2 * k_)) != 0) return {};
  const size_t top = word >> prefix_shift_;
  const auto last = keys_.begin() + prefix_[top + 1];
  const auto it =
      std::lower_bound(keys_.begin() + prefix_[top], last, word);
  if (it == last || *it != word) return {};
  return KeyPostings(it - keys_.begin());
}

void KmerIndex::LiveDocs(uint64_t word, std::vector<uint64_t>* out) const {
  out->clear();
  for (uint32_t ord : BaseOrdinals(word)) {
    if (!removed_[ord]) out->push_back(doc_ids_[ord]);
  }
  const size_t base = out->size();
  for (const auto& [w, doc] : DeltaPostings(word)) out->push_back(doc);
  std::inplace_merge(out->begin(), out->begin() + base, out->end());
}

std::span<const std::pair<uint64_t, uint64_t>> KmerIndex::DeltaPostings(
    uint64_t word) const {
  const auto first = std::lower_bound(delta_.begin(), delta_.end(),
                                      std::pair{word, uint64_t{0}});
  auto last = first;
  while (last != delta_.end() && last->first == word) ++last;
  return {first, last};
}

void KmerIndex::Add(uint64_t doc, const seq::NucleotideSequence& sequence) {
  const size_t old = delta_.size();
  for (uint64_t word : Words(sequence)) delta_.emplace_back(word, doc);
  std::inplace_merge(delta_.begin(), delta_.begin() + old, delta_.end());
  MaybeCompact();
}

void KmerIndex::Remove(uint64_t doc,
                       const seq::NucleotideSequence& sequence) {
  const auto base = std::lower_bound(doc_ids_.begin(), doc_ids_.end(), doc);
  if (base != doc_ids_.end() && *base == doc &&
      !removed_[base - doc_ids_.begin()]) {
    // By the contract, the sequence's words are the document's base
    // postings.
    removed_[base - doc_ids_.begin()] = true;
    dead_postings_ += Words(sequence).size();
  } else {
    std::erase_if(delta_, [doc](const auto& p) { return p.second == doc; });
  }
  MaybeCompact();
}

void KmerIndex::MaybeCompact() {
  const size_t base = postings_.size() + ambiguous_.size();
  if (delta_.size() + dead_postings_ >
      std::max(kCompactFloor, base / kCompactRatio)) {
    Compact();
  }
}

void KmerIndex::Compact() {
  std::vector<uint64_t> added;
  for (const auto& [word, doc] : delta_) added.push_back(doc);
  std::sort(added.begin(), added.end());
  added.erase(std::unique(added.begin(), added.end()), added.end());

  // The new documents: the live base ones merged with the delta's.
  std::vector<uint64_t> doc_ids;
  std::vector<uint32_t> remap(doc_ids_.size());
  doc_ids.reserve(doc_ids_.size() + added.size());
  auto next = added.begin();
  for (uint32_t ord = 0; ord < doc_ids_.size(); ++ord) {
    if (removed_[ord]) continue;
    for (; next != added.end() && *next < doc_ids_[ord]; ++next) {
      doc_ids.push_back(*next);
    }
    remap[ord] = static_cast<uint32_t>(doc_ids.size());
    doc_ids.push_back(doc_ids_[ord]);
  }
  doc_ids.insert(doc_ids.end(), next, added.end());

  // Appends one word's live base ordinals and delta documents as
  // ascending new ordinals.
  const auto merge = [&](std::span<const uint32_t> base,
                         std::span<const std::pair<uint64_t, uint64_t>> docs,
                         std::vector<uint32_t>* out) {
    const size_t start = out->size();
    for (uint32_t ord : base) {
      if (!removed_[ord]) out->push_back(remap[ord]);
    }
    const size_t mid = out->size();
    for (const auto& [word, doc] : docs) {
      out->push_back(static_cast<uint32_t>(
          std::lower_bound(doc_ids.begin(), doc_ids.end(), doc) -
          doc_ids.begin()));
    }
    std::inplace_merge(out->begin() + start, out->begin() + mid,
                       out->end());
  };
  std::vector<uint32_t> ambiguous;
  const auto delta_ambiguous = DeltaPostings(kAmbiguousWord);
  merge(ambiguous_, delta_ambiguous, &ambiguous);
  const auto delta = std::span(delta_).first(delta_.size() -
                                             delta_ambiguous.size());

  // One linear merge of the base's and the delta's words. By the
  // contract the live postings are known, so the postings are exact (a
  // caller breaking it only misjudges the reservation).
  std::vector<uint64_t> keys;
  std::vector<uint32_t> offsets;
  std::vector<uint32_t> postings;
  keys.reserve(keys_.size() + delta.size());
  offsets.reserve(keys_.size() + delta.size() + 1);
  const size_t all = postings_.size() + ambiguous_.size() + delta_.size();
  postings.reserve(all - std::min(all, dead_postings_ + ambiguous.size()));
  const auto emit = [&](uint64_t word, std::span<const uint32_t> base,
                        std::span<const std::pair<uint64_t, uint64_t>> docs) {
    const size_t start = postings.size();
    merge(base, docs, &postings);
    if (postings.size() == start) return;
    keys.push_back(word);
    offsets.push_back(static_cast<uint32_t>(start));
  };
  size_t key = 0;
  for (size_t first = 0, last; first < delta.size(); first = last) {
    const uint64_t word = delta[first].first;
    for (last = first; last < delta.size() && delta[last].first == word;) {
      ++last;
    }
    for (; key < keys_.size() && keys_[key] < word; ++key) {
      emit(keys_[key], KeyPostings(key), {});
    }
    const bool shared = key < keys_.size() && keys_[key] == word;
    emit(word, shared ? KeyPostings(key++) : std::span<const uint32_t>(),
         delta.subspan(first, last - first));
  }
  for (; key < keys_.size(); ++key) emit(keys_[key], KeyPostings(key), {});
  offsets.push_back(static_cast<uint32_t>(postings.size()));

  doc_ids_ = std::move(doc_ids);
  keys_ = std::move(keys);
  offsets_ = std::move(offsets);
  postings_ = std::move(postings);
  ambiguous_ = std::move(ambiguous);
  removed_.assign(doc_ids_.size(), false);
  delta_ = {};
  dead_postings_ = 0;
  BuildPrefix();
  static obs::Counter* compactions =
      obs::Registry::Global().GetCounter("index.kmer.compactions");
  compactions->Increment();
}

std::vector<uint64_t> KmerIndex::Postings(uint64_t word) const {
  std::vector<uint64_t> docs;
  LiveDocs(word, &docs);
  CountProbes(1, docs.size());
  return docs;
}

std::vector<uint64_t> KmerIndex::ContainsCandidates(
    const seq::NucleotideSequence& pattern) const {
  std::vector<uint64_t> candidates;
  std::vector<uint64_t> hits;
  uint64_t lookups = 0;
  uint64_t scanned = 0;
  for (size_t pos = 0; pos + k_ <= pattern.size() && lookups < 16;
       pos += k_) {
    uint64_t packed;
    if (!PackKmer(pattern, pos, k_, &packed)) break;
    LiveDocs(packed, &hits);
    scanned += hits.size();
    if (lookups++ == 0) {
      candidates.swap(hits);
    } else {
      std::vector<uint64_t> both;
      std::set_intersection(candidates.begin(), candidates.end(),
                            hits.begin(), hits.end(),
                            std::back_inserter(both));
      candidates = std::move(both);
    }
    if (candidates.empty()) break;
  }
  LiveDocs(kAmbiguousWord, &hits);
  CountProbes(lookups + 1, scanned + hits.size());
  std::vector<uint64_t> merged;
  std::set_union(candidates.begin(), candidates.end(), hits.begin(),
                 hits.end(), std::back_inserter(merged));
  return merged;
}

std::vector<KmerIndex::Candidate> KmerIndex::FindCandidates(
    const seq::NucleotideSequence& query, uint32_t min_shared) const {
  // Dense counts over the base ordinals; the delta's few documents in a
  // map.
  std::vector<uint32_t> counts(doc_ids_.size());
  std::unordered_map<uint64_t, uint32_t> delta_counts;
  uint64_t lookups = 0;
  uint64_t scanned = 0;
  ForEachWindow(query, k_, [&](uint64_t word) {
    if (word == kAmbiguousWord) return;
    ++lookups;
    for (uint32_t ord : BaseOrdinals(word)) {
      if (removed_[ord]) continue;
      ++counts[ord];
      ++scanned;
    }
    const auto delta = DeltaPostings(word);
    for (const auto& [w, doc] : delta) ++delta_counts[doc];
    scanned += delta.size();
  });
  CountProbes(lookups, scanned);
  std::vector<Candidate> out;
  min_shared = std::max<uint32_t>(min_shared, 1);
  for (size_t ord = 0; ord < counts.size(); ++ord) {
    if (counts[ord] >= min_shared) {
      out.push_back(Candidate{doc_ids_[ord], counts[ord]});
    }
  }
  for (const auto& [doc, count] : delta_counts) {
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
