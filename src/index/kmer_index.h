#ifndef GENALG_INDEX_KMER_INDEX_H_
#define GENALG_INDEX_KMER_INDEX_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "base/result.h"
#include "base/thread_pool.h"
#include "seq/nucleotide_sequence.h"

namespace genalg::index {

/// An inverted index from k-mers to the documents containing them — the
/// genomic index of Sec. 6.5. The Unifying Database keeps one per indexed
/// nucseq column as the contains() prefilter (documents are packed
/// RecordIds, maintained row by row); the warehouse integrator builds one
/// per batch to seed candidate entity matches (documents are corpus
/// positions).
///
/// Each word maps to its sorted, distinct document ids. Every window that
/// holds an ambiguity code is posted under the one reserved word
/// kAmbiguousWord, so a document with an N is a contains() candidate for
/// every pattern; similarity seeding never probes that word.
///
/// Words are spread over partitions by their high bits, so a bulk Build
/// fills each partition as one independent task. Mutation (Add, Remove)
/// needs exclusive access; concurrent const readers need no
/// synchronization.
class KmerIndex {
 public:
  /// The word of every window holding an ambiguity code. Packed k-mers
  /// (k <= 31) use at most 62 bits and never collide with it.
  static constexpr uint64_t kAmbiguousWord = ~uint64_t{0};

  /// A candidate document with the number of query windows whose k-mer
  /// it contains.
  struct Candidate {
    uint64_t doc;
    uint32_t shared_kmers;
  };

  /// Indexes corpus[i] as document i with word length k in [4, 31]; an
  /// empty corpus gives an empty index to fill with Add. The scan shards
  /// the corpus across `pool` (nullptr ⇒ ThreadPool::Global()) and each
  /// partition is filled by one task in document order, so the result is
  /// identical for every pool size.
  static Result<KmerIndex> Build(
      const std::vector<seq::NucleotideSequence>& corpus, size_t k,
      ThreadPool* pool = nullptr);

  size_t k() const { return k_; }

  /// Posts `doc` under each distinct word of `sequence`; a sequence
  /// shorter than k posts nothing. Costs time in the sequence's words.
  void Add(uint64_t doc, const seq::NucleotideSequence& sequence);

  /// Undoes Add(doc, sequence), dropping words left without documents.
  void Remove(uint64_t doc, const seq::NucleotideSequence& sequence);

  /// The sorted documents posted under one word (empty when absent).
  /// Every probe goes through here and feeds the index.kmer.lookups and
  /// index.kmer.postings_scanned counters.
  std::span<const uint64_t> Postings(uint64_t word) const;

  /// A superset of the documents containing `pattern` (which has no
  /// ambiguity codes): a document containing it contains each of its
  /// k-mers, so the postings of up to 16 non-overlapping windows are
  /// intersected, then united with the documents posted under
  /// kAmbiguousWord. Sorted.
  std::vector<uint64_t> ContainsCandidates(
      const seq::NucleotideSequence& pattern) const;

  /// Documents containing the k-mer of at least `min_shared` unambiguous
  /// query windows, by descending shared_kmers, then ascending doc.
  std::vector<Candidate> FindCandidates(
      const seq::NucleotideSequence& query, uint32_t min_shared = 1) const;

 private:
  using Partition = std::unordered_map<uint64_t, std::vector<uint64_t>>;

  explicit KmerIndex(size_t k);

  /// The distinct words of `sequence`'s windows, ascending; the one
  /// extraction Build, Add and Remove share.
  std::vector<uint64_t> Words(const seq::NucleotideSequence& sequence) const;
  size_t PartitionOf(uint64_t word) const;

  size_t k_;
  std::vector<Partition> partitions_;
};

/// Packs an unambiguous A/C/G/T window into 2 bits per base. Returns false
/// if any base is ambiguous or k > 31.
bool PackKmer(const seq::NucleotideSequence& sequence, size_t pos, size_t k,
              uint64_t* out);

}  // namespace genalg::index

#endif  // GENALG_INDEX_KMER_INDEX_H_
