#ifndef GENALG_INDEX_KMER_INDEX_H_
#define GENALG_INDEX_KMER_INDEX_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "base/result.h"
#include "seq/nucleotide_sequence.h"

namespace genalg::index {

/// An inverted index from k-mers to the documents containing them — the
/// genomic index of Sec. 6.5. The Unifying Database keeps one per indexed
/// nucseq column as the contains() prefilter (documents are packed
/// RecordIds, maintained row by row); the warehouse integrator builds one
/// per batch to seed candidate entity matches (documents are corpus
/// positions). Every window that holds an ambiguity code counts under the
/// one reserved word kAmbiguousWord, so a document with an N is a
/// contains() candidate for every pattern; seeding never probes it.
///
/// An immutable base plus a small mutable delta:
///  - The base is flat, as in gt-pro: sorted distinct words `keys_`,
///    uint32 `offsets_` into uint32 `postings_` (ordinals into the
///    ascending `doc_ids_`, so each list is sorted by document), and a
///    prefix table over the top min(16, 2k) bits of a word. Documents with
///    an ambiguous window are the separate sorted list `ambiguous_`. Build
///    makes it in one pass: (word, ordinal) pairs in document order, a
///    stable LSD radix sort by word, adjacent duplicates dropped.
///  - Add merges its (word, doc) pairs into `delta_`, kept sorted. Remove
///    marks a base document in `removed_`, or erases a delta document's
///    pairs. Readers see the base minus the removed, united with the
///    delta.
///  - Once delta postings plus dead base postings exceed 1/4 of the base
///    (and a floor of 256), they fold into a new base by one linear merge
///    into exactly sized arrays (index.kmer.compactions).
///
/// The contract: Add a document only while it is not live, and Remove it
/// with the sequence it was added with (removing a document that is not
/// live changes nothing). udb's StoreRow/EraseRow keep it. Mutation needs
/// exclusive access; concurrent const readers need no synchronization.
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
  /// empty corpus gives an empty index to fill with Add.
  static Result<KmerIndex> Build(
      const std::vector<seq::NucleotideSequence>& corpus, size_t k);

  /// Indexes sequences[i] as document docs[i]. The ids must be distinct,
  /// in any order.
  static Result<KmerIndex> Build(
      std::span<const uint64_t> docs,
      std::span<const seq::NucleotideSequence> sequences, size_t k);

  size_t k() const { return k_; }

  /// Posts `doc` under each distinct word of `sequence`; a sequence
  /// shorter than k posts nothing. Costs time in the sequence's words.
  void Add(uint64_t doc, const seq::NucleotideSequence& sequence);

  /// Undoes Add(doc, sequence) or the document's part of a Build.
  void Remove(uint64_t doc, const seq::NucleotideSequence& sequence);

  /// The sorted documents posted under one word (empty when absent).
  /// Counts one index.kmer.lookups and its live postings in
  /// index.kmer.postings_scanned.
  std::vector<uint64_t> Postings(uint64_t word) const;

  /// A superset of the documents containing `pattern` (which has no
  /// ambiguity codes): a document containing it contains each of its
  /// k-mers, so the postings of up to 16 non-overlapping windows are
  /// intersected, then united with the documents posted under
  /// kAmbiguousWord. Sorted. Counts one lookup per probe, and the live
  /// postings each probe reads.
  std::vector<uint64_t> ContainsCandidates(
      const seq::NucleotideSequence& pattern) const;

  /// Documents containing the k-mer of at least `min_shared` unambiguous
  /// query windows, by descending shared_kmers, then ascending doc.
  /// Counts one lookup per unambiguous window, and the live postings each
  /// reads.
  std::vector<Candidate> FindCandidates(
      const seq::NucleotideSequence& query, uint32_t min_shared = 1) const;

 private:
  explicit KmerIndex(size_t k);

  /// The distinct words of `sequence`'s windows, ascending; the one
  /// extraction Add and Remove share.
  std::vector<uint64_t> Words(const seq::NucleotideSequence& sequence) const;
  /// The base ordinals posted under `word` or `keys_[key]`, dead ones
  /// included.
  std::span<const uint32_t> BaseOrdinals(uint64_t word) const;
  std::span<const uint32_t> KeyPostings(size_t key) const;
  /// The delta's (word, doc) pairs of `word`.
  std::span<const std::pair<uint64_t, uint64_t>> DeltaPostings(
      uint64_t word) const;
  /// The live documents under `word` into `out`, sorted.
  void LiveDocs(uint64_t word, std::vector<uint64_t>* out) const;
  void BuildPrefix();
  void MaybeCompact();
  void Compact();

  size_t k_;
  // The base.
  std::vector<uint64_t> doc_ids_;
  std::vector<uint64_t> keys_;
  std::vector<uint32_t> offsets_;
  std::vector<uint32_t> postings_;
  std::vector<uint32_t> ambiguous_;
  std::vector<uint32_t> prefix_;
  size_t prefix_shift_ = 0;
  // The delta.
  std::vector<bool> removed_;
  std::vector<std::pair<uint64_t, uint64_t>> delta_;  // (word, doc), sorted.
  size_t dead_postings_ = 0;
};

/// Packs an unambiguous A/C/G/T window into 2 bits per base. Returns false
/// if any base is ambiguous or k > 31.
bool PackKmer(const seq::NucleotideSequence& sequence, size_t pos, size_t k,
              uint64_t* out);

}  // namespace genalg::index

#endif  // GENALG_INDEX_KMER_INDEX_H_
