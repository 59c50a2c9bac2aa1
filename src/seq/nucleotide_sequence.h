#ifndef GENALG_SEQ_NUCLEOTIDE_SEQUENCE_H_
#define GENALG_SEQ_NUCLEOTIDE_SEQUENCE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "base/bytes.h"
#include "base/result.h"
#include "base/status.h"
#include "seq/alphabet.h"

namespace genalg::seq {

/// A DNA or RNA sequence stored 4 bits per base (two bases per byte) in a
/// single contiguous buffer.
///
/// The representation deliberately follows the paper's implementation
/// requirement (Sec. 4.4): GDT values "should not employ pointer data
/// structures in main memory but be embedded into compact storage areas
/// which can be efficiently transferred between main memory and disk".
/// A NucleotideSequence serializes to a flat byte string (see Serialize)
/// that the Unifying Database stores verbatim as an opaque UDT value; the
/// deserialized form is a single allocation.
///
/// IUPAC ambiguity codes are first-class: each 4-bit cell is the set of
/// canonical bases the position may be, so experimental uncertainty (C9)
/// survives storage, querying, and every algebra operation.
class NucleotideSequence {
 public:
  /// Constructs an empty DNA sequence.
  NucleotideSequence() : alphabet_(Alphabet::kDna), size_(0) {}
  /// Constructs an empty sequence over the given alphabet.
  explicit NucleotideSequence(Alphabet alphabet)
      : alphabet_(alphabet), size_(0) {}

  NucleotideSequence(const NucleotideSequence&) = default;
  NucleotideSequence& operator=(const NucleotideSequence&) = default;
  NucleotideSequence(NucleotideSequence&&) = default;
  NucleotideSequence& operator=(NucleotideSequence&&) = default;

  /// Parses an IUPAC character string ("ACGTRYN..."). Whitespace is
  /// rejected; use the format parsers for files. For the RNA alphabet 'U'
  /// is canonical and 'T' is accepted as a synonym (and vice versa for
  /// DNA), matching repository practice.
  static Result<NucleotideSequence> FromString(std::string_view text,
                                               Alphabet alphabet);
  /// FromString with Alphabet::kDna.
  static Result<NucleotideSequence> Dna(std::string_view text);
  /// FromString with Alphabet::kRna.
  static Result<NucleotideSequence> Rna(std::string_view text);

  Alphabet alphabet() const { return alphabet_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// The base set at position i; requires i < size().
  BaseCode At(size_t i) const {
    uint8_t byte = data_[i >> 1];
    return (i & 1) ? static_cast<BaseCode>(byte >> 4)
                   : static_cast<BaseCode>(byte & 0xF);
  }

  /// The IUPAC character at position i; requires i < size().
  char CharAt(size_t i) const { return BaseToChar(At(i), alphabet_); }

  /// Overwrites position i; requires i < size().
  void Set(size_t i, BaseCode code);

  /// Appends one base.
  void Append(BaseCode code);

  /// Appends a validated character; returns InvalidArgument for non-IUPAC
  /// characters.
  Status AppendChar(char c);

  /// Appends all of `other`; alphabets must match.
  Status Concat(const NucleotideSequence& other);

  /// The IUPAC string rendering.
  std::string ToString() const;

  /// Appends the IUPAC string rendering to *out, two bases per table load.
  void AppendTo(std::string* out) const;

  /// Copies [pos, pos+len) into a new sequence; OutOfRange if it does not
  /// fit.
  Result<NucleotideSequence> Subsequence(size_t pos, size_t len) const;

  /// The reverse complement (same alphabet). Ambiguity codes complement
  /// correctly (R<->Y etc.).
  NucleotideSequence ReverseComplement() const;

  /// The complement without reversal.
  NucleotideSequence Complement() const;

  /// Transcription at the sequence level: reinterprets a DNA coding strand
  /// as RNA (T bit becomes U). FailedPrecondition if already RNA.
  Result<NucleotideSequence> ToRna() const;

  /// Reverse transcription: RNA to DNA. FailedPrecondition if already DNA.
  Result<NucleotideSequence> ToDna() const;

  /// Fraction of unambiguous G/C among unambiguous, non-gap positions;
  /// 0 for an empty sequence.
  double GcContent() const;

  /// Number of positions carrying an ambiguity code (cardinality != 1).
  size_t CountAmbiguous() const;

  /// Per-base counts indexed by BaseCode (16 buckets).
  std::vector<size_t> BaseHistogram() const;

  /// True iff every position of `other` is compatible (set-intersecting)
  /// with the corresponding position here starting at offset `pos`.
  bool MatchesAt(size_t pos, const NucleotideSequence& pattern) const;

  /// Naive scan for the first occurrence of `pattern` (ambiguity-aware)
  /// at or after `from`; returns npos when absent.
  static constexpr size_t npos = static_cast<size_t>(-1);
  size_t Find(const NucleotideSequence& pattern, size_t from = 0) const;

  /// Exact content equality (alphabet, length, and every base set).
  bool operator==(const NucleotideSequence& other) const;
  bool operator!=(const NucleotideSequence& other) const {
    return !(*this == other);
  }

  /// Appends the compact flat encoding: alphabet byte, varint length,
  /// packed base bytes. This is the on-disk UDT representation.
  void Serialize(BytesWriter* out) const;

  /// Reads a sequence previously written by Serialize.
  static Result<NucleotideSequence> Deserialize(BytesReader* in);

  /// Bytes used by the packed payload (excluding object header).
  size_t PackedBytes() const { return data_.size(); }

 private:
  Alphabet alphabet_;
  size_t size_;                 // Number of bases.
  std::vector<uint8_t> data_;   // ceil(size_/2) bytes, low nibble first.
};

}  // namespace genalg::seq

#endif  // GENALG_SEQ_NUCLEOTIDE_SEQUENCE_H_
