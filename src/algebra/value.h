#ifndef GENALG_ALGEBRA_VALUE_H_
#define GENALG_ALGEBRA_VALUE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "base/result.h"
#include "gdt/entities.h"
#include "seq/nucleotide_sequence.h"
#include "seq/protein_sequence.h"

namespace genalg::algebra {

/// Canonical sort names of the built-in carrier sets. Sorts are plain
/// strings so the algebra stays extensible at runtime (Sec. 4.2: "if
/// required, the Genomics Algebra can be extended by new sorts").
inline constexpr std::string_view kSortBool = "bool";
inline constexpr std::string_view kSortInt = "int";
inline constexpr std::string_view kSortReal = "real";
inline constexpr std::string_view kSortString = "string";
inline constexpr std::string_view kSortNucSeq = "nucseq";
inline constexpr std::string_view kSortProtSeq = "protseq";
inline constexpr std::string_view kSortGene = "gene";
inline constexpr std::string_view kSortPrimaryTranscript =
    "primarytranscript";
inline constexpr std::string_view kSortMRna = "mrna";
inline constexpr std::string_view kSortProtein = "protein";

/// A value of a sort that was registered at runtime: the algebra knows
/// only its name and flat byte representation (the "opaque type" of
/// Sec. 6.2 seen from inside the algebra).
struct OpaqueValue {
  std::string sort;
  std::shared_ptr<const std::vector<uint8_t>> bytes;

  bool operator==(const OpaqueValue& other) const {
    return sort == other.sort &&
           (bytes == other.bytes ||
            (bytes && other.bytes && *bytes == *other.bytes));
  }
};

/// A typed value of the Genomics Algebra: one element of some sort's
/// carrier set. Values are cheap-to-copy value types (the large payloads
/// are contiguous buffers).
class Value {
 public:
  /// Constructs the null value (sort "null"), used only as an absent
  /// marker; operators never accept it.
  Value() = default;

  static Value Bool(bool v) { return Value(Payload(v)); }
  static Value Int(int64_t v) { return Value(Payload(v)); }
  static Value Real(double v) { return Value(Payload(v)); }
  static Value String(std::string v) { return Value(Payload(std::move(v))); }
  static Value NucSeq(seq::NucleotideSequence v) {
    return Value(Payload(std::move(v)));
  }
  static Value ProtSeq(seq::ProteinSequence v) {
    return Value(Payload(std::move(v)));
  }
  static Value GeneVal(gdt::Gene v) { return Value(Payload(std::move(v))); }
  static Value TranscriptVal(gdt::PrimaryTranscript v) {
    return Value(Payload(std::move(v)));
  }
  static Value MRnaVal(gdt::MRna v) { return Value(Payload(std::move(v))); }
  static Value ProteinVal(gdt::Protein v) {
    return Value(Payload(std::move(v)));
  }
  static Value Opaque(OpaqueValue v) { return Value(Payload(std::move(v))); }

  /// The sort name of this value ("null" for the default-constructed one).
  std::string_view sort() const;

  bool is_null() const {
    return std::holds_alternative<std::monostate>(payload_);
  }

  /// Typed accessors; each returns InvalidArgument when the value holds a
  /// different sort.
  Result<bool> AsBool() const { return As<bool>(kSortBool); }
  Result<int64_t> AsInt() const { return As<int64_t>(kSortInt); }
  Result<double> AsReal() const { return As<double>(kSortReal); }
  Result<std::string> AsString() const {
    return As<std::string>(kSortString);
  }
  Result<seq::NucleotideSequence> AsNucSeq() const {
    return As<seq::NucleotideSequence>(kSortNucSeq);
  }
  Result<seq::ProteinSequence> AsProtSeq() const {
    return As<seq::ProteinSequence>(kSortProtSeq);
  }
  Result<gdt::Gene> AsGene() const { return As<gdt::Gene>(kSortGene); }
  Result<gdt::PrimaryTranscript> AsTranscript() const {
    return As<gdt::PrimaryTranscript>(kSortPrimaryTranscript);
  }
  Result<gdt::MRna> AsMRna() const { return As<gdt::MRna>(kSortMRna); }
  Result<gdt::Protein> AsProtein() const {
    return As<gdt::Protein>(kSortProtein);
  }
  Result<OpaqueValue> AsOpaque() const;

  /// The nucleotide sequence this value holds, or nullptr: AsNucSeq
  /// without the copy, for operators that read many values at once.
  const seq::NucleotideSequence* NucSeqOrNull() const {
    return std::get_if<seq::NucleotideSequence>(&payload_);
  }

  bool operator==(const Value& other) const {
    return payload_ == other.payload_;
  }
  bool operator!=(const Value& other) const { return !(*this == other); }

  /// A short human-readable rendering (long sequences are elided).
  std::string ToDisplayString() const;

 private:
  using Payload =
      std::variant<std::monostate, bool, int64_t, double, std::string,
                   seq::NucleotideSequence, seq::ProteinSequence, gdt::Gene,
                   gdt::PrimaryTranscript, gdt::MRna, gdt::Protein,
                   OpaqueValue>;

  explicit Value(Payload payload) : payload_(std::move(payload)) {}

  template <typename T>
  Result<T> As(std::string_view expected) const {
    if (const T* v = std::get_if<T>(&payload_)) return *v;
    return Status::InvalidArgument("value of sort '" + std::string(sort()) +
                                   "' is not of sort '" +
                                   std::string(expected) + "'");
  }

  Payload payload_;
};

}  // namespace genalg::algebra

#endif  // GENALG_ALGEBRA_VALUE_H_
