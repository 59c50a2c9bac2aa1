#ifndef GENALG_SEQ_ALPHABET_H_
#define GENALG_SEQ_ALPHABET_H_

#include <array>
#include <cstdint>
#include <string_view>

namespace genalg::seq {

/// The molecule kinds distinguished by the type system. IUPAC ambiguity
/// codes are representable in both nucleotide alphabets; they are the
/// low-level carrier of the paper's "uncertainty of data" requirement (C9):
/// a base that could not be determined experimentally is stored as the set
/// of bases it might be, not silently coerced to one of them.
enum class Alphabet : uint8_t {
  kDna = 0,  ///< A, C, G, T plus IUPAC ambiguity codes and gaps.
  kRna = 1,  ///< A, C, G, U plus IUPAC ambiguity codes and gaps.
};

/// A nucleotide is encoded in 4 bits as the *set* of canonical bases it may
/// be: bit0=A, bit1=C, bit2=G, bit3=T/U. Examples: A=0001, C=0010, G=0100,
/// T=1000, R(purine)=A|G=0101, N=1111, gap=0000. Complementation is then a
/// pure bit permutation and works on ambiguity codes for free.
using BaseCode = uint8_t;

inline constexpr BaseCode kBaseA = 0x1;
inline constexpr BaseCode kBaseC = 0x2;
inline constexpr BaseCode kBaseG = 0x4;
inline constexpr BaseCode kBaseT = 0x8;  ///< U in the RNA alphabet.
inline constexpr BaseCode kBaseN = 0xF;
inline constexpr BaseCode kBaseGap = 0x0;

namespace alphabet_internal {

inline constexpr uint8_t kNotABase = 0xFF;

struct IupacEntry {
  char letter;
  BaseCode code;
};

inline constexpr IupacEntry kIupacLetters[] = {
    {'A', kBaseA},
    {'C', kBaseC},
    {'G', kBaseG},
    {'T', kBaseT},
    {'U', kBaseT},  // RNA uracil shares the T bit.
    {'R', kBaseA | kBaseG},
    {'Y', kBaseC | kBaseT},
    {'S', kBaseC | kBaseG},
    {'W', kBaseA | kBaseT},
    {'K', kBaseG | kBaseT},
    {'M', kBaseA | kBaseC},
    {'B', kBaseC | kBaseG | kBaseT},
    {'D', kBaseA | kBaseG | kBaseT},
    {'H', kBaseA | kBaseC | kBaseT},
    {'V', kBaseA | kBaseC | kBaseG},
    {'N', kBaseN},
};

constexpr std::array<uint8_t, 256> BaseOfCharTable() {
  std::array<uint8_t, 256> table{};
  table.fill(kNotABase);
  for (const IupacEntry& e : kIupacLetters) {
    const auto upper = static_cast<unsigned char>(e.letter);
    table[upper] = e.code;
    table[upper | 0x20] = e.code;  // Lowercase.
  }
  table['-'] = kBaseGap;
  table['.'] = kBaseGap;
  return table;
}

// Every byte's base set as an IUPAC character, either case ('U' onto the
// T bit, '-' and '.' as gaps), or kNotABase.
inline constexpr std::array<uint8_t, 256> kBaseOfChar = BaseOfCharTable();

// The canonical character of every base set, indexed by code, for DNA
// and for RNA.
inline constexpr char kDnaChars[] = "-ACMGRSVTWYHKDBN";
inline constexpr char kRnaChars[] = "-ACMGRSVUWYHKDBN";

}  // namespace alphabet_internal

/// Encodes an IUPAC character (case-insensitive; 'U' accepted for RNA and
/// mapped onto the T bit). Returns false for characters outside the IUPAC
/// nucleotide set.
constexpr bool CharToBase(char c, BaseCode* out) {
  const uint8_t code =
      alphabet_internal::kBaseOfChar[static_cast<unsigned char>(c)];
  if (code == alphabet_internal::kNotABase) return false;
  *out = code;
  return true;
}

/// Decodes a BaseCode to its canonical uppercase IUPAC character; the
/// alphabet selects 'T' vs 'U' for code 0x8 and for ambiguity codes the
/// standard IUPAC letter (R, Y, S, W, K, M, B, D, H, V, N) or '-' for gap.
constexpr char BaseToChar(BaseCode code, Alphabet alphabet) {
  const char* chars = alphabet == Alphabet::kRna
                          ? alphabet_internal::kRnaChars
                          : alphabet_internal::kDnaChars;
  return chars[code & 0xF];
}

/// Watson-Crick complement as a set operation: A<->T, C<->G, so the bit
/// pattern is reversed. Works for every ambiguity code (complement of R is
/// Y, of N is N, of gap is gap).
constexpr BaseCode ComplementBase(BaseCode code) {
  return static_cast<BaseCode>(((code & 0x1) << 3) | ((code & 0x2) << 1) |
                               ((code & 0x4) >> 1) | ((code & 0x8) >> 3));
}

/// True iff the code denotes exactly one canonical base.
constexpr bool IsUnambiguousBase(BaseCode code) {
  return code != 0 && (code & (code - 1)) == 0;
}

/// Number of canonical bases the code may be (popcount of the 4-bit set).
constexpr int BaseCardinality(BaseCode code) {
  return ((code >> 0) & 1) + ((code >> 1) & 1) + ((code >> 2) & 1) +
         ((code >> 3) & 1);
}

/// True iff `observed` is compatible with `pattern`, i.e. the sets
/// intersect. Used by motif/contains matching under ambiguity: pattern N
/// matches everything, pattern R matches A or G or R...
constexpr bool BasesCompatible(BaseCode a, BaseCode b) {
  return (a & b) != 0;
}

/// The twenty standard amino acids in IUPAC order plus the extended codes
/// accepted in protein sequences: B (Asx), Z (Glx), X (unknown), U (Sec),
/// O (Pyl), * (stop), - (gap).
inline constexpr std::string_view kAminoAcidChars = "ACDEFGHIKLMNPQRSTVWYBZXUO*-";

/// True iff `c` (case-insensitive) is a valid amino-acid character.
bool IsAminoAcidChar(char c);

/// Canonicalizes an amino-acid character to uppercase; requires validity.
char CanonicalAminoAcid(char c);

}  // namespace genalg::seq

#endif  // GENALG_SEQ_ALPHABET_H_
