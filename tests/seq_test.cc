#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <string>
#include <string_view>

#include "base/bytes.h"
#include "base/rng.h"
#include "seq/alphabet.h"
#include "seq/codon_table.h"
#include "seq/nucleotide_sequence.h"
#include "seq/protein_sequence.h"

namespace genalg::seq {
namespace {

// -------------------------------------------------------------- Alphabet.

TEST(AlphabetTest, CanonicalBasesRoundTrip) {
  for (char c : std::string("ACGT")) {
    BaseCode code;
    ASSERT_TRUE(CharToBase(c, &code)) << c;
    EXPECT_TRUE(IsUnambiguousBase(code));
    EXPECT_EQ(BaseToChar(code, Alphabet::kDna), c);
  }
}

TEST(AlphabetTest, LowercaseAccepted) {
  BaseCode a, b;
  ASSERT_TRUE(CharToBase('a', &a));
  ASSERT_TRUE(CharToBase('A', &b));
  EXPECT_EQ(a, b);
}

TEST(AlphabetTest, UracilSharesTheTBit) {
  BaseCode u, t;
  ASSERT_TRUE(CharToBase('U', &u));
  ASSERT_TRUE(CharToBase('T', &t));
  EXPECT_EQ(u, t);
  EXPECT_EQ(BaseToChar(u, Alphabet::kRna), 'U');
  EXPECT_EQ(BaseToChar(u, Alphabet::kDna), 'T');
}

TEST(AlphabetTest, AllIupacLettersRoundTrip) {
  for (char c : std::string("ACGTRYSWKMBDHVN-")) {
    BaseCode code;
    ASSERT_TRUE(CharToBase(c, &code)) << c;
    EXPECT_EQ(BaseToChar(code, Alphabet::kDna), c) << c;
  }
}

TEST(AlphabetTest, InvalidCharactersRejected) {
  BaseCode code;
  EXPECT_FALSE(CharToBase('Q', &code));
  EXPECT_FALSE(CharToBase('5', &code));
  EXPECT_FALSE(CharToBase(' ', &code));
}

TEST(AlphabetTest, ComplementIsWatsonCrick) {
  auto comp = [](char c) {
    BaseCode code = 0;
    EXPECT_TRUE(CharToBase(c, &code));
    return BaseToChar(ComplementBase(code), Alphabet::kDna);
  };
  EXPECT_EQ(comp('A'), 'T');
  EXPECT_EQ(comp('T'), 'A');
  EXPECT_EQ(comp('C'), 'G');
  EXPECT_EQ(comp('G'), 'C');
  // Ambiguity codes complement as sets.
  EXPECT_EQ(comp('R'), 'Y');  // A/G -> T/C.
  EXPECT_EQ(comp('Y'), 'R');
  EXPECT_EQ(comp('S'), 'S');  // C/G self-complementary.
  EXPECT_EQ(comp('W'), 'W');
  EXPECT_EQ(comp('K'), 'M');
  EXPECT_EQ(comp('M'), 'K');
  EXPECT_EQ(comp('N'), 'N');
  EXPECT_EQ(comp('-'), '-');
}

TEST(AlphabetTest, ComplementIsInvolution) {
  for (int code = 0; code < 16; ++code) {
    EXPECT_EQ(ComplementBase(ComplementBase(static_cast<BaseCode>(code))),
              code);
  }
}

TEST(AlphabetTest, CardinalityAndCompatibility) {
  BaseCode n, r, a, t;
  CharToBase('N', &n);
  CharToBase('R', &r);
  CharToBase('A', &a);
  CharToBase('T', &t);
  EXPECT_EQ(BaseCardinality(n), 4);
  EXPECT_EQ(BaseCardinality(r), 2);
  EXPECT_EQ(BaseCardinality(a), 1);
  EXPECT_EQ(BaseCardinality(kBaseGap), 0);
  EXPECT_TRUE(BasesCompatible(n, a));
  EXPECT_TRUE(BasesCompatible(r, a));
  EXPECT_FALSE(BasesCompatible(r, t));  // R = A/G cannot be T.
  EXPECT_FALSE(BasesCompatible(kBaseGap, a));
}

// -------------------------------------------------- NucleotideSequence.

TEST(NucleotideSequenceTest, FromStringToStringRoundTrip) {
  auto s = NucleotideSequence::Dna("ACGTRYN");
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->size(), 7u);
  EXPECT_EQ(s->ToString(), "ACGTRYN");
}

TEST(NucleotideSequenceTest, EmptySequence) {
  auto s = NucleotideSequence::Dna("");
  ASSERT_TRUE(s.ok());
  EXPECT_TRUE(s->empty());
  EXPECT_EQ(s->ToString(), "");
  EXPECT_EQ(s->GcContent(), 0.0);
}

TEST(NucleotideSequenceTest, RejectsInvalidCharacterWithPosition) {
  auto s = NucleotideSequence::Dna("ACGQ");
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.status().IsInvalidArgument());
  EXPECT_NE(s.status().message().find("position 3"), std::string::npos);
}

// ToString (two bases per table load) against the per-base CharAt
// rendering, with every code at every position of lengths 0-5 in both
// alphabets, and the canonical letter of every code spelled out.
TEST(NucleotideSequenceTest, ToStringMatchesCharAtForEveryCode) {
  for (Alphabet alphabet : {Alphabet::kDna, Alphabet::kRna}) {
    for (size_t len = 0; len <= 5; ++len) {
      for (size_t pos = 0; pos < std::max<size_t>(len, 1); ++pos) {
        for (int code = 0; code < 16; ++code) {
          NucleotideSequence s(alphabet);
          for (size_t i = 0; i < len; ++i) {
            s.Append(static_cast<BaseCode>(
                i == pos ? code : (code + 5 * i + 3) % 16));
          }
          std::string per_base;
          for (size_t i = 0; i < s.size(); ++i) per_base.push_back(s.CharAt(i));
          EXPECT_EQ(s.ToString(), per_base)
              << "len=" << len << " pos=" << pos << " code=" << code;
          std::string appended = "x";
          s.AppendTo(&appended);
          EXPECT_EQ(appended, "x" + per_base);
        }
      }
    }
    NucleotideSequence every(alphabet);
    for (int code = 0; code < 16; ++code) {
      every.Append(static_cast<BaseCode>(code));
    }
    EXPECT_EQ(every.ToString(), alphabet == Alphabet::kRna
                                    ? "-ACMGRSVUWYHKDBN"
                                    : "-ACMGRSVTWYHKDBN");
  }
}

// Random IUPAC text in either case parses and renders canonically, and an
// invalid character anywhere is reported with its position.
TEST(NucleotideSequenceTest, RandomIupacRoundTripAndInvalidPosition) {
  constexpr std::string_view kIupac = "ACGTURYSWKMBDHVN-.acgturyswkmbdhvn";
  constexpr std::string_view kInvalid = "QZXJEFIOPLqzxjefiopl05 *\n\t?_";
  Rng rng(4242);
  for (int trial = 0; trial < 200; ++trial) {
    const Alphabet alphabet =
        trial % 2 == 0 ? Alphabet::kDna : Alphabet::kRna;
    const std::string text = rng.RandomString(rng.Uniform(80), kIupac);
    std::string canonical;
    for (char c : text) {
      char up = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
      if (up == '.') up = '-';
      if (up == 'T' || up == 'U') up = alphabet == Alphabet::kRna ? 'U' : 'T';
      canonical.push_back(up);
    }
    auto s = NucleotideSequence::FromString(text, alphabet);
    ASSERT_TRUE(s.ok()) << text;
    EXPECT_EQ(s->size(), text.size());
    EXPECT_EQ(s->ToString(), canonical) << text;

    std::string bad = text;
    const size_t at = rng.Uniform(bad.size() + 1);
    const char invalid = rng.Pick(kInvalid);
    bad.insert(bad.begin() + static_cast<std::ptrdiff_t>(at), invalid);
    auto rejected = NucleotideSequence::FromString(bad, alphabet);
    ASSERT_FALSE(rejected.ok()) << bad;
    EXPECT_EQ(rejected.status().message(),
              std::string("invalid nucleotide character '") + invalid +
                  "' at position " + std::to_string(at));
  }
}

TEST(NucleotideSequenceTest, RnaRendersUracil) {
  auto s = NucleotideSequence::Rna("ACGU");
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->ToString(), "ACGU");
  // 'T' accepted as synonym on input.
  auto t = NucleotideSequence::Rna("ACGT");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->ToString(), "ACGU");
  EXPECT_EQ(*s, *t);
}

TEST(NucleotideSequenceTest, SetAndAt) {
  auto s = NucleotideSequence::Dna("AAAA").value();
  s.Set(2, kBaseG);
  EXPECT_EQ(s.ToString(), "AAGA");
  EXPECT_EQ(s.At(2), kBaseG);
}

TEST(NucleotideSequenceTest, OddAndEvenLengthPacking) {
  for (size_t len : {1u, 2u, 3u, 8u, 9u, 100u, 101u}) {
    Rng rng(len);
    std::string text = rng.RandomDna(len);
    auto s = NucleotideSequence::Dna(text).value();
    EXPECT_EQ(s.ToString(), text);
    EXPECT_EQ(s.PackedBytes(), (len + 1) / 2);
  }
}

TEST(NucleotideSequenceTest, SubsequenceAndBounds) {
  auto s = NucleotideSequence::Dna("ACGTACGT").value();
  EXPECT_EQ(s.Subsequence(2, 4).value().ToString(), "GTAC");
  EXPECT_EQ(s.Subsequence(0, 0).value().ToString(), "");
  EXPECT_EQ(s.Subsequence(8, 0).value().ToString(), "");
  EXPECT_TRUE(s.Subsequence(7, 2).status().IsOutOfRange());
  EXPECT_TRUE(s.Subsequence(9, 0).status().IsOutOfRange());
}

TEST(NucleotideSequenceTest, ReverseComplement) {
  auto s = NucleotideSequence::Dna("ATTGCCATA").value();
  EXPECT_EQ(s.ReverseComplement().ToString(), "TATGGCAAT");
  EXPECT_EQ(s.Complement().ToString(), "TAACGGTAT");
}

TEST(NucleotideSequenceTest, ReverseComplementIsInvolutionProperty) {
  Rng rng(17);
  for (int trial = 0; trial < 20; ++trial) {
    auto s = NucleotideSequence::Dna(
                 rng.RandomString(rng.Uniform(200), "ACGTRYSWKMBDHVN"))
                 .value();
    EXPECT_EQ(s.ReverseComplement().ReverseComplement(), s);
  }
}

TEST(NucleotideSequenceTest, TranscriptionAlphabetSwitch) {
  auto dna = NucleotideSequence::Dna("TACGGT").value();
  auto rna = dna.ToRna();
  ASSERT_TRUE(rna.ok());
  EXPECT_EQ(rna->alphabet(), Alphabet::kRna);
  EXPECT_EQ(rna->ToString(), "UACGGU");
  EXPECT_TRUE(rna->ToRna().status().IsFailedPrecondition());
  EXPECT_EQ(rna->ToDna().value(), dna);
  EXPECT_TRUE(dna.ToDna().status().IsFailedPrecondition());
}

TEST(NucleotideSequenceTest, GcContent) {
  EXPECT_DOUBLE_EQ(NucleotideSequence::Dna("GGCC").value().GcContent(), 1.0);
  EXPECT_DOUBLE_EQ(NucleotideSequence::Dna("AATT").value().GcContent(), 0.0);
  EXPECT_DOUBLE_EQ(NucleotideSequence::Dna("ACGT").value().GcContent(), 0.5);
  // Ambiguous positions are excluded from the denominator.
  EXPECT_DOUBLE_EQ(NucleotideSequence::Dna("GNNN").value().GcContent(), 1.0);
}

TEST(NucleotideSequenceTest, AmbiguityAccounting) {
  auto s = NucleotideSequence::Dna("ACGTNRY-").value();
  EXPECT_EQ(s.CountAmbiguous(), 4u);  // N, R, Y, and the gap.
  auto hist = s.BaseHistogram();
  EXPECT_EQ(hist[kBaseA], 1u);
  EXPECT_EQ(hist[kBaseN], 1u);
  EXPECT_EQ(hist[kBaseGap], 1u);
}

TEST(NucleotideSequenceTest, ConcatRequiresSameAlphabet) {
  auto a = NucleotideSequence::Dna("ACG").value();
  auto b = NucleotideSequence::Dna("TTT").value();
  ASSERT_TRUE(a.Concat(b).ok());
  EXPECT_EQ(a.ToString(), "ACGTTT");
  auto r = NucleotideSequence::Rna("AAA").value();
  EXPECT_TRUE(a.Concat(r).IsInvalidArgument());
}

TEST(NucleotideSequenceTest, FindExact) {
  auto s = NucleotideSequence::Dna("GGATTGCCATAGG").value();
  auto pat = NucleotideSequence::Dna("ATTGCCATA").value();
  EXPECT_EQ(s.Find(pat), 2u);
  EXPECT_EQ(s.Find(pat, 3), NucleotideSequence::npos);
  auto missing = NucleotideSequence::Dna("AAAAAA").value();
  EXPECT_EQ(s.Find(missing), NucleotideSequence::npos);
}

TEST(NucleotideSequenceTest, FindIsAmbiguityAware) {
  auto s = NucleotideSequence::Dna("ACGTACGT").value();
  // Pattern with N matches any base; R matches A or G.
  EXPECT_EQ(s.Find(NucleotideSequence::Dna("ANG").value()), 0u);
  EXPECT_EQ(s.Find(NucleotideSequence::Dna("ANC").value()),
            NucleotideSequence::npos);
  EXPECT_EQ(s.Find(NucleotideSequence::Dna("ACN").value()), 0u);
  EXPECT_EQ(s.Find(NucleotideSequence::Dna("RCG").value()), 0u);
  // A subject 'N' matches any pattern base too (set intersection).
  auto subject = NucleotideSequence::Dna("ANGT").value();
  EXPECT_EQ(subject.Find(NucleotideSequence::Dna("ACGT").value()), 0u);
}

TEST(NucleotideSequenceTest, EmptyPatternMatchesEverywhere) {
  auto s = NucleotideSequence::Dna("ACG").value();
  auto empty = NucleotideSequence::Dna("").value();
  EXPECT_EQ(s.Find(empty, 0), 0u);
  EXPECT_EQ(s.Find(empty, 3), 3u);
  EXPECT_EQ(s.Find(empty, 4), NucleotideSequence::npos);
}

TEST(NucleotideSequenceTest, SerializeDeserializeRoundTrip) {
  Rng rng(23);
  for (size_t len : {0u, 1u, 2u, 7u, 64u, 1001u}) {
    auto s = NucleotideSequence::Dna(
                 rng.RandomString(len, "ACGTRYSWKMBDHVN-"))
                 .value();
    BytesWriter w;
    s.Serialize(&w);
    BytesReader r(w.data());
    auto back = NucleotideSequence::Deserialize(&r);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(*back, s);
    EXPECT_TRUE(r.exhausted());
  }
}

TEST(NucleotideSequenceTest, DeserializeRejectsBadAlphabetTag) {
  BytesWriter w;
  w.PutU8(9);
  w.PutVarint(0);
  BytesReader r(w.data());
  EXPECT_TRUE(NucleotideSequence::Deserialize(&r).status().IsCorruption());
}

TEST(NucleotideSequenceTest, DeserializeRejectsTruncatedPayload) {
  auto s = NucleotideSequence::Dna("ACGTACGTACGT").value();
  BytesWriter w;
  s.Serialize(&w);
  auto bytes = w.data();
  bytes.resize(bytes.size() - 2);
  BytesReader r(bytes.data(), bytes.size());
  EXPECT_TRUE(NucleotideSequence::Deserialize(&r).status().IsCorruption());
}

// A parameterized sweep: serialization round-trips across lengths
// (packing edge cases) and both alphabets.
class SequenceRoundTripTest
    : public ::testing::TestWithParam<std::tuple<size_t, Alphabet>> {};

TEST_P(SequenceRoundTripTest, RoundTrips) {
  auto [len, alphabet] = GetParam();
  Rng rng(static_cast<uint64_t>(len) * 31 + static_cast<int>(alphabet));
  auto s = NucleotideSequence::FromString(
               rng.RandomString(len, "ACGTNRYSWKM"), alphabet)
               .value();
  BytesWriter w;
  s.Serialize(&w);
  BytesReader r(w.data());
  EXPECT_EQ(NucleotideSequence::Deserialize(&r).value(), s);
  EXPECT_EQ(s.ReverseComplement().ReverseComplement(), s);
  EXPECT_EQ(s.ToString().size(), len);
}

INSTANTIATE_TEST_SUITE_P(
    Lengths, SequenceRoundTripTest,
    ::testing::Combine(::testing::Values(0, 1, 2, 3, 15, 16, 17, 255, 256,
                                         1023),
                       ::testing::Values(Alphabet::kDna, Alphabet::kRna)));

// ------------------------------------------------------ ProteinSequence.

TEST(ProteinSequenceTest, FromStringRoundTrip) {
  auto p = ProteinSequence::FromString("MKV*");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->size(), 4u);
  EXPECT_EQ(p->ToString(), "MKV*");
  EXPECT_TRUE(p->HasTerminalStop());
}

TEST(ProteinSequenceTest, LowercaseCanonicalized) {
  EXPECT_EQ(ProteinSequence::FromString("mkv").value().ToString(), "MKV");
}

TEST(ProteinSequenceTest, RejectsInvalidResidue) {
  auto p = ProteinSequence::FromString("MK9");
  ASSERT_FALSE(p.ok());
  EXPECT_TRUE(p.status().IsInvalidArgument());
}

TEST(ProteinSequenceTest, SubsequenceAndUnknowns) {
  auto p = ProteinSequence::FromString("MXKXV").value();
  EXPECT_EQ(p.CountUnknown(), 2u);
  EXPECT_EQ(p.Subsequence(1, 3).value().ToString(), "XKX");
  EXPECT_TRUE(p.Subsequence(4, 2).status().IsOutOfRange());
}

TEST(ProteinSequenceTest, MolecularWeightSanity) {
  // Glycine dipeptide: 2 * 57.05 + 18.015.
  auto p = ProteinSequence::FromString("GG").value();
  EXPECT_NEAR(p.MolecularWeightDaltons(), 132.115, 0.01);
  EXPECT_EQ(ProteinSequence().MolecularWeightDaltons(), 0.0);
}

TEST(ProteinSequenceTest, SerializeRoundTripAndCorruption) {
  auto p = ProteinSequence::FromString("MKVLLAGX*").value();
  BytesWriter w;
  p.Serialize(&w);
  BytesReader r(w.data());
  EXPECT_EQ(ProteinSequence::Deserialize(&r).value(), p);

  // A tampered residue byte is caught.
  auto bytes = w.data();
  bytes[2] = '9';
  BytesReader bad(bytes.data(), bytes.size());
  EXPECT_TRUE(ProteinSequence::Deserialize(&bad).status().IsCorruption());
}

// ----------------------------------------------------------- CodonTable.

TEST(CodonTableTest, StandardTableBasics) {
  auto t = CodonTable::ByNcbiId(1);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ((*t)->name(), "Standard");
  auto tr = [&](const char* codon) {
    BaseCode b[3];
    for (int i = 0; i < 3; ++i) EXPECT_TRUE(CharToBase(codon[i], &b[i]));
    return (*t)->Translate(b[0], b[1], b[2]);
  };
  EXPECT_EQ(tr("ATG"), 'M');
  EXPECT_EQ(tr("TTT"), 'F');
  EXPECT_EQ(tr("TAA"), '*');
  EXPECT_EQ(tr("TAG"), '*');
  EXPECT_EQ(tr("TGA"), '*');
  EXPECT_EQ(tr("TGG"), 'W');
  EXPECT_EQ(tr("AAA"), 'K');
  EXPECT_EQ(tr("GGG"), 'G');
}

TEST(CodonTableTest, AmbiguousCodonResolvedWhenUnanimous) {
  auto t = *CodonTable::ByNcbiId(1);
  BaseCode g, c, n, r;
  CharToBase('G', &g);
  CharToBase('C', &c);
  CharToBase('N', &n);
  CharToBase('R', &r);
  // GCN is alanine in all four expansions.
  EXPECT_EQ(t->Translate(g, c, n), 'A');
  // RAA expands to AAA (K) and GAA (E): uncertain.
  BaseCode a;
  CharToBase('A', &a);
  EXPECT_EQ(t->Translate(r, a, a), 'X');
  // Gap in codon is unknown.
  EXPECT_EQ(t->Translate(kBaseGap, a, a), 'X');
}

TEST(CodonTableTest, MitochondrialDiffersFromStandard) {
  auto std_t = *CodonTable::ByNcbiId(1);
  auto mito = *CodonTable::ByNcbiId(2);
  BaseCode t, g, a;
  CharToBase('T', &t);
  CharToBase('G', &g);
  CharToBase('A', &a);
  // TGA: stop in standard, tryptophan in vertebrate mitochondrial.
  EXPECT_EQ(std_t->Translate(t, g, a), '*');
  EXPECT_EQ(mito->Translate(t, g, a), 'W');
  // AGA: arginine in standard, stop in vertebrate mitochondrial.
  EXPECT_EQ(std_t->Translate(a, g, a), 'R');
  EXPECT_EQ(mito->Translate(a, g, a), '*');
}

TEST(CodonTableTest, YeastMitochondrialCtnIsThreonine) {
  auto yeast = *CodonTable::ByNcbiId(3);
  BaseCode c, t, n;
  CharToBase('C', &c);
  CharToBase('T', &t);
  CharToBase('N', &n);
  EXPECT_EQ(yeast->Translate(c, t, n), 'T');
}

TEST(CodonTableTest, StartCodons) {
  auto std_t = *CodonTable::ByNcbiId(1);
  auto bact = *CodonTable::ByNcbiId(11);
  auto codon = [](const char* s) {
    BaseCode b[3];
    for (int i = 0; i < 3; ++i) CharToBase(s[i], &b[i]);
    return std::array<BaseCode, 3>{b[0], b[1], b[2]};
  };
  auto atg = codon("ATG"), gtg = codon("GTG"), aaa = codon("AAA");
  EXPECT_TRUE(std_t->IsStart(atg[0], atg[1], atg[2]));
  EXPECT_FALSE(std_t->IsStart(gtg[0], gtg[1], gtg[2]));
  EXPECT_TRUE(bact->IsStart(gtg[0], gtg[1], gtg[2]));
  EXPECT_FALSE(std_t->IsStart(aaa[0], aaa[1], aaa[2]));
}

TEST(CodonTableTest, UnknownTableIsNotFound) {
  EXPECT_TRUE(CodonTable::ByNcbiId(999).status().IsNotFound());
}

TEST(CodonTableTest, RuntimeRegistrationExtensibility) {
  // A fictional genetic code where every codon is alanine.
  Status s = CodonTable::Register(901, "AllAla", std::string(64, 'A'),
                                  {"ATG"});
  ASSERT_TRUE(s.ok()) << s.ToString();
  auto t = CodonTable::ByNcbiId(901);
  ASSERT_TRUE(t.ok());
  BaseCode a;
  CharToBase('A', &a);
  EXPECT_EQ((*t)->Translate(a, a, a), 'A');
  // Double registration is rejected.
  EXPECT_TRUE(CodonTable::Register(901, "dup", std::string(64, 'A'), {})
                  .IsAlreadyExists());
  // Malformed tables are rejected.
  EXPECT_TRUE(CodonTable::Register(902, "short", "AA", {})
                  .IsInvalidArgument());
  EXPECT_TRUE(CodonTable::Register(903, "badstart", std::string(64, 'A'),
                                   {"AT"})
                  .IsInvalidArgument());
  EXPECT_TRUE(CodonTable::Register(904, "ambigstart", std::string(64, 'A'),
                                   {"ATN"})
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace genalg::seq
