#include "seq/nucleotide_sequence.h"

#include <algorithm>
#include <array>
#include <cstring>

namespace genalg::seq {

namespace {

// Both characters of every packed byte (low nibble first), per alphabet:
// ToString decodes two bases with one load.
using CharPairs = std::array<std::array<char, 2>, 256>;

constexpr CharPairs CharPairTable(Alphabet alphabet) {
  CharPairs table{};
  for (size_t byte = 0; byte < 256; ++byte) {
    table[byte] = {BaseToChar(static_cast<BaseCode>(byte & 0xF), alphabet),
                   BaseToChar(static_cast<BaseCode>(byte >> 4), alphabet)};
  }
  return table;
}

constexpr CharPairs kDnaPairs = CharPairTable(Alphabet::kDna);
constexpr CharPairs kRnaPairs = CharPairTable(Alphabet::kRna);

}  // namespace

Result<NucleotideSequence> NucleotideSequence::FromString(
    std::string_view text, Alphabet alphabet) {
  NucleotideSequence s(alphabet);
  s.size_ = text.size();
  s.data_.resize((text.size() + 1) / 2);
  for (size_t i = 0; i < text.size(); ++i) {
    BaseCode code = 0;
    if (!CharToBase(text[i], &code)) {
      return Status::InvalidArgument(
          std::string("invalid nucleotide character '") + text[i] +
          "' at position " + std::to_string(i));
    }
    s.data_[i >> 1] |= static_cast<uint8_t>(code << ((i & 1) * 4));
  }
  return s;
}

Result<NucleotideSequence> NucleotideSequence::Dna(std::string_view text) {
  return FromString(text, Alphabet::kDna);
}

Result<NucleotideSequence> NucleotideSequence::Rna(std::string_view text) {
  return FromString(text, Alphabet::kRna);
}

void NucleotideSequence::Set(size_t i, BaseCode code) {
  uint8_t& byte = data_[i >> 1];
  if (i & 1) {
    byte = static_cast<uint8_t>((byte & 0x0F) | (code << 4));
  } else {
    byte = static_cast<uint8_t>((byte & 0xF0) | (code & 0x0F));
  }
}

void NucleotideSequence::Append(BaseCode code) {
  if ((size_ & 1) == 0) data_.push_back(0);
  ++size_;
  Set(size_ - 1, code);
}

Status NucleotideSequence::AppendChar(char c) {
  BaseCode code;
  if (!CharToBase(c, &code)) {
    return Status::InvalidArgument(
        std::string("invalid nucleotide character '") + c + "'");
  }
  Append(code);
  return Status::OK();
}

Status NucleotideSequence::Concat(const NucleotideSequence& other) {
  if (other.alphabet_ != alphabet_) {
    return Status::InvalidArgument("cannot concatenate DNA with RNA");
  }
  for (size_t i = 0; i < other.size_; ++i) Append(other.At(i));
  return Status::OK();
}

void NucleotideSequence::AppendTo(std::string* out) const {
  const CharPairs& pairs =
      alphabet_ == Alphabet::kRna ? kRnaPairs : kDnaPairs;
  const size_t at = out->size();
  out->resize(at + size_);
  char* chars = out->data() + at;
  const size_t whole = size_ / 2;
  for (size_t k = 0; k < whole; ++k) {
    std::memcpy(chars + 2 * k, pairs[data_[k]].data(), 2);
  }
  if (size_ & 1) chars[size_ - 1] = pairs[data_[whole]][0];
}

std::string NucleotideSequence::ToString() const {
  std::string out;
  AppendTo(&out);
  return out;
}

Result<NucleotideSequence> NucleotideSequence::Subsequence(size_t pos,
                                                           size_t len) const {
  if (pos > size_ || len > size_ - pos) {
    return Status::OutOfRange("subsequence [" + std::to_string(pos) + ", " +
                              std::to_string(pos + len) +
                              ") exceeds length " + std::to_string(size_));
  }
  NucleotideSequence s(alphabet_);
  s.data_.reserve((len + 1) / 2);
  for (size_t i = 0; i < len; ++i) s.Append(At(pos + i));
  return s;
}

NucleotideSequence NucleotideSequence::ReverseComplement() const {
  NucleotideSequence s(alphabet_);
  s.data_.reserve(data_.size());
  for (size_t i = size_; i > 0; --i) s.Append(ComplementBase(At(i - 1)));
  return s;
}

NucleotideSequence NucleotideSequence::Complement() const {
  NucleotideSequence s(alphabet_);
  s.data_.reserve(data_.size());
  for (size_t i = 0; i < size_; ++i) s.Append(ComplementBase(At(i)));
  return s;
}

Result<NucleotideSequence> NucleotideSequence::ToRna() const {
  if (alphabet_ == Alphabet::kRna) {
    return Status::FailedPrecondition("sequence is already RNA");
  }
  NucleotideSequence s = *this;
  s.alphabet_ = Alphabet::kRna;  // Bit pattern is shared; only rendering
                                 // changes (T bit prints as U).
  return s;
}

Result<NucleotideSequence> NucleotideSequence::ToDna() const {
  if (alphabet_ == Alphabet::kDna) {
    return Status::FailedPrecondition("sequence is already DNA");
  }
  NucleotideSequence s = *this;
  s.alphabet_ = Alphabet::kDna;
  return s;
}

double NucleotideSequence::GcContent() const {
  size_t gc = 0;
  size_t total = 0;
  for (size_t i = 0; i < size_; ++i) {
    BaseCode code = At(i);
    if (!IsUnambiguousBase(code)) continue;
    ++total;
    if (code == kBaseG || code == kBaseC) ++gc;
  }
  return total == 0 ? 0.0 : static_cast<double>(gc) / static_cast<double>(total);
}

size_t NucleotideSequence::CountAmbiguous() const {
  size_t n = 0;
  for (size_t i = 0; i < size_; ++i) {
    if (BaseCardinality(At(i)) != 1) ++n;
  }
  return n;
}

std::vector<size_t> NucleotideSequence::BaseHistogram() const {
  std::vector<size_t> hist(16, 0);
  for (size_t i = 0; i < size_; ++i) ++hist[At(i)];
  return hist;
}

bool NucleotideSequence::MatchesAt(size_t pos,
                                   const NucleotideSequence& pattern) const {
  if (pattern.size_ == 0) return true;
  if (pos > size_ || pattern.size_ > size_ - pos) return false;
  for (size_t i = 0; i < pattern.size_; ++i) {
    if (!BasesCompatible(At(pos + i), pattern.At(i))) return false;
  }
  return true;
}

size_t NucleotideSequence::Find(const NucleotideSequence& pattern,
                                size_t from) const {
  if (pattern.size_ == 0) return from <= size_ ? from : npos;
  if (pattern.size_ > size_) return npos;
  for (size_t pos = from; pos + pattern.size_ <= size_; ++pos) {
    if (MatchesAt(pos, pattern)) return pos;
  }
  return npos;
}

bool NucleotideSequence::operator==(const NucleotideSequence& other) const {
  if (alphabet_ != other.alphabet_ || size_ != other.size_) return false;
  for (size_t i = 0; i < size_; ++i) {
    if (At(i) != other.At(i)) return false;
  }
  return true;
}

void NucleotideSequence::Serialize(BytesWriter* out) const {
  out->PutU8(static_cast<uint8_t>(alphabet_));
  out->PutVarint(size_);
  out->PutRaw(data_.data(), data_.size());
}

Result<NucleotideSequence> NucleotideSequence::Deserialize(BytesReader* in) {
  auto alpha = in->GetU8();
  if (!alpha.ok()) return alpha.status();
  if (*alpha > 1) {
    return Status::Corruption("invalid alphabet tag " +
                              std::to_string(*alpha));
  }
  auto len = in->GetVarint();
  if (!len.ok()) return len.status();
  NucleotideSequence s(static_cast<Alphabet>(*alpha));
  s.size_ = static_cast<size_t>(*len);
  s.data_.resize((s.size_ + 1) / 2);
  GENALG_RETURN_IF_ERROR(in->GetRaw(s.data_.data(), s.data_.size()));
  return s;
}

}  // namespace genalg::seq
