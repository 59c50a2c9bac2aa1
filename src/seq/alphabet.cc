#include "seq/alphabet.h"

#include <cctype>

namespace genalg::seq {

bool IsAminoAcidChar(char c) {
  char up = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return kAminoAcidChars.find(up) != std::string_view::npos;
}

char CanonicalAminoAcid(char c) {
  return static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
}

}  // namespace genalg::seq
