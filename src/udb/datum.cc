#include "udb/datum.h"

#include <cmath>
#include <cstring>

namespace genalg::udb {

Result<double> Datum::AsNumber() const {
  if (const int64_t* i = std::get_if<int64_t>(&payload_)) {
    return static_cast<double>(*i);
  }
  if (const double* d = std::get_if<double>(&payload_)) return *d;
  return Status::InvalidArgument("datum is not numeric");
}

Result<int> Datum::Compare(const Datum& other) const {
  // NULL sorts before everything; two NULLs are equal.
  if (is_null() || other.is_null()) {
    if (is_null() && other.is_null()) return 0;
    return is_null() ? -1 : 1;
  }
  // Two INTs compare exactly, as their B+-tree keys do; through double,
  // values past 2^53 would tie.
  const int64_t* lhs = std::get_if<int64_t>(&payload_);
  const int64_t* rhs = std::get_if<int64_t>(&other.payload_);
  if (lhs != nullptr && rhs != nullptr) return (*lhs > *rhs) - (*lhs < *rhs);
  // Numeric cross-kind comparison.
  if ((kind() == DatumKind::kInt || kind() == DatumKind::kReal) &&
      (other.kind() == DatumKind::kInt ||
       other.kind() == DatumKind::kReal)) {
    double a = AsNumber().value();
    double b = other.AsNumber().value();
    if (a < b) return -1;
    if (a > b) return 1;
    return 0;
  }
  if (kind() != other.kind()) {
    return Status::InvalidArgument("cannot compare " + ToString() + " with " +
                                   other.ToString());
  }
  switch (kind()) {
    case DatumKind::kBool: {
      bool a = *std::get_if<bool>(&payload_);
      bool b = *std::get_if<bool>(&other.payload_);
      return (a ? 1 : 0) - (b ? 1 : 0);
    }
    case DatumKind::kString: {
      int c = std::get_if<std::string>(&payload_)->compare(
          *std::get_if<std::string>(&other.payload_));
      return c < 0 ? -1 : c > 0 ? 1 : 0;
    }
    case DatumKind::kUdt: {
      const UdtPayload& a = *std::get_if<UdtPayload>(&payload_);
      const UdtPayload& b = *std::get_if<UdtPayload>(&other.payload_);
      if (int c = a.type_name.compare(b.type_name); c != 0) {
        return c < 0 ? -1 : 1;
      }
      if (a.bytes < b.bytes) return -1;
      if (b.bytes < a.bytes) return 1;
      return 0;
    }
    default:
      return Status::InvalidArgument("uncomparable datum kind");
  }
}

namespace {

// Order-preserving double encoding: flip the sign bit for positives,
// invert all bits for negatives. -0.0 encodes as 0.0 because Compare
// calls them equal, so a B+-tree probe for one must find the other.
uint64_t EncodeDouble(double v) {
  if (v == 0) v = 0.0;
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  if (bits & 0x8000000000000000ULL) {
    return ~bits;
  }
  return bits | 0x8000000000000000ULL;
}

void AppendBigEndian(uint64_t v, std::string* out) {
  for (int i = 7; i >= 0; --i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

}  // namespace

std::string Datum::OrderKey() const {
  std::string out;
  out.push_back(static_cast<char>(kind()));
  switch (kind()) {
    case DatumKind::kNull:
      break;
    case DatumKind::kBool:
      out.push_back(*std::get_if<bool>(&payload_) ? 1 : 0);
      break;
    case DatumKind::kInt:
      // Bias so memcmp order matches signed order.
      AppendBigEndian(static_cast<uint64_t>(*std::get_if<int64_t>(&payload_)) ^
                          0x8000000000000000ULL,
                      &out);
      break;
    case DatumKind::kReal:
      AppendBigEndian(EncodeDouble(*std::get_if<double>(&payload_)), &out);
      break;
    case DatumKind::kString:
      out += *std::get_if<std::string>(&payload_);
      break;
    case DatumKind::kUdt: {
      const UdtPayload& u = *std::get_if<UdtPayload>(&payload_);
      out += u.type_name;
      out.push_back('\0');
      out.append(reinterpret_cast<const char*>(u.bytes.data()),
                 u.bytes.size());
      break;
    }
  }
  return out;
}

void Datum::Serialize(BytesWriter* out) const {
  out->PutU8(static_cast<uint8_t>(kind()));
  switch (kind()) {
    case DatumKind::kNull:
      break;
    case DatumKind::kBool:
      out->PutU8(*std::get_if<bool>(&payload_) ? 1 : 0);
      break;
    case DatumKind::kInt:
      out->PutI64(*std::get_if<int64_t>(&payload_));
      break;
    case DatumKind::kReal:
      out->PutF64(*std::get_if<double>(&payload_));
      break;
    case DatumKind::kString:
      out->PutString(*std::get_if<std::string>(&payload_));
      break;
    case DatumKind::kUdt: {
      const UdtPayload& u = *std::get_if<UdtPayload>(&payload_);
      out->PutString(u.type_name);
      out->PutVarint(u.bytes.size());
      out->PutRaw(u.bytes.data(), u.bytes.size());
      break;
    }
  }
}

Result<Datum> Datum::Deserialize(BytesReader* in) {
  auto kind = in->GetU8();
  if (!kind.ok()) return kind.status();
  switch (static_cast<DatumKind>(*kind)) {
    case DatumKind::kNull:
      return Datum::Null();
    case DatumKind::kBool: {
      GENALG_ASSIGN_OR_RETURN(uint8_t v, in->GetU8());
      return Datum::Bool(v != 0);
    }
    case DatumKind::kInt: {
      GENALG_ASSIGN_OR_RETURN(int64_t v, in->GetI64());
      return Datum::Int(v);
    }
    case DatumKind::kReal: {
      GENALG_ASSIGN_OR_RETURN(double v, in->GetF64());
      return Datum::Real(v);
    }
    case DatumKind::kString: {
      GENALG_ASSIGN_OR_RETURN(std::string v, in->GetString());
      return Datum::String(std::move(v));
    }
    case DatumKind::kUdt: {
      GENALG_ASSIGN_OR_RETURN(std::string type_name, in->GetString());
      GENALG_ASSIGN_OR_RETURN(uint64_t size, in->GetVarint());
      std::vector<uint8_t> bytes(static_cast<size_t>(size));
      GENALG_RETURN_IF_ERROR(in->GetRaw(bytes.data(), bytes.size()));
      return Datum::Udt(std::move(type_name), std::move(bytes));
    }
    default:
      return Status::Corruption("invalid datum kind tag " +
                                std::to_string(*kind));
  }
}

std::string Datum::ToString() const {
  switch (kind()) {
    case DatumKind::kNull:
      return "NULL";
    case DatumKind::kBool:
      return *std::get_if<bool>(&payload_) ? "true" : "false";
    case DatumKind::kInt:
      return std::to_string(*std::get_if<int64_t>(&payload_));
    case DatumKind::kReal: {
      std::string s = std::to_string(*std::get_if<double>(&payload_));
      return s;
    }
    case DatumKind::kString:
      return "'" + *std::get_if<std::string>(&payload_) + "'";
    case DatumKind::kUdt: {
      const UdtPayload& u = *std::get_if<UdtPayload>(&payload_);
      return "<" + u.type_name + ":" + std::to_string(u.bytes.size()) +
             "B>";
    }
  }
  return "?";
}

void SerializeRow(const Row& row, BytesWriter* out) {
  out->PutVarint(row.size());
  for (const Datum& d : row) d.Serialize(out);
}

Result<Row> DeserializeRow(BytesReader* in) {
  auto n = in->GetVarint();
  if (!n.ok()) return n.status();
  Row row;
  row.reserve(static_cast<size_t>(*n));
  for (uint64_t i = 0; i < *n; ++i) {
    GENALG_ASSIGN_OR_RETURN(Datum d, Datum::Deserialize(in));
    row.push_back(std::move(d));
  }
  return row;
}

std::string ColumnType::ToString() const {
  switch (kind) {
    case DatumKind::kBool: return "BOOL";
    case DatumKind::kInt: return "INT";
    case DatumKind::kReal: return "REAL";
    case DatumKind::kString: return "TEXT";
    case DatumKind::kUdt: return udt_name;
    default: return "NULL";
  }
}

bool ColumnType::Accepts(const Datum& datum) const {
  if (datum.is_null()) return true;
  if (kind == DatumKind::kReal && datum.kind() == DatumKind::kInt) {
    return true;  // Widening int -> real allowed on insert.
  }
  if (datum.kind() != kind) return false;
  if (kind == DatumKind::kUdt) {
    return datum.AsUdt()->type_name == udt_name;
  }
  return true;
}

}  // namespace genalg::udb
