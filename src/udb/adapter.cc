#include "udb/adapter.h"

#include <algorithm>

#include "base/bytes.h"
#include "gdt/entities.h"
#include "seq/nucleotide_sequence.h"
#include "seq/protein_sequence.h"

namespace genalg::udb {

Status Adapter::RegisterUdt(std::string name, UdtSerializer serialize,
                            UdtDeserializer deserialize) {
  if (name.empty() || !serialize || !deserialize) {
    return Status::InvalidArgument("UDT needs a name and both codecs");
  }
  if (udts_.count(name) != 0) {
    return Status::AlreadyExists("UDT '" + name + "' already registered");
  }
  udts_.emplace(std::move(name),
                UdtCodec{std::move(serialize), std::move(deserialize)});
  return Status::OK();
}

std::vector<std::string> Adapter::ListUdts() const {
  std::vector<std::string> out;
  out.reserve(udts_.size());
  for (const auto& [name, codec] : udts_) out.push_back(name);
  return out;
}

Result<Datum> Adapter::ToDatum(const algebra::Value& value) const {
  std::string_view sort = value.sort();
  if (sort == algebra::kSortBool) return Datum::Bool(*value.AsBool());
  if (sort == algebra::kSortInt) return Datum::Int(*value.AsInt());
  if (sort == algebra::kSortReal) return Datum::Real(*value.AsReal());
  if (sort == algebra::kSortString) {
    return Datum::String(*value.AsString());
  }
  auto it = udts_.find(sort);
  if (it == udts_.end()) {
    return Status::InvalidArgument("no UDT registered for sort '" +
                                   std::string(sort) + "'");
  }
  GENALG_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes,
                          it->second.serialize(value));
  return Datum::Udt(std::string(sort), std::move(bytes));
}

Result<algebra::Value> Adapter::ToValue(const Datum& datum) const {
  switch (datum.kind()) {
    case DatumKind::kNull:
      return algebra::Value();
    case DatumKind::kBool:
      return algebra::Value::Bool(*datum.AsBool());
    case DatumKind::kInt:
      return algebra::Value::Int(*datum.AsInt());
    case DatumKind::kReal:
      return algebra::Value::Real(*datum.AsReal());
    case DatumKind::kString:
      return algebra::Value::String(*datum.AsString());
    case DatumKind::kUdt: {
      GENALG_ASSIGN_OR_RETURN(UdtPayload payload, datum.AsUdt());
      auto it = udts_.find(payload.type_name);
      if (it == udts_.end()) {
        return Status::InvalidArgument("no UDT registered for '" +
                                       payload.type_name + "'");
      }
      return it->second.deserialize(payload.bytes);
    }
  }
  return Status::InvalidArgument("unconvertible datum");
}

Result<Datum> Adapter::Invoke(std::string_view op,
                              const std::vector<Datum>& args) const {
  std::vector<algebra::Value> values;
  values.reserve(args.size());
  for (const Datum& d : args) {
    GENALG_ASSIGN_OR_RETURN(algebra::Value v, ToValue(d));
    values.push_back(std::move(v));
  }
  GENALG_ASSIGN_OR_RETURN(algebra::Value result,
                          algebra_->Apply(op, values));
  return ToDatum(result);
}

Status Adapter::InvokeBlock(std::string_view op,
                            const std::vector<std::vector<Datum>>& args,
                            size_t rows, std::vector<Datum>* out) const {
  // Lift row by row, as Invoke would: a failure at row r is reported
  // after rows [0, r) are applied.
  std::vector<std::vector<algebra::Value>> values(args.size());
  Status lifted = Status::OK();
  size_t ready = 0;
  for (; ready < rows && lifted.ok(); ++ready) {
    for (size_t k = 0; k < args.size() && lifted.ok(); ++k) {
      const bool shared = args[k].size() == 1;
      if (shared && ready > 0) continue;
      Result<algebra::Value> v = ToValue(args[k][shared ? 0 : ready]);
      if (v.ok()) {
        values[k].push_back(std::move(*v));
      } else {
        lifted = v.status();
      }
    }
  }
  if (!lifted.ok()) {
    --ready;  // Drop the failing row's partial tuple.
    for (std::vector<algebra::Value>& column : values) {
      column.resize(std::min(column.size(), ready));
    }
  }
  std::vector<algebra::Value> results;
  Status applied =
      algebra_->ApplyBlock(op, std::move(values), ready, &results);
  for (const algebra::Value& v : results) {
    GENALG_ASSIGN_OR_RETURN(Datum d, ToDatum(v));
    out->push_back(std::move(d));
  }
  GENALG_RETURN_IF_ERROR(applied);
  return lifted;
}

namespace {

// Builds a codec from a GDT's Serialize/Deserialize pair and the matching
// Value accessors/constructors.
template <typename T>
Result<std::vector<uint8_t>> SerializeGdt(Result<T> value) {
  if (!value.ok()) return value.status();
  BytesWriter w;
  value->Serialize(&w);
  return w.Release();
}

}  // namespace

Status RegisterStandardUdts(Adapter* adapter) {
  using algebra::Value;
  GENALG_RETURN_IF_ERROR(adapter->RegisterUdt(
      std::string(algebra::kSortNucSeq),
      [](const Value& v) { return SerializeGdt(v.AsNucSeq()); },
      [](const std::vector<uint8_t>& bytes) -> Result<Value> {
        BytesReader r(bytes);
        GENALG_ASSIGN_OR_RETURN(seq::NucleotideSequence s,
                                seq::NucleotideSequence::Deserialize(&r));
        return Value::NucSeq(std::move(s));
      }));
  GENALG_RETURN_IF_ERROR(adapter->RegisterUdt(
      std::string(algebra::kSortProtSeq),
      [](const Value& v) { return SerializeGdt(v.AsProtSeq()); },
      [](const std::vector<uint8_t>& bytes) -> Result<Value> {
        BytesReader r(bytes);
        GENALG_ASSIGN_OR_RETURN(seq::ProteinSequence s,
                                seq::ProteinSequence::Deserialize(&r));
        return Value::ProtSeq(std::move(s));
      }));
  GENALG_RETURN_IF_ERROR(adapter->RegisterUdt(
      std::string(algebra::kSortGene),
      [](const Value& v) { return SerializeGdt(v.AsGene()); },
      [](const std::vector<uint8_t>& bytes) -> Result<Value> {
        BytesReader r(bytes);
        GENALG_ASSIGN_OR_RETURN(gdt::Gene g, gdt::Gene::Deserialize(&r));
        return Value::GeneVal(std::move(g));
      }));
  GENALG_RETURN_IF_ERROR(adapter->RegisterUdt(
      std::string(algebra::kSortPrimaryTranscript),
      [](const Value& v) { return SerializeGdt(v.AsTranscript()); },
      [](const std::vector<uint8_t>& bytes) -> Result<Value> {
        BytesReader r(bytes);
        GENALG_ASSIGN_OR_RETURN(gdt::PrimaryTranscript t,
                                gdt::PrimaryTranscript::Deserialize(&r));
        return Value::TranscriptVal(std::move(t));
      }));
  GENALG_RETURN_IF_ERROR(adapter->RegisterUdt(
      std::string(algebra::kSortMRna),
      [](const Value& v) { return SerializeGdt(v.AsMRna()); },
      [](const std::vector<uint8_t>& bytes) -> Result<Value> {
        BytesReader r(bytes);
        GENALG_ASSIGN_OR_RETURN(gdt::MRna m, gdt::MRna::Deserialize(&r));
        return Value::MRnaVal(std::move(m));
      }));
  GENALG_RETURN_IF_ERROR(adapter->RegisterUdt(
      std::string(algebra::kSortProtein),
      [](const Value& v) { return SerializeGdt(v.AsProtein()); },
      [](const std::vector<uint8_t>& bytes) -> Result<Value> {
        BytesReader r(bytes);
        GENALG_ASSIGN_OR_RETURN(gdt::Protein p,
                                gdt::Protein::Deserialize(&r));
        return Value::ProteinVal(std::move(p));
      }));
  return Status::OK();
}

}  // namespace genalg::udb
