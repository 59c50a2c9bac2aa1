#ifndef GENALG_UDB_ADAPTER_H_
#define GENALG_UDB_ADAPTER_H_

#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "algebra/signature.h"
#include "algebra/value.h"
#include "base/result.h"
#include "udb/datum.h"

namespace genalg::udb {

/// The DBMS-specific adapter of Sec. 6.2: "the only component that has
/// knowledge about the types and operations of the Genomics Algebra as
/// well as how they are implemented and stored in the DBMS."
///
/// It owns the UDT registry — each registered UDT pairs an algebra sort
/// with a (serialize, deserialize) codec between algebra::Value and the
/// flat byte strings the engine stores — and routes user-defined operator
/// calls from SQL expressions into the algebra (Sec. 6.3).
class Adapter {
 public:
  using UdtSerializer =
      std::function<Result<std::vector<uint8_t>>(const algebra::Value&)>;
  using UdtDeserializer =
      std::function<Result<algebra::Value>(const std::vector<uint8_t>&)>;

  /// The adapter borrows the algebra; the registry must outlive it.
  explicit Adapter(const algebra::SignatureRegistry* algebra)
      : algebra_(algebra) {}

  /// Plugs a UDT into the engine. The name doubles as the algebra sort.
  Status RegisterUdt(std::string name, UdtSerializer serialize,
                     UdtDeserializer deserialize);

  bool HasUdt(std::string_view name) const {
    return udts_.find(name) != udts_.end();
  }

  /// Registered UDT names, sorted.
  std::vector<std::string> ListUdts() const;

  /// Converts an algebra value to its stored form: native sorts map to
  /// native datums, registered UDT sorts serialize to opaque bytes.
  /// InvalidArgument for unregistered sorts.
  Result<Datum> ToDatum(const algebra::Value& value) const;

  /// The inverse of ToDatum.
  Result<algebra::Value> ToValue(const Datum& datum) const;

  /// Invokes an algebra operator over stored datums: arguments are lifted
  /// via ToValue, the operator is resolved and applied by the algebra, and
  /// the result is lowered via ToDatum — the external-function mechanism
  /// that lets Genomics Algebra operations appear inside SQL.
  Result<Datum> Invoke(std::string_view op,
                       const std::vector<Datum>& args) const;

  /// Invoke over a block of `rows` argument tuples (Sec. 6.3's external
  /// functions, called once per block of the SQL filter instead of once
  /// per row). args[k] holds argument k, one datum per row or one datum
  /// every row shares, such as a constant. Appends one result per row to
  /// `out`; results and the first error are those of Invoke row by row,
  /// and on an error `out` holds the results of the rows before it. The
  /// algebra resolves the overload once per block and runs its block form
  /// if it has one (SignatureRegistry::ApplyBlock).
  Status InvokeBlock(std::string_view op,
                     const std::vector<std::vector<Datum>>& args, size_t rows,
                     std::vector<Datum>* out) const;

  const algebra::SignatureRegistry& algebra() const { return *algebra_; }

 private:
  struct UdtCodec {
    UdtSerializer serialize;
    UdtDeserializer deserialize;
  };

  const algebra::SignatureRegistry* algebra_;
  std::map<std::string, UdtCodec, std::less<>> udts_;
};

/// Registers the standard genomic UDTs (nucseq, protseq, gene,
/// primarytranscript, mrna, protein) with their flat codecs.
Status RegisterStandardUdts(Adapter* adapter);

}  // namespace genalg::udb

#endif  // GENALG_UDB_ADAPTER_H_
