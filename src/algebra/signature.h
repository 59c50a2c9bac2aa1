#ifndef GENALG_ALGEBRA_SIGNATURE_H_
#define GENALG_ALGEBRA_SIGNATURE_H_

#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "algebra/value.h"
#include "base/result.h"
#include "base/status.h"

namespace genalg::algebra {

/// The syntactic description of one operator of the many-sorted signature
/// (Sec. 4.2): a name annotated with its string of argument sorts and the
/// result sort, e.g.
///
///   translate : mrna -> protein
///   contains  : nucseq x nucseq -> bool
struct OperatorSignature {
  std::string name;
  std::vector<std::string> arg_sorts;
  std::string result_sort;

  /// "name : s1 x s2 -> r" rendering.
  std::string ToString() const;

  bool operator==(const OperatorSignature& other) const {
    return name == other.name && arg_sorts == other.arg_sorts &&
           result_sort == other.result_sort;
  }
};

/// The semantics of an operator: a function over carrier-set elements.
using GenomicFunction =
    std::function<Result<Value>(const std::vector<Value>&)>;

/// The block form of an operator, for operators that can share work
/// across rows: applies it to `rows` argument tuples at once. args[k]
/// holds argument k, either one value per row or one value every row
/// shares. It appends one result per row to `out` and must answer exactly
/// as the operator's function applied row by row would — on an error it
/// returns the first failing row's status, after appending the results
/// of the rows before it.
using GenomicBlockFunction =
    std::function<Status(const std::vector<std::vector<Value>>& args,
                         size_t rows, std::vector<Value>* out)>;

/// Descriptive metadata for a sort (feeds the ontology layer and user
/// documentation).
struct SortInfo {
  std::string name;
  std::string description;
};

/// The Genomics Algebra itself: an extensible many-sorted signature with
/// attached semantics. Sorts are carrier-set names; operators are named,
/// possibly overloaded functions annotated with sort strings. New sorts
/// and operators can be registered at any time — the extensibility the
/// paper demands for self-generated data (C13) and new specialty
/// evaluation functions (C14).
///
/// An operator may be registered with a signature but *no* function: its
/// denotational semantics are known (the sorts), its operational semantics
/// are not (Sec. 4.3's splice dilemma). Such operators type-check in terms
/// but evaluate to Unimplemented, never to a fabricated result.
class SignatureRegistry {
 public:
  SignatureRegistry() = default;

  SignatureRegistry(const SignatureRegistry&) = delete;
  SignatureRegistry& operator=(const SignatureRegistry&) = delete;
  SignatureRegistry(SignatureRegistry&&) = default;
  SignatureRegistry& operator=(SignatureRegistry&&) = default;

  /// Registers a sort; AlreadyExists if the name is taken.
  Status RegisterSort(std::string name, std::string description);

  /// True iff the sort is known.
  bool HasSort(std::string_view name) const;

  /// All registered sorts, sorted by name.
  std::vector<SortInfo> ListSorts() const;

  /// Registers an operator with semantics. All referenced sorts must be
  /// registered. Overloads on distinct argument-sort strings are allowed;
  /// re-registering an identical argument-sort string is AlreadyExists.
  /// `block` (optional) is a block form of `fn`.
  Status RegisterOperator(OperatorSignature signature, GenomicFunction fn,
                          std::string description = "",
                          GenomicBlockFunction block = nullptr);

  /// Registers a signature whose operational semantics are unknown
  /// (evaluates to Unimplemented).
  Status DeclareOperator(OperatorSignature signature,
                         std::string description = "");

  /// Resolves the overload of `name` matching the argument sorts exactly;
  /// NotFound if none.
  Result<const OperatorSignature*> Resolve(
      std::string_view name, const std::vector<std::string>& arg_sorts) const;

  /// All overloads registered under `name` (empty if none).
  std::vector<OperatorSignature> OverloadsOf(std::string_view name) const;

  /// All operator signatures, sorted by name then arity.
  std::vector<OperatorSignature> ListOperators() const;

  /// The documentation string of an operator name (first registration
  /// wins); empty if undocumented.
  std::string Documentation(std::string_view name) const;

  /// Type-checks and applies: resolves the overload for the actual
  /// argument sorts and invokes its function. Unimplemented for declared-
  /// only operators.
  Result<Value> Apply(std::string_view name,
                      const std::vector<Value>& args) const;

  /// Apply over a block of `rows` argument tuples, laid out as for a
  /// GenomicBlockFunction, with the same results and the same first error
  /// as Apply row by row. The overload is resolved once per block; it
  /// runs its block form when it has one and every row has the resolved
  /// sorts, else its function row by row.
  Status ApplyBlock(std::string_view name,
                    std::vector<std::vector<Value>> args, size_t rows,
                    std::vector<Value>* out) const;

  size_t sort_count() const { return sorts_.size(); }
  size_t operator_count() const;

 private:
  struct OperatorEntry {
    OperatorSignature signature;
    GenomicFunction fn;  // Null => declared-only.
    GenomicBlockFunction block;  // Null => row by row.
    std::string description;
  };

  // The overload of `name` for `arg_sorts`, NotFound or Unimplemented as
  // Apply reports them.
  Result<const OperatorEntry*> Find(
      std::string_view name, const std::vector<std::string>& arg_sorts) const;

  std::map<std::string, SortInfo, std::less<>> sorts_;
  std::map<std::string, std::vector<OperatorEntry>, std::less<>> operators_;
};

/// Registers the standard sorts and the comprehensive built-in operator
/// collection (transcribe, splice, translate, decode, contains, resembles,
/// reverse_complement, gc_content, ...). Idempotent per fresh registry.
Status RegisterStandardAlgebra(SignatureRegistry* registry);

}  // namespace genalg::algebra

#endif  // GENALG_ALGEBRA_SIGNATURE_H_
