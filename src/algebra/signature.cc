#include "algebra/signature.h"

#include <algorithm>
#include <utility>

namespace genalg::algebra {

std::string OperatorSignature::ToString() const {
  std::string out = name + " : ";
  if (arg_sorts.empty()) {
    out += "()";
  } else {
    for (size_t i = 0; i < arg_sorts.size(); ++i) {
      if (i > 0) out += " x ";
      out += arg_sorts[i];
    }
  }
  out += " -> " + result_sort;
  return out;
}

Status SignatureRegistry::RegisterSort(std::string name,
                                       std::string description) {
  if (name.empty()) return Status::InvalidArgument("empty sort name");
  if (sorts_.count(name) != 0) {
    return Status::AlreadyExists("sort '" + name + "' already registered");
  }
  std::string key = name;
  sorts_.emplace(std::move(key),
                 SortInfo{std::move(name), std::move(description)});
  return Status::OK();
}

bool SignatureRegistry::HasSort(std::string_view name) const {
  return sorts_.find(name) != sorts_.end();
}

std::vector<SortInfo> SignatureRegistry::ListSorts() const {
  std::vector<SortInfo> out;
  out.reserve(sorts_.size());
  for (const auto& [name, info] : sorts_) out.push_back(info);
  return out;
}

Status SignatureRegistry::RegisterOperator(OperatorSignature signature,
                                           GenomicFunction fn,
                                           std::string description,
                                           GenomicBlockFunction block) {
  if (signature.name.empty()) {
    return Status::InvalidArgument("empty operator name");
  }
  for (const std::string& sort : signature.arg_sorts) {
    if (!HasSort(sort)) {
      return Status::NotFound("argument sort '" + sort +
                              "' is not registered");
    }
  }
  if (!HasSort(signature.result_sort)) {
    return Status::NotFound("result sort '" + signature.result_sort +
                            "' is not registered");
  }
  auto& overloads = operators_[signature.name];
  for (const OperatorEntry& entry : overloads) {
    if (entry.signature.arg_sorts == signature.arg_sorts) {
      return Status::AlreadyExists("operator '" + signature.ToString() +
                                   "' already registered");
    }
  }
  overloads.push_back(OperatorEntry{std::move(signature), std::move(fn),
                                    std::move(block),
                                    std::move(description)});
  return Status::OK();
}

Status SignatureRegistry::DeclareOperator(OperatorSignature signature,
                                          std::string description) {
  return RegisterOperator(std::move(signature), nullptr,
                          std::move(description));
}

Result<const OperatorSignature*> SignatureRegistry::Resolve(
    std::string_view name, const std::vector<std::string>& arg_sorts) const {
  auto it = operators_.find(name);
  if (it == operators_.end()) {
    return Status::NotFound("no operator named '" + std::string(name) + "'");
  }
  for (const OperatorEntry& entry : it->second) {
    if (entry.signature.arg_sorts == arg_sorts) return &entry.signature;
  }
  std::string sorts;
  for (size_t i = 0; i < arg_sorts.size(); ++i) {
    if (i > 0) sorts += ", ";
    sorts += arg_sorts[i];
  }
  return Status::NotFound("no overload of '" + std::string(name) +
                          "' accepts (" + sorts + ")");
}

std::vector<OperatorSignature> SignatureRegistry::OverloadsOf(
    std::string_view name) const {
  std::vector<OperatorSignature> out;
  auto it = operators_.find(name);
  if (it == operators_.end()) return out;
  for (const OperatorEntry& entry : it->second) {
    out.push_back(entry.signature);
  }
  return out;
}

std::vector<OperatorSignature> SignatureRegistry::ListOperators() const {
  std::vector<OperatorSignature> out;
  for (const auto& [name, overloads] : operators_) {
    for (const OperatorEntry& entry : overloads) {
      out.push_back(entry.signature);
    }
  }
  return out;
}

std::string SignatureRegistry::Documentation(std::string_view name) const {
  auto it = operators_.find(name);
  if (it == operators_.end() || it->second.empty()) return "";
  return it->second.front().description;
}

Result<const SignatureRegistry::OperatorEntry*> SignatureRegistry::Find(
    std::string_view name, const std::vector<std::string>& arg_sorts) const {
  auto it = operators_.find(name);
  if (it == operators_.end()) {
    return Status::NotFound("no operator named '" + std::string(name) + "'");
  }
  for (const OperatorEntry& entry : it->second) {
    if (entry.signature.arg_sorts != arg_sorts) continue;
    if (!entry.fn) {
      return Status::Unimplemented(
          "operator '" + entry.signature.ToString() +
          "' has a declared signature but no operational semantics");
    }
    return &entry;
  }
  std::string sorts;
  for (size_t i = 0; i < arg_sorts.size(); ++i) {
    if (i > 0) sorts += ", ";
    sorts += arg_sorts[i];
  }
  return Status::NotFound("no overload of '" + std::string(name) +
                          "' accepts (" + sorts + ")");
}

Result<Value> SignatureRegistry::Apply(std::string_view name,
                                       const std::vector<Value>& args) const {
  std::vector<std::string> arg_sorts;
  arg_sorts.reserve(args.size());
  for (const Value& v : args) arg_sorts.emplace_back(v.sort());
  GENALG_ASSIGN_OR_RETURN(const OperatorEntry* entry,
                          Find(name, arg_sorts));
  return entry->fn(args);
}

Status SignatureRegistry::ApplyBlock(std::string_view name,
                                     std::vector<std::vector<Value>> args,
                                     size_t rows,
                                     std::vector<Value>* out) const {
  if (rows == 0) return Status::OK();
  // The block resolves by its first row; a row of other sorts sends the
  // block down the row-by-row path, which resolves each row.
  std::vector<std::string> arg_sorts;
  arg_sorts.reserve(args.size());
  bool uniform = true;
  for (const std::vector<Value>& column : args) {
    arg_sorts.emplace_back(column.front().sort());
    for (const Value& v : column) {
      uniform = uniform && v.sort() == arg_sorts.back();
    }
  }
  GENALG_ASSIGN_OR_RETURN(const OperatorEntry* entry, Find(name, arg_sorts));
  if (uniform && entry->block) return entry->block(args, rows, out);
  std::vector<Value> tuple(args.size());
  for (size_t r = 0; r < rows; ++r) {
    for (size_t k = 0; k < args.size(); ++k) {
      tuple[k] = args[k].size() == 1 ? args[k][0] : std::move(args[k][r]);
    }
    GENALG_ASSIGN_OR_RETURN(Value v, uniform ? entry->fn(tuple)
                                             : Apply(name, tuple));
    out->push_back(std::move(v));
  }
  return Status::OK();
}

size_t SignatureRegistry::operator_count() const {
  size_t total = 0;
  for (const auto& [name, overloads] : operators_) total += overloads.size();
  return total;
}

}  // namespace genalg::algebra
