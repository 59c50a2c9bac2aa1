#include "udb/database.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>
#include <set>

#include "base/strings.h"
#include "index/kmer_index.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "udb/sql_parser.h"

namespace genalg::udb {

namespace {

// Extracts the nucleotide sequence behind a nucseq UDT datum.
Result<seq::NucleotideSequence> DatumToSequence(const Adapter& adapter,
                                                const Datum& datum) {
  GENALG_ASSIGN_OR_RETURN(algebra::Value value, adapter.ToValue(datum));
  return value.AsNucSeq();
}

// The sequence a k-mer index posts a nucseq cell under. A NULL cell maps
// to the empty sequence, which posts nothing.
Result<seq::NucleotideSequence> IndexedSequence(const Adapter& adapter,
                                                const Datum& cell) {
  if (cell.is_null()) return seq::NucleotideSequence();
  return DatumToSequence(adapter, cell);
}

// A row's k-mer index document: its RecordId packed so that document
// order is RecordId order.
uint64_t KmerDoc(RecordId rid) {
  return uint64_t{rid.page} << 16 | rid.slot;
}

RecordId KmerDocRow(uint64_t doc) {
  return RecordId{static_cast<PageId>(doc >> 16),
                  static_cast<uint16_t>(doc & 0xFFFF)};
}

bool IsAggregateName(std::string_view name) {
  return name == "count" || name == "sum" || name == "avg" ||
         name == "min" || name == "max";
}

bool ContainsAggregate(const Expr& e) {
  if (e.kind == Expr::Kind::kCall && IsAggregateName(e.func)) return true;
  for (const ExprPtr& arg : e.args) {
    if (ContainsAggregate(*arg)) return true;
  }
  return false;
}

// True iff the expression reads a column (else it is constant within a
// statement).
bool ReadsColumn(const Expr& e) {
  if (e.kind == Expr::Kind::kColumn) return true;
  for (const ExprPtr& arg : e.args) {
    if (ReadsColumn(*arg)) return true;
  }
  return false;
}

void SplitConjuncts(const Expr* e, std::vector<const Expr*>* out) {
  if (e == nullptr) return;
  if (e->kind == Expr::Kind::kBinary && e->op == "AND") {
    SplitConjuncts(e->args[0].get(), out);
    SplitConjuncts(e->args[1].get(), out);
    return;
  }
  out->push_back(e);
}

// The Int->Real widening a REAL column applies to the values stored in
// it (and so to the constants its B+-tree is probed with).
Datum WidenForColumn(const ColumnType& type, Datum value) {
  if (type.kind == DatumKind::kReal && value.kind() == DatumKind::kInt) {
    return Datum::Real(static_cast<double>(*value.AsInt()));
  }
  return value;
}

// Widens each cell of a row about to be stored and checks it against its
// column's type. Every write path (INSERT, UPDATE) goes through here, so
// stored values and B+-tree keys always carry the column's kind.
Status ConformRow(const TableSchema& schema, Row* row) {
  for (size_t i = 0; i < row->size(); ++i) {
    const ColumnInfo& col = schema.columns[i];
    (*row)[i] = WidenForColumn(col.type, std::move((*row)[i]));
    if (!col.type.Accepts((*row)[i])) {
      return Status::InvalidArgument("column '" + col.name + "' of type " +
                                     col.type.ToString() +
                                     " rejects value " + (*row)[i].ToString());
    }
  }
  return Status::OK();
}

// Hands `visit`, a Status(RecordId, Row) callable, every live row of
// `heap`; stops at the first error.
template <typename Visit>
Status ForEachRow(const HeapFile& heap, Visit&& visit) {
  return heap.Scan(
      [&visit](RecordId rid, const uint8_t* data, size_t size) -> Status {
        BytesReader r(data, size);
        GENALG_ASSIGN_OR_RETURN(Row row, DeserializeRow(&r));
        return visit(rid, std::move(row));
      });
}

// SQL LIKE: '%' matches any run, '_' any single character.
bool LikeMatch(std::string_view text, std::string_view pattern) {
  if (pattern.empty()) return text.empty();
  if (pattern[0] == '%') {
    for (size_t skip = 0; skip <= text.size(); ++skip) {
      if (LikeMatch(text.substr(skip), pattern.substr(1))) return true;
    }
    return false;
  }
  if (text.empty()) return false;
  if (pattern[0] != '_' && pattern[0] != text[0]) return false;
  return LikeMatch(text.substr(1), pattern.substr(1));
}

// Exact int64 arithmetic for SQL's + - * /: a result outside int64
// (INT64_MIN / -1 included) is an error, never a wrapped value or a trap.
Result<Datum> IntArithmetic(const std::string& op, int64_t a, int64_t b) {
  if (op == "/" && b == 0) return Status::InvalidArgument("division by zero");
  int64_t v = 0;
  bool overflow = op == "+"   ? __builtin_add_overflow(a, b, &v)
                  : op == "-" ? __builtin_sub_overflow(a, b, &v)
                  : op == "*" ? __builtin_mul_overflow(a, b, &v)
                              : a == INT64_MIN && b == -1;
  if (overflow) return Status::InvalidArgument("integer overflow");
  return Datum::Int(op == "/" ? a / b : v);
}

// The aggregate calls in `e`, outside any aggregate's argument.
Status CollectAggregates(const Expr& e, std::vector<const Expr*>* calls) {
  if (e.kind == Expr::Kind::kCall && IsAggregateName(e.func)) {
    if (e.args.size() != 1) {
      return Status::InvalidArgument("aggregate '" + e.func +
                                     "' takes one argument");
    }
    calls->push_back(&e);
    return Status::OK();
  }
  for (const ExprPtr& arg : e.args) {
    GENALG_RETURN_IF_ERROR(CollectAggregates(*arg, calls));
  }
  return Status::OK();
}

// One aggregate call's running state over a group.
struct Accumulator {
  int64_t count = 0;     // Non-NULL values; rows, for count(*).
  __int128 int_sum = 0;  // Exact; sum's result while every value is INT.
  double real_sum = 0;
  bool all_int = true;
  Datum best;  // min / max; stays NULL for sum and avg.

  Status Add(const std::string& func, Datum d) {
    if (d.is_null()) return Status::OK();
    ++count;
    if (func == "sum" || func == "avg") {
      GENALG_ASSIGN_OR_RETURN(double v, d.AsNumber());
      real_sum += v;
      all_int = all_int && d.kind() == DatumKind::kInt;
      if (all_int) int_sum += *d.AsInt();
    } else if (func == "min" || func == "max") {
      if (best.is_null()) {
        best = std::move(d);
        return Status::OK();
      }
      GENALG_ASSIGN_OR_RETURN(int c, d.Compare(best));
      if (func == "min" ? c < 0 : c > 0) best = std::move(d);
    }
    return Status::OK();
  }

  Result<Datum> Finish(const std::string& func) const {
    if (func == "count") return Datum::Int(count);
    if ((func != "sum" && func != "avg") || count == 0) return best;
    if (func == "avg") return Datum::Real(real_sum / count);
    if (!all_int) return Datum::Real(real_sum);
    if (int_sum < INT64_MIN || int_sum > INT64_MAX) {
      return Status::InvalidArgument("integer overflow");
    }
    return Datum::Int(static_cast<int64_t>(int_sum));
  }
};

// An aggregate query's group: its first row, which non-aggregate
// expressions read (empty for the global group of an empty input), and
// one accumulator per aggregate call.
struct Group {
  Row first;
  std::vector<Accumulator> accs;
};

// Appends a datum to a composite GROUP BY or DISTINCT key.
void AppendKey(const Datum& d, std::string* key) {
  *key += d.OrderKey();
  key->push_back('\x1F');
}

// Relative evaluation cost of a predicate (Sec. 6.5 cost estimation):
// 0 = native comparisons only; 1 = cheap genomic accessors; 2 = pattern
// scans; 3 = alignment-grade operators. The optimizer evaluates cheap
// conjuncts first so expensive ones run on fewer rows.
int ExprCostRank(const Expr& e) {
  int rank = 0;
  if (e.kind == Expr::Kind::kCall) {
    if (e.func == "resembles" || e.func == "align_score" ||
        e.func == "orf_count" || e.func == "digest_count") {
      rank = 3;
    } else if (e.func == "contains" || e.func == "count_motif") {
      rank = 2;
    } else {
      rank = 1;
    }
  }
  for (const ExprPtr& arg : e.args) {
    rank = std::max(rank, ExprCostRank(*arg));
  }
  return rank;
}

}  // namespace

Result<size_t> TableSchema::ColumnIndex(std::string_view column) const {
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i].name == column) return i;
  }
  return Status::NotFound("table '" + name + "' has no column '" +
                          std::string(column) + "'");
}

Database::Database(const Adapter* adapter,
                   std::unique_ptr<DiskManager> disk, size_t pool_pages)
    : adapter_(adapter),
      disk_(disk ? std::move(disk) : std::make_unique<MemoryDiskManager>()),
      pool_(std::make_unique<BufferPool>(disk_.get(), pool_pages)) {}

Result<Database::TableData*> Database::GetTable(std::string_view name) {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("no table named '" + std::string(name) + "'");
  }
  return it->second.get();
}

Result<const Database::TableData*> Database::GetTable(
    std::string_view name) const {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("no table named '" + std::string(name) + "'");
  }
  return it->second.get();
}

Result<Database::TableData*> Database::GetWritableTable(std::string_view name,
                                                       bool privileged) {
  GENALG_ASSIGN_OR_RETURN(TableData * table, GetTable(name));
  if (table->schema.space == Space::kPublic && !privileged) {
    return Status::FailedPrecondition(
        "table '" + std::string(name) +
        "' is in the public space and read-only for this session");
  }
  return table;
}

Status Database::CreateTable(const std::string& name,
                             std::vector<ColumnInfo> columns, Space space,
                             bool privileged) {
  GENALG_ASSIGN_OR_RETURN(bool implicit, MaybeBeginImplicit());
  return EndImplicit(implicit,
                     CreateTableImpl(name, std::move(columns), space,
                                     privileged));
}

Status Database::CreateTableImpl(const std::string& name,
                                 std::vector<ColumnInfo> columns, Space space,
                                 bool privileged) {
  if (space == Space::kPublic && !privileged) {
    return Status::FailedPrecondition(
        "only the warehouse maintenance path may create public tables");
  }
  if (tables_.count(name) != 0) {
    return Status::AlreadyExists("table '" + name + "' already exists");
  }
  if (columns.empty()) {
    return Status::InvalidArgument("table needs at least one column");
  }
  std::set<std::string> seen;
  for (const ColumnInfo& col : columns) {
    if (!seen.insert(col.name).second) {
      return Status::InvalidArgument("duplicate column '" + col.name + "'");
    }
    if (col.type.kind == DatumKind::kUdt &&
        !adapter_->HasUdt(col.type.udt_name)) {
      return Status::NotFound("no UDT registered under '" +
                              col.type.udt_name + "'");
    }
  }
  auto data = std::make_unique<TableData>();
  data->schema.name = name;
  data->schema.columns = std::move(columns);
  data->schema.space = space;
  GENALG_ASSIGN_OR_RETURN(HeapFile heap, HeapFile::Create(pool_.get()));
  data->heap = std::make_unique<HeapFile>(std::move(heap));
  tables_.emplace(name, std::move(data));
  return Status::OK();
}

Status Database::DropTable(const std::string& name, bool privileged) {
  GENALG_ASSIGN_OR_RETURN(bool implicit, MaybeBeginImplicit());
  Status dropped = [&]() -> Status {
    GENALG_RETURN_IF_ERROR(GetWritableTable(name, privileged).status());
    tables_.erase(name);
    return Status::OK();
  }();
  return EndImplicit(implicit, dropped);
}

Result<const TableSchema*> Database::GetSchema(std::string_view table) const {
  GENALG_ASSIGN_OR_RETURN(const TableData* data, GetTable(table));
  return &data->schema;
}

std::vector<std::string> Database::ListTables() const {
  std::vector<std::string> out;
  for (const auto& [name, data] : tables_) out.push_back(name);
  return out;
}

Status Database::StoreRow(TableData* table, const Row& row) {
  BytesWriter w;
  SerializeRow(row, &w);
  GENALG_ASSIGN_OR_RETURN(RecordId rid, table->heap->Insert(w.data()));
  for (auto& btree : table->btrees) {
    btree->tree.Insert(row[btree->column_index].OrderKey(), rid);
  }
  for (auto& kmer : table->kmers) {
    GENALG_ASSIGN_OR_RETURN(
        seq::NucleotideSequence sequence,
        IndexedSequence(*adapter_, row[kmer->column_index]));
    kmer->index.Add(KmerDoc(rid), sequence);
  }
  return Status::OK();
}

Status Database::EraseRow(TableData* table, const Row& row,
                          RecordId rid) {
  GENALG_RETURN_IF_ERROR(table->heap->Delete(rid));
  for (auto& btree : table->btrees) {
    btree->tree.Remove(row[btree->column_index].OrderKey(), rid);
  }
  for (auto& kmer : table->kmers) {
    GENALG_ASSIGN_OR_RETURN(
        seq::NucleotideSequence sequence,
        IndexedSequence(*adapter_, row[kmer->column_index]));
    kmer->index.Remove(KmerDoc(rid), sequence);
  }
  return Status::OK();
}

Status Database::InsertRow(const std::string& table_name, Row row,
                           bool privileged) {
  GENALG_ASSIGN_OR_RETURN(bool implicit, MaybeBeginImplicit());
  return EndImplicit(implicit,
                     InsertRowImpl(table_name, std::move(row), privileged));
}

Status Database::InsertRowImpl(const std::string& table_name, Row row,
                               bool privileged) {
  GENALG_ASSIGN_OR_RETURN(TableData * table,
                          GetWritableTable(table_name, privileged));
  if (row.size() != table->schema.columns.size()) {
    return Status::InvalidArgument(
        "row has " + std::to_string(row.size()) + " cells, table '" +
        table_name + "' has " +
        std::to_string(table->schema.columns.size()) + " columns");
  }
  GENALG_RETURN_IF_ERROR(ConformRow(table->schema, &row));
  return StoreRow(table, row);
}

Result<std::vector<Row>> Database::ScanTable(
    const std::string& table_name) const {
  GENALG_ASSIGN_OR_RETURN(const TableData* table, GetTable(table_name));
  std::vector<Row> rows;
  GENALG_RETURN_IF_ERROR(
      ForEachRow(*table->heap, [&rows](RecordId, Row row) -> Status {
        rows.push_back(std::move(row));
        return Status::OK();
      }));
  return rows;
}

Status Database::CreateBTreeIndex(const std::string& table_name,
                                  const std::string& column) {
  GENALG_ASSIGN_OR_RETURN(bool implicit, MaybeBeginImplicit());
  return EndImplicit(implicit, CreateBTreeIndexImpl(table_name, column));
}

Status Database::CreateBTreeIndexImpl(const std::string& table_name,
                                      const std::string& column) {
  GENALG_ASSIGN_OR_RETURN(TableData * table, GetTable(table_name));
  for (const auto& existing : table->btrees) {
    if (existing->column == column) {
      return Status::AlreadyExists("btree index on '" + column +
                                   "' already exists");
    }
  }
  GENALG_ASSIGN_OR_RETURN(size_t col_idx,
                          table->schema.ColumnIndex(column));
  auto idx = std::make_unique<BTreeIndexData>();
  idx->column = column;
  idx->column_index = col_idx;
  // Backfill from existing rows.
  GENALG_RETURN_IF_ERROR(ForEachRow(
      *table->heap, [&idx, col_idx](RecordId rid, Row row) -> Status {
        idx->tree.Insert(row[col_idx].OrderKey(), rid);
        return Status::OK();
      }));
  table->btrees.push_back(std::move(idx));
  return Status::OK();
}

Status Database::CreateKmerIndex(const std::string& table_name,
                                 const std::string& column, size_t k) {
  GENALG_ASSIGN_OR_RETURN(bool implicit, MaybeBeginImplicit());
  return EndImplicit(implicit, CreateKmerIndexImpl(table_name, column, k));
}

Status Database::CreateKmerIndexImpl(const std::string& table_name,
                                     const std::string& column, size_t k) {
  GENALG_ASSIGN_OR_RETURN(TableData * table, GetTable(table_name));
  for (const auto& existing : table->kmers) {
    if (existing->column == column) {
      return Status::AlreadyExists("kmer index on '" + column +
                                   "' already exists");
    }
  }
  GENALG_ASSIGN_OR_RETURN(size_t col_idx,
                          table->schema.ColumnIndex(column));
  const ColumnInfo& col = table->schema.columns[col_idx];
  if (col.type.kind != DatumKind::kUdt || col.type.udt_name != "nucseq") {
    return Status::InvalidArgument(
        "kmer indexes require a nucseq column, '" + column + "' is " +
        col.type.ToString());
  }
  // Backfill from existing rows with one bulk build.
  std::vector<uint64_t> docs;
  std::vector<seq::NucleotideSequence> sequences;
  GENALG_RETURN_IF_ERROR(ForEachRow(
      *table->heap, [&](RecordId rid, Row row) -> Status {
        GENALG_ASSIGN_OR_RETURN(seq::NucleotideSequence sequence,
                                IndexedSequence(*adapter_, row[col_idx]));
        docs.push_back(KmerDoc(rid));
        sequences.push_back(std::move(sequence));
        return Status::OK();
      }));
  GENALG_ASSIGN_OR_RETURN(index::KmerIndex built,
                          index::KmerIndex::Build(docs, sequences, k));
  auto idx = std::make_unique<KmerIndexData>(
      KmerIndexData{column, col_idx, std::move(built)});
  table->kmers.push_back(std::move(idx));
  return Status::OK();
}

// ================================================================ Executor.

class Database::Executor {
 public:
  Executor(Database* db, bool privileged)
      : db_(db), privileged_(privileged) {}

  Result<QueryResult> Run(const Statement& stmt) {
    return std::visit(
        [this](const auto& s) -> Result<QueryResult> { return Exec(s); },
        stmt);
  }

  /// Renders the access plan a SELECT would use (Sec. 6.5).
  Result<std::string> ExplainSelect(const SelectStmt& stmt) {
    std::string out;
    if (stmt.tables.size() != 1) {
      out += "nested-loop join over " +
             std::to_string(stmt.tables.size()) + " tables (build order: ";
      for (size_t i = 0; i < stmt.tables.size(); ++i) {
        if (i > 0) out += ", ";
        out += stmt.tables[i].name;
      }
      out += ")\n";
    }
    GENALG_ASSIGN_OR_RETURN(TableData * table,
                            db_->GetTable(stmt.tables[0].name));
    out += "access: " + PlanSelectScan(stmt, table).Describe() + "\n";
    for (const Expr* conjunct : OrderedConjuncts(stmt.where.get())) {
      char line[64];
      std::snprintf(line, sizeof(line), "  filter [cost %d, sel ~%.3f] ",
                    ExprCostRank(*conjunct),
                    EstimateSelectivity(*conjunct));
      out += line;
      out += conjunct->ToString() + "\n";
    }
    return out;
  }

  /// Heuristic conjunct selectivity (Sec. 6.5 "information about the
  /// selectivity of genomic predicates"). Assumes ~1 kb sequences and a
  /// uniform base model for pattern predicates.
  double EstimateSelectivity(const Expr& e) {
    if (e.kind == Expr::Kind::kBinary) {
      if (e.op == "=") return 0.05;
      if (e.op == "!=") return 0.95;
      return 0.3;  // Ranges.
    }
    if (e.kind == Expr::Kind::kCall && e.func == "contains" &&
        e.args.size() == 2) {
      auto pattern_datum = EvalConst(*e.args[1]);
      if (pattern_datum.ok()) {
        auto pattern = DatumToSequence(*db_->adapter_, *pattern_datum);
        if (pattern.ok() && pattern->size() > 0) {
          double expected =
              1000.0 * std::pow(0.25, static_cast<double>(
                                          std::min<size_t>(pattern->size(),
                                                           24)));
          return std::min(1.0, expected);
        }
      }
      return 0.1;
    }
    if (e.kind == Expr::Kind::kCall && e.func == "resembles") return 0.05;
    return 0.5;
  }

 private:
  // A bound FROM clause: per-table alias, schema, and column offset into
  // the combined row.
  struct Binding {
    std::string alias;
    const TableSchema* schema;
    size_t offset;
  };
  struct Env {
    std::vector<Binding> bindings;

    Result<size_t> Resolve(const std::string& table,
                           const std::string& column) const {
      size_t found = SIZE_MAX;
      for (const Binding& b : bindings) {
        if (!table.empty() && b.alias != table) continue;
        auto idx = b.schema->ColumnIndex(column);
        if (!idx.ok()) continue;
        if (found != SIZE_MAX) {
          return Status::InvalidArgument("ambiguous column '" + column +
                                         "'");
        }
        found = b.offset + *idx;
      }
      if (found == SIZE_MAX) {
        return Status::NotFound(
            "unknown column '" +
            (table.empty() ? column : table + "." + column) + "'");
      }
      return found;
    }
  };

  // ----------------------------------------------------------- Eval.

  Result<Datum> Eval(const Expr& e, const Row& row, const Env& env) {
    switch (e.kind) {
      case Expr::Kind::kLiteral:
        return e.literal;
      case Expr::Kind::kStar:
        return Status::InvalidArgument("'*' is only valid in COUNT(*)");
      case Expr::Kind::kColumn: {
        GENALG_ASSIGN_OR_RETURN(size_t idx, env.Resolve(e.table, e.column));
        return row[idx];
      }
      case Expr::Kind::kUnary: {
        if (e.op == "NOT") {
          GENALG_ASSIGN_OR_RETURN(bool v, EvalBool(*e.args[0], row, env));
          return Datum::Bool(!v);
        }
        GENALG_ASSIGN_OR_RETURN(Datum inner, Eval(*e.args[0], row, env));
        if (inner.is_null()) return Datum::Null();
        if (inner.kind() == DatumKind::kInt) {
          return IntArithmetic("-", 0, *inner.AsInt());
        }
        GENALG_ASSIGN_OR_RETURN(double v, inner.AsNumber());
        return Datum::Real(-v);
      }
      case Expr::Kind::kBinary:
        return EvalBinary(e, row, env);
      case Expr::Kind::kCall: {
        if (IsAggregateName(e.func)) {
          return Status::InvalidArgument(
              "aggregate '" + e.func +
              "' is not allowed in this context");
        }
        // Algebra operations are strict: a NULL argument yields NULL, so
        // a scan and an index path (which never posts a NULL cell) agree.
        std::vector<Datum> args;
        args.reserve(e.args.size());
        for (const ExprPtr& arg : e.args) {
          GENALG_ASSIGN_OR_RETURN(Datum d, Eval(*arg, row, env));
          if (d.is_null()) return Datum::Null();
          args.push_back(std::move(d));
        }
        return db_->adapter_->Invoke(e.func, args);
      }
    }
    return Status::InvalidArgument("unevaluable expression");
  }

  // Boolean context: NULL reads as false (SQL's WHERE semantics).
  Result<bool> EvalBool(const Expr& e, const Row& row, const Env& env) {
    GENALG_ASSIGN_OR_RETURN(Datum d, Eval(e, row, env));
    if (d.is_null()) return false;
    return d.AsBool();
  }

  Result<Datum> EvalBinary(const Expr& e, const Row& row, const Env& env) {
    const std::string& op = e.op;
    if (op == "AND") {
      GENALG_ASSIGN_OR_RETURN(bool a, EvalBool(*e.args[0], row, env));
      if (!a) return Datum::Bool(false);
      GENALG_ASSIGN_OR_RETURN(bool b, EvalBool(*e.args[1], row, env));
      return Datum::Bool(b);
    }
    if (op == "OR") {
      GENALG_ASSIGN_OR_RETURN(bool a, EvalBool(*e.args[0], row, env));
      if (a) return Datum::Bool(true);
      GENALG_ASSIGN_OR_RETURN(bool b, EvalBool(*e.args[1], row, env));
      return Datum::Bool(b);
    }
    GENALG_ASSIGN_OR_RETURN(Datum left, Eval(*e.args[0], row, env));
    GENALG_ASSIGN_OR_RETURN(Datum right, Eval(*e.args[1], row, env));
    if (op == "LIKE") {
      if (left.is_null() || right.is_null()) return Datum::Bool(false);
      GENALG_ASSIGN_OR_RETURN(std::string text, left.AsString());
      GENALG_ASSIGN_OR_RETURN(std::string pattern, right.AsString());
      return Datum::Bool(LikeMatch(text, pattern));
    }
    if (op == "=" || op == "!=" || op == "<" || op == "<=" || op == ">" ||
        op == ">=") {
      if (left.is_null() || right.is_null()) return Datum::Bool(false);
      GENALG_ASSIGN_OR_RETURN(int c, left.Compare(right));
      bool v = (op == "=" && c == 0) || (op == "!=" && c != 0) ||
               (op == "<" && c < 0) || (op == "<=" && c <= 0) ||
               (op == ">" && c > 0) || (op == ">=" && c >= 0);
      return Datum::Bool(v);
    }
    // Arithmetic: NULL in, NULL out. String '+' concatenates.
    if (left.is_null() || right.is_null()) return Datum::Null();
    if (op == "+" && left.kind() == DatumKind::kString &&
        right.kind() == DatumKind::kString) {
      return Datum::String(*left.AsString() + *right.AsString());
    }
    if (left.kind() == DatumKind::kInt && right.kind() == DatumKind::kInt) {
      return IntArithmetic(op, *left.AsInt(), *right.AsInt());
    }
    GENALG_ASSIGN_OR_RETURN(double a, left.AsNumber());
    GENALG_ASSIGN_OR_RETURN(double b, right.AsNumber());
    if (op == "+") return Datum::Real(a + b);
    if (op == "-") return Datum::Real(a - b);
    if (op == "*") return Datum::Real(a * b);
    if (op == "/") {
      if (b == 0) return Status::InvalidArgument("division by zero");
      return Datum::Real(a / b);
    }
    return Status::InvalidArgument("unknown operator '" + op + "'");
  }

  // Constant folding (for INSERT values and index probes).
  Result<Datum> EvalConst(const Expr& e) {
    Env empty_env;
    Row empty_row;
    return Eval(e, empty_row, empty_env);
  }

  // ------------------------------------------------------- Aggregates.

  // Evaluates an output expression over a group: aggregate calls read
  // their accumulators, the rest reads the group's first row.
  Result<Datum> EvalGroup(const Expr& e, const Group& group,
                          const std::vector<const Expr*>& calls,
                          const Env& env) {
    if (e.kind == Expr::Kind::kCall && IsAggregateName(e.func)) {
      size_t i = std::find(calls.begin(), calls.end(), &e) - calls.begin();
      return group.accs[i].Finish(e.func);
    }
    if (!ContainsAggregate(e)) {
      if (group.first.empty()) return Datum::Null();
      return Eval(e, group.first, env);
    }
    // Mixed expression (e.g. count(*) + 1): rebuild by evaluating children.
    Expr shallow;
    shallow.kind = e.kind;
    shallow.op = e.op;
    shallow.func = e.func;
    for (const ExprPtr& arg : e.args) {
      auto lit = std::make_unique<Expr>();
      lit->kind = Expr::Kind::kLiteral;
      GENALG_ASSIGN_OR_RETURN(lit->literal,
                              EvalGroup(*arg, group, calls, env));
      shallow.args.push_back(std::move(lit));
    }
    return EvalConst(shallow);
  }

  // --------------------------------------------------------- SELECT.

  // One push pipeline: the outer table's access path (joined with the
  // inner tables) -> the filter -> one sink of {projected, order keys}
  // records, then one sort, DISTINCT and LIMIT. An aggregate sink keeps
  // per group only its first row and one accumulator per aggregate call.
  // On plain rows LIMIT acts inside the stream: with no ORDER BY the scan
  // stops at n records; with one, the records are cut back to the best n
  // whenever they pass 2n + one block.
  Result<QueryResult> Exec(const SelectStmt& stmt) {
    std::vector<TableData*> tables;
    Env env;
    {
      obs::Span bind_span("bind");
      size_t offset = 0;
      std::set<std::string> aliases;
      for (const TableRef& ref : stmt.tables) {
        GENALG_ASSIGN_OR_RETURN(TableData * table, db_->GetTable(ref.name));
        if (!aliases.insert(ref.alias).second) {
          return Status::InvalidArgument("duplicate table alias '" +
                                         ref.alias + "'");
        }
        tables.push_back(table);
        env.bindings.push_back(Binding{ref.alias, &table->schema, offset});
        offset += table->schema.columns.size();
      }
      bind_span.SetAttr("tables", static_cast<uint64_t>(tables.size()));
      timed_ = bind_span.enabled();
    }
    if (tables.empty()) {
      return Status::InvalidArgument("SELECT needs a FROM clause");
    }
    if (timed_) lap_ = std::chrono::steady_clock::now();

    // Output expressions; SELECT * outputs the joined row as it is.
    std::vector<const Expr*> out_exprs;
    std::vector<std::string> out_names;
    for (const Binding& b : env.bindings) {
      for (const ColumnInfo& col : b.schema->columns) {
        if (!stmt.select_star) break;
        out_names.push_back(env.bindings.size() > 1 ? b.alias + "." + col.name
                                                    : col.name);
      }
    }
    for (const SelectItem& item : stmt.items) {
      out_exprs.push_back(item.expr.get());
      out_names.push_back(item.alias.empty() ? item.expr->ToString()
                                             : item.alias);
    }

    bool aggregated = !stmt.group_by.empty();
    for (const Expr* e : out_exprs) {
      if (ContainsAggregate(*e)) aggregated = true;
    }

    // ORDER BY may name a select-list alias; substitute the aliased
    // expression so "ORDER BY n" works for "count(*) AS n".
    OrderBy order_by;
    for (const auto& [order_expr, asc] : stmt.order_by) {
      const Expr* resolved = order_expr.get();
      for (const SelectItem& item : stmt.items) {
        if (order_expr->kind == Expr::Kind::kColumn &&
            order_expr->table.empty() && item.alias == order_expr->column) {
          resolved = item.expr.get();
          break;
        }
      }
      order_by.emplace_back(resolved, asc);
    }

    // A record from `row` (joined, or a group's first) and `value`, the
    // evaluator of one expression over the row or the group.
    auto make_record = [&](const Row& row, auto&& value) -> Result<Record> {
      Record record;
      if (stmt.select_star) record.projected = row;
      for (const Expr* e : out_exprs) {
        GENALG_ASSIGN_OR_RETURN(Datum d, value(*e));
        record.projected.push_back(std::move(d));
      }
      for (const auto& [e, asc] : order_by) {
        GENALG_ASSIGN_OR_RETURN(Datum d, value(*e));
        record.order_keys.push_back(std::move(d));
      }
      return record;
    };
    std::vector<const Expr*> calls;
    for (const Expr* e : out_exprs) {
      if (aggregated) GENALG_RETURN_IF_ERROR(CollectAggregates(*e, &calls));
    }
    for (const auto& [e, asc] : order_by) {
      if (aggregated) GENALG_RETURN_IF_ERROR(CollectAggregates(*e, &calls));
    }

    // The sink: a plain row becomes a record; an aggregated row folds
    // into its group.
    std::vector<Record> records;
    std::map<std::string, Group> groups;  // By GROUP BY key.
    const size_t limit =
        stmt.limit >= 0 ? static_cast<size_t>(stmt.limit) : SIZE_MAX;
    const bool streamed_limit =
        stmt.limit >= 0 && !aggregated && !stmt.distinct;
    const bool stops = streamed_limit && order_by.empty();
    auto sink = [&](Block& block) -> Result<bool> {
      for (const Row& row : block.rows) {
        if (stops && records.size() == limit) break;
        if (!aggregated) {
          GENALG_ASSIGN_OR_RETURN(
              Record record,
              make_record(row,
                          [&](const Expr& e) { return Eval(e, row, env); }));
          records.push_back(std::move(record));
          if (streamed_limit && records.size() / 2 > limit + kBlockRows / 2) {
            GENALG_RETURN_IF_ERROR(SortRecords(order_by, &records));
            records.resize(limit);
          }
          continue;
        }
        std::string key;
        for (const ExprPtr& g : stmt.group_by) {
          GENALG_ASSIGN_OR_RETURN(Datum d, Eval(*g, row, env));
          AppendKey(d, &key);
        }
        auto [it, opened] = groups.try_emplace(std::move(key));
        Group& group = it->second;
        if (opened) {
          group.first = row;
          group.accs.resize(calls.size());
        }
        for (size_t i = 0; i < calls.size(); ++i) {
          const Expr& call = *calls[i];
          GENALG_ASSIGN_OR_RETURN(
              Datum d, call.func == "count" &&
                               call.args[0]->kind == Expr::Kind::kStar
                           ? Datum::Bool(true)  // count(*) counts rows.
                           : Eval(*call.args[0], row, env));
          GENALG_RETURN_IF_ERROR(group.accs[i].Add(call.func, std::move(d)));
        }
      }
      return !(stops && records.size() == limit);
    };

    // The inner tables of a join are read once; the outer one streams.
    std::vector<std::vector<Row>> inner(tables.size() - 1);
    for (size_t i = 1; i < tables.size(); ++i) {
      GENALG_RETURN_IF_ERROR(ForEachCandidate(
          PlanSelectScan(stmt, tables[i]), [&](RecordId, Row row) -> Status {
            inner[i - 1].push_back(std::move(row));
            return Status::OK();
          }));
    }
    AccessPath path = PlanSelectScan(stmt, tables[0]);
    std::vector<const Expr*> conjuncts = OrderedConjuncts(stmt.where.get());
    GENALG_RETURN_IF_ERROR(Stream(path, inner, conjuncts, env, sink));

    // The stages interleaved block by block, so their spans open now and
    // report busy time summed over the blocks.
    {
      obs::Span scan_span("scan");
      scan_span.AddTime(busy_ns_[kScan]);
      scan_span.SetAttr("table", stmt.tables[0].name);
      if (scan_span.enabled()) scan_span.SetAttr("access", path.Describe());
      scan_span.SetAttr("rows", stage_rows_[kScan]);
    }
    {
      obs::Span filter_span("filter");
      filter_span.AddTime(busy_ns_[kFilter]);
      filter_span.SetAttr("conjuncts",
                          static_cast<uint64_t>(conjuncts.size()));
      filter_span.SetAttr("rows_in", stage_rows_[kFilter]);
      filter_span.SetAttr("rows", stage_rows_[kSink]);
    }
    {
      obs::Span sink_span(aggregated ? "aggregate" : "project");
      sink_span.AddTime(busy_ns_[kSink]);
      if (groups.empty() && aggregated && stmt.group_by.empty()) {
        groups[""].accs.resize(calls.size());  // The global group.
      }
      for (const auto& [key, group] : groups) {
        GENALG_ASSIGN_OR_RETURN(
            Record record, make_record(group.first, [&](const Expr& e) {
              return EvalGroup(e, group, calls, env);
            }));
        records.push_back(std::move(record));
      }
      sink_span.SetAttr(aggregated ? "groups" : "rows",
                        static_cast<uint64_t>(records.size()));
    }

    if (!order_by.empty()) {
      obs::Span sort_span("sort");
      sort_span.SetAttr("rows", static_cast<uint64_t>(records.size()));
      GENALG_RETURN_IF_ERROR(SortRecords(order_by, &records));
    }
    QueryResult result;
    result.columns = std::move(out_names);
    for (Record& record : records) {
      result.rows.push_back(std::move(record.projected));
    }
    if (stmt.distinct) {
      obs::Span distinct_span("distinct");
      std::set<std::string> seen;
      std::vector<Row> unique_rows;
      for (Row& row : result.rows) {
        std::string key;
        for (const Datum& d : row) AppendKey(d, &key);
        if (seen.insert(std::move(key)).second) {
          unique_rows.push_back(std::move(row));
        }
      }
      result.rows = std::move(unique_rows);
      distinct_span.SetAttr("rows",
                            static_cast<uint64_t>(result.rows.size()));
    }
    if (stmt.limit >= 0) {
      obs::Span limit_span("limit");
      if (result.rows.size() > limit) result.rows.resize(limit);
      limit_span.SetAttr("rows", static_cast<uint64_t>(result.rows.size()));
    }
    return result;
  }

  // --------------------------------------------------- Access paths.

  // The one access-path decision for a table's WHERE (Sec. 6.5). SELECT's
  // scan step, DELETE/UPDATE, EXPLAIN and PROFILE all read it, so what
  // EXPLAIN prints is what runs.
  struct AccessPath {
    enum class Kind { kScan, kBTreeProbe, kBTreeRange, kKmerPrefilter };
    Kind kind = Kind::kScan;
    TableData* table = nullptr;
    const BTreeIndexData* btree = nullptr;
    const KmerIndexData* kmer = nullptr;
    std::string key;                  // B+-tree probe key or range start.
    seq::NucleotideSequence pattern;  // k-mer prefilter pattern.

    std::string Describe() const {
      const std::string on = " on " + table->schema.name + "(";
      switch (kind) {
        case Kind::kScan:
          break;
        case Kind::kBTreeProbe:
          return "btree equality probe" + on + btree->column + ")";
        case Kind::kBTreeRange:
          return "btree range scan" + on + btree->column + ")";
        case Kind::kKmerPrefilter:
          return "kmer prefilter (k=" + std::to_string(kmer->index.k()) +
                 ")" + on + kmer->column + ") + verification";
      }
      return "sequential scan of " + table->schema.name;
    }
  };

  // Picks the first WHERE conjunct (in written order) that an index can
  // answer, else a scan. Every consumer re-checks the full WHERE, so an
  // index only has to return a superset of the matching rows. A
  // comparison qualifies as `column op constant` with op one of =, >=, >
  // (a constant on the left mirrors the operator) and a constant of the
  // column's kind after WidenForColumn, as stored values are: B+-tree
  // keys order by kind first, so any other constant would miss rows that
  // Datum::Compare matches.
  AccessPath PlanAccess(TableData* table, const Expr* where) {
    AccessPath path;
    path.table = table;
    std::vector<const Expr*> conjuncts;
    SplitConjuncts(where, &conjuncts);
    for (const Expr* conjunct : conjuncts) {
      if (conjunct->kind == Expr::Kind::kBinary) {
        const Expr* col = conjunct->args[0].get();
        const Expr* value = conjunct->args[1].get();
        std::string op = conjunct->op;
        if (col->kind != Expr::Kind::kColumn) {
          std::swap(col, value);
          // Mirror: `5 < id` is `id > 5`, `5 >= id` is `id <= 5`.
          if (op[0] == '<' || op[0] == '>') op[0] = op[0] == '<' ? '>' : '<';
        }
        if (col->kind != Expr::Kind::kColumn ||
            (op != "=" && op != ">=" && op != ">")) {
          continue;
        }
        auto col_idx = table->schema.ColumnIndex(col->column);
        auto constant = EvalConst(*value);
        if (!col_idx.ok() || !constant.ok()) continue;
        const ColumnType& type = table->schema.columns[*col_idx].type;
        Datum key = WidenForColumn(type, std::move(*constant));
        if (key.kind() != type.kind) continue;
        for (const auto& btree : table->btrees) {
          if (btree->column_index != *col_idx) continue;
          path.kind = op == "=" ? AccessPath::Kind::kBTreeProbe
                                : AccessPath::Kind::kBTreeRange;
          path.btree = btree.get();
          path.key = key.OrderKey();
          return path;
        }
      }
      // contains(col, const_pattern) with a k-mer index.
      if (conjunct->kind == Expr::Kind::kCall &&
          conjunct->func == "contains" && conjunct->args.size() == 2 &&
          conjunct->args[0]->kind == Expr::Kind::kColumn) {
        auto col_idx = table->schema.ColumnIndex(conjunct->args[0]->column);
        auto pattern_datum = EvalConst(*conjunct->args[1]);
        if (!col_idx.ok() || !pattern_datum.ok()) continue;
        auto pattern = DatumToSequence(*db_->adapter_, *pattern_datum);
        if (!pattern.ok() || pattern->CountAmbiguous() > 0) continue;
        for (const auto& kmer : table->kmers) {
          if (kmer->column_index != *col_idx ||
              pattern->size() < kmer->index.k()) {
            continue;  // Index unusable; scan instead.
          }
          path.kind = AccessPath::Kind::kKmerPrefilter;
          path.kmer = kmer.get();
          path.pattern = std::move(*pattern);
          return path;
        }
      }
    }
    return path;
  }

  // SELECT uses an index only for a single-table FROM.
  AccessPath PlanSelectScan(const SelectStmt& stmt, TableData* table) {
    return PlanAccess(table,
                      stmt.tables.size() == 1 ? stmt.where.get() : nullptr);
  }

  // WHERE conjuncts in evaluation order. With predicate reordering on
  // (Sec. 6.5) they run cheapest-first — native comparisons, then genomic
  // accessors, pattern scans, alignment — so expensive operators see the
  // fewest rows; otherwise as written.
  std::vector<const Expr*> OrderedConjuncts(const Expr* where) {
    std::vector<const Expr*> conjuncts;
    SplitConjuncts(where, &conjuncts);
    if (db_->predicate_reordering_) {
      std::stable_sort(conjuncts.begin(), conjuncts.end(),
                       [](const Expr* a, const Expr* b) {
                         return ExprCostRank(*a) < ExprCostRank(*b);
                       });
    }
    return conjuncts;
  }

  // Runs a plan: hands `visit` each candidate (rid, row) — the rows the
  // index returns, or every live row for a scan. Callers re-check WHERE.
  template <typename Visit>
  Status ForEachCandidate(const AccessPath& path, Visit&& visit) {
    auto counted = [&](RecordId rid, Row row) -> Status {
      ++db_->last_rows_scanned_;
      ++stage_rows_[kScan];
      return visit(rid, std::move(row));
    };
    std::vector<RecordId> rids;
    switch (path.kind) {
      case AccessPath::Kind::kScan:
        return ForEachRow(*path.table->heap, counted);
      case AccessPath::Kind::kBTreeProbe:
        rids = path.btree->tree.Find(path.key);
        break;
      case AccessPath::Kind::kBTreeRange:
        rids = path.btree->tree.RangeFrom(path.key);
        break;
      case AccessPath::Kind::kKmerPrefilter:
        for (uint64_t doc :
             path.kmer->index.ContainsCandidates(path.pattern)) {
          rids.push_back(KmerDocRow(doc));
        }
        break;
    }
    for (RecordId rid : rids) {
      auto bytes = path.table->heap->Get(rid);
      if (!bytes.ok()) {
        if (bytes.status().IsNotFound()) continue;  // Stale index entry.
        return bytes.status();
      }
      BytesReader r(bytes->data(), bytes->size());
      GENALG_ASSIGN_OR_RETURN(Row row, DeserializeRow(&r));
      GENALG_RETURN_IF_ERROR(counted(rid, std::move(row)));
    }
    return Status::OK();
  }

  // --------------------------------------------------------- Pipeline.

  // Rows move through a statement in blocks of at most this many (the
  // result page size), each with the rid of its outer-table row.
  static constexpr size_t kBlockRows = 256;
  struct Block {
    std::vector<RecordId> rids;
    std::vector<Row> rows;
  };
  // One output row and its ORDER BY keys.
  struct Record {
    Row projected;
    std::vector<Datum> order_keys;
  };
  using OrderBy = std::vector<std::pair<const Expr*, bool>>;
  enum Stage { kScan, kFilter, kSink };

  // Charges the time since the previous lap to `stage` when traced.
  void Lap(Stage stage) {
    if (!timed_) return;
    auto now = std::chrono::steady_clock::now();
    busy_ns_[stage] +=
        std::chrono::duration_cast<std::chrono::nanoseconds>(now - lap_)
            .count();
    lap_ = now;
  }

  // The source and filter of SELECT, DELETE and UPDATE. Each candidate of
  // `path` (the outer table), joined with every combination of the
  // `inner` tables' rows (a nested loop, the last table innermost), goes
  // into a block. Each full block, and the last, is filtered by the
  // conjuncts and its survivors go to `sink`, a Result<bool>(Block&)
  // callable that answers false to stop the scan.
  template <typename Sink>
  Status Stream(const AccessPath& path,
                const std::vector<std::vector<Row>>& inner,
                const std::vector<const Expr*>& conjuncts, const Env& env,
                Sink&& sink) {
    for (const std::vector<Row>& rows : inner) {
      if (rows.empty()) return Status::OK();
    }
    Block block;
    bool more = true;
    std::vector<Constants> constants(conjuncts.size());
    std::vector<uint8_t> keep;
    auto flush = [&]() -> Status {
      Lap(kScan);
      stage_rows_[kFilter] += block.rows.size();
      // Each conjunct runs over the whole block; the rows (and rids) it
      // rejects leave before the next one runs. A top-level call goes to
      // the algebra once for the block, anything else row by row.
      for (size_t c = 0; c < conjuncts.size(); ++c) {
        const Expr& conjunct = *conjuncts[c];
        keep.assign(block.rows.size(), 0);
        if (conjunct.kind == Expr::Kind::kCall &&
            !IsAggregateName(conjunct.func)) {
          GENALG_RETURN_IF_ERROR(
              FilterCall(conjunct, block, env, &constants[c], &keep));
        } else {
          for (size_t i = 0; i < block.rows.size(); ++i) {
            GENALG_ASSIGN_OR_RETURN(keep[i],
                                    EvalBool(conjunct, block.rows[i], env));
          }
        }
        size_t kept = 0;
        for (size_t i = 0; i < block.rows.size(); ++i) {
          if (!keep[i]) continue;
          if (kept != i) block.rows[kept] = std::move(block.rows[i]);
          block.rids[kept++] = block.rids[i];
        }
        block.rows.resize(kept);
        block.rids.resize(kept);
      }
      Lap(kFilter);
      stage_rows_[kSink] += block.rows.size();
      GENALG_ASSIGN_OR_RETURN(more, sink(block));
      Lap(kSink);
      block.rids.clear();
      block.rows.clear();
      return Status::OK();
    };
    std::vector<size_t> at(inner.size(), 0);
    Status scanned =
        ForEachCandidate(path, [&](RecordId rid, Row outer) -> Status {
          do {
            Row& row = block.rows.emplace_back(inner.empty() ? std::move(outer)
                                                             : outer);
            for (size_t k = 0; k < inner.size(); ++k) {
              row.insert(row.end(), inner[k][at[k]].begin(),
                         inner[k][at[k]].end());
            }
            block.rids.push_back(rid);
            if (block.rows.size() == kBlockRows) {
              GENALG_RETURN_IF_ERROR(flush());
              if (!more) return Status::OutOfRange("stopped by the sink");
            }
          } while (NextCombination(inner, &at));
          return Status::OK();
        });
    if (!more) return Status::OK();  // `scanned` is the sink's stop.
    GENALG_RETURN_IF_ERROR(scanned);
    return block.rows.empty() ? Status::OK() : flush();
  }

  // The values of a call's arguments that read no column, such as
  // parse_dna('...'): each is evaluated on first use and reused for the
  // rest of the statement.
  using Constants = std::vector<std::optional<Result<Datum>>>;

  // Filters a block by a top-level call conjunct: each row's arguments
  // are evaluated in order as Eval does, a row with a NULL argument reads
  // false without a call, and the other rows go to the algebra in one
  // Adapter::InvokeBlock. Sets keep[i] for the rows that pass; the
  // verdicts and the first error are those of EvalBool row by row.
  Status FilterCall(const Expr& call, const Block& block, const Env& env,
                    Constants* constants, std::vector<uint8_t>* keep) {
    const size_t arity = call.args.size();
    constants->resize(arity);
    std::vector<std::vector<Datum>> args(arity);
    std::vector<size_t> sent;
    std::vector<Datum> tuple(arity);
    Status evaluated = Status::OK();
    for (size_t i = 0; i < block.rows.size() && evaluated.ok(); ++i) {
      bool null = false;
      for (size_t k = 0; k < arity && !null && evaluated.ok(); ++k) {
        const Expr& arg = *call.args[k];
        std::optional<Result<Datum>>& constant = (*constants)[k];
        if (ReadsColumn(arg)) {
          Result<Datum> d = Eval(arg, block.rows[i], env);
          if (d.ok()) tuple[k] = std::move(*d);
          evaluated = d.status();
          null = d.ok() && tuple[k].is_null();
          continue;
        }
        if (!constant) constant = EvalConst(arg);
        evaluated = constant->status();
        null = constant->ok() && (*constant)->is_null();
      }
      if (!evaluated.ok() || null) continue;
      for (size_t k = 0; k < arity; ++k) {
        const std::optional<Result<Datum>>& constant = (*constants)[k];
        if (!constant) {
          args[k].push_back(std::move(tuple[k]));
        } else if (args[k].empty()) {
          args[k].push_back(**constant);
        }
      }
      sent.push_back(i);
    }
    std::vector<Datum> results;
    Status invoked =
        db_->adapter_->InvokeBlock(call.func, args, sent.size(), &results);
    for (size_t r = 0; r < results.size(); ++r) {
      if (results[r].is_null()) continue;
      GENALG_ASSIGN_OR_RETURN((*keep)[sent[r]], results[r].AsBool());
    }
    GENALG_RETURN_IF_ERROR(invoked);
    return evaluated;
  }

  // Steps `at` to the next combination of inner rows, the last table
  // fastest; false once every combination has been visited.
  static bool NextCombination(const std::vector<std::vector<Row>>& inner,
                              std::vector<size_t>* at) {
    for (size_t k = at->size(); k-- > 0;) {
      if (++(*at)[k] < inner[k].size()) return true;
      (*at)[k] = 0;
    }
    return false;
  }

  // Stable-sorts records by their ORDER BY keys.
  static Status SortRecords(const OrderBy& order_by,
                            std::vector<Record>* records) {
    Status error = Status::OK();
    std::stable_sort(records->begin(), records->end(),
                     [&](const Record& a, const Record& b) {
                       for (size_t i = 0; i < order_by.size(); ++i) {
                         auto c = a.order_keys[i].Compare(b.order_keys[i]);
                         if (!c.ok()) error = c.status();
                         if (c.ok() && *c != 0) {
                           return order_by[i].second == (*c < 0);
                         }
                       }
                       return false;
                     });
    return error;
  }

  // ------------------------------------------------- Other statements.

  Result<QueryResult> Exec(const CreateTableStmt& stmt) {
    std::vector<ColumnInfo> columns;
    for (const ColumnDef& def : stmt.columns) {
      ColumnInfo info;
      info.name = def.name;
      if (def.type_name == "int" || def.type_name == "integer") {
        info.type = ColumnType::Int();
      } else if (def.type_name == "real" || def.type_name == "double" ||
                 def.type_name == "float") {
        info.type = ColumnType::Real();
      } else if (def.type_name == "text" || def.type_name == "string" ||
                 def.type_name == "varchar") {
        info.type = ColumnType::String();
      } else if (def.type_name == "bool" || def.type_name == "boolean") {
        info.type = ColumnType::Bool();
      } else if (db_->adapter_->HasUdt(def.type_name)) {
        info.type = ColumnType::Udt(def.type_name);
      } else {
        return Status::NotFound("unknown column type '" + def.type_name +
                                "'");
      }
      columns.push_back(std::move(info));
    }
    GENALG_RETURN_IF_ERROR(db_->CreateTable(
        stmt.table, std::move(columns),
        stmt.user_space ? Space::kUser : Space::kPublic, privileged_));
    QueryResult r;
    r.message = "created table " + stmt.table;
    return r;
  }

  Result<QueryResult> Exec(const DropTableStmt& stmt) {
    GENALG_RETURN_IF_ERROR(db_->DropTable(stmt.table, privileged_));
    QueryResult r;
    r.message = "dropped table " + stmt.table;
    return r;
  }

  Result<QueryResult> Exec(const CreateIndexStmt& stmt) {
    if (stmt.method == "kmer") {
      GENALG_RETURN_IF_ERROR(db_->CreateKmerIndex(stmt.table, stmt.column));
    } else {
      GENALG_RETURN_IF_ERROR(db_->CreateBTreeIndex(stmt.table, stmt.column));
    }
    QueryResult r;
    r.message = "created " + stmt.method + " index " + stmt.index_name;
    return r;
  }

  Result<QueryResult> Exec(const InsertStmt& stmt) {
    size_t inserted = 0;
    for (const std::vector<ExprPtr>& row_exprs : stmt.rows) {
      Row row;
      for (const ExprPtr& e : row_exprs) {
        GENALG_ASSIGN_OR_RETURN(Datum d, EvalConst(*e));
        row.push_back(std::move(d));
      }
      GENALG_RETURN_IF_ERROR(
          db_->InsertRow(stmt.table, std::move(row), privileged_));
      ++inserted;
    }
    QueryResult r;
    r.message = "inserted " + std::to_string(inserted) + " rows";
    return r;
  }

  // The rows of one table that satisfy `where`, with their rids: the
  // table's candidates go through the same block filter as SELECT's.
  Result<Block> Matches(TableData* table, const Expr* where) {
    Env env;
    env.bindings.push_back(Binding{table->schema.name, &table->schema, 0});
    Block matches;
    GENALG_RETURN_IF_ERROR(Stream(
        PlanAccess(table, where), {}, OrderedConjuncts(where), env,
        [&matches](Block& block) -> Result<bool> {
          for (size_t i = 0; i < block.rows.size(); ++i) {
            matches.rids.push_back(block.rids[i]);
            matches.rows.push_back(std::move(block.rows[i]));
          }
          return true;
        }));
    return matches;
  }

  Result<QueryResult> Exec(const DeleteStmt& stmt) {
    GENALG_ASSIGN_OR_RETURN(TableData * table,
                            db_->GetWritableTable(stmt.table, privileged_));
    GENALG_ASSIGN_OR_RETURN(Block matches, Matches(table, stmt.where.get()));
    for (size_t i = 0; i < matches.rows.size(); ++i) {
      GENALG_RETURN_IF_ERROR(
          db_->EraseRow(table, matches.rows[i], matches.rids[i]));
    }
    QueryResult r;
    r.message = "deleted " + std::to_string(matches.rows.size()) + " rows";
    return r;
  }

  Result<QueryResult> Exec(const UpdateStmt& stmt) {
    GENALG_ASSIGN_OR_RETURN(TableData * table,
                            db_->GetWritableTable(stmt.table, privileged_));
    Env env;
    env.bindings.push_back(Binding{table->schema.name, &table->schema, 0});
    std::vector<std::pair<size_t, const Expr*>> sets;
    for (const auto& [column, expr] : stmt.assignments) {
      GENALG_ASSIGN_OR_RETURN(size_t idx,
                              table->schema.ColumnIndex(column));
      sets.emplace_back(idx, expr.get());
    }
    GENALG_ASSIGN_OR_RETURN(Block matches, Matches(table, stmt.where.get()));
    // Every new row is computed and checked before any is written, so a
    // rejected value leaves the table untouched.
    std::vector<Row> updates;
    for (const Row& row : matches.rows) {
      Row& updated = updates.emplace_back(row);
      for (const auto& [idx, expr] : sets) {
        GENALG_ASSIGN_OR_RETURN(updated[idx], Eval(*expr, row, env));
      }
      GENALG_RETURN_IF_ERROR(ConformRow(table->schema, &updated));
    }
    for (size_t i = 0; i < matches.rows.size(); ++i) {
      GENALG_RETURN_IF_ERROR(
          db_->EraseRow(table, matches.rows[i], matches.rids[i]));
      GENALG_RETURN_IF_ERROR(db_->StoreRow(table, updates[i]));
    }
    QueryResult r;
    r.message = "updated " + std::to_string(matches.rows.size()) + " rows";
    return r;
  }

  Database* db_;
  bool privileged_;
  // The current SELECT's stages, for PROFILE: rows through each
  // (candidates read, joined rows filtered, rows passed) and, when
  // traced, busy time summed over blocks.
  uint64_t stage_rows_[3] = {};
  uint64_t busy_ns_[3] = {};
  bool timed_ = false;
  std::chrono::steady_clock::time_point lap_;
};

Result<QueryResult> Database::Execute(std::string_view sql,
                                      bool privileged) {
  obs::Registry::Global().GetCounter("udb.sql.statements")->Increment();
  obs::Span exec_span("execute");
  exec_span.SetAttr("sql", sql);
  last_rows_scanned_ = 0;
  Result<Statement> stmt = [&]() -> Result<Statement> {
    obs::Span parse_span("parse");
    return ParseSql(sql);
  }();
  GENALG_RETURN_IF_ERROR(stmt.status());
  Executor executor(this, privileged);
  Result<QueryResult> result = [&]() -> Result<QueryResult> {
    if (std::holds_alternative<SelectStmt>(*stmt)) {
      return executor.Run(*stmt);  // Read-only: no transaction needed.
    }
    GENALG_ASSIGN_OR_RETURN(bool implicit, MaybeBeginImplicit());
    Result<QueryResult> r = executor.Run(*stmt);
    Status ended = EndImplicit(implicit, r.status());
    GENALG_RETURN_IF_ERROR(ended);
    return r;
  }();
  if (result.ok()) {
    exec_span.SetAttr("rows", static_cast<uint64_t>(result->rows.size()));
  }
  return result;
}

namespace {

// One PROFILE output row per span node; tree depth becomes indentation in
// the operator column.
void AppendProfileRows(const obs::SpanNode& node, int depth,
                       QueryResult* out) {
  Row row;
  row.push_back(
      Datum::String(std::string(static_cast<size_t>(depth) * 2, ' ') +
                    node.name));
  row.push_back(
      Datum::Real(static_cast<double>(node.duration_ns) / 1e3));
  std::string rows_attr(node.attr("rows"));
  row.push_back(rows_attr.empty()
                    ? Datum::Null()
                    : Datum::Int(std::strtoll(rows_attr.c_str(), nullptr,
                                              10)));
  std::string detail;
  for (const auto& [key, value] : node.attrs) {
    if (key == "rows" || key == "sql") continue;
    if (!detail.empty()) detail += ' ';
    detail += key;
    detail += '=';
    detail += value;
  }
  row.push_back(Datum::String(std::move(detail)));
  out->rows.push_back(std::move(row));
  for (const auto& child : node.children) {
    AppendProfileRows(*child, depth + 1, out);
  }
}

}  // namespace

Result<QueryResult> Database::Profile(std::string_view sql,
                                      bool privileged) {
  // Collect the span trees rooted during this statement on this thread;
  // the collector also masks any enclosing span so the "execute" root
  // lands here rather than in an outer trace.
  obs::SpanCollector collector;
  GENALG_ASSIGN_OR_RETURN(QueryResult executed, Execute(sql, privileged));
  QueryResult profile;
  profile.columns = {"operator", "time_us", "rows", "detail"};
  for (const auto& root : collector.roots()) {
    AppendProfileRows(*root, 0, &profile);
  }
  profile.message = "profiled: " + std::to_string(executed.rows.size()) +
                    " result rows";
  return profile;
}

namespace {

constexpr uint32_t kCatalogMagic = 0x47414C43;  // "GALC".

}  // namespace

std::vector<uint8_t> Database::SerializeCatalog() const {
  BytesWriter w;
  w.PutU32(kCatalogMagic);
  w.PutVarint(tables_.size());
  for (const auto& [name, table] : tables_) {
    w.PutString(name);
    w.PutU8(table->schema.space == Space::kPublic ? 1 : 0);
    w.PutVarint(table->schema.columns.size());
    for (const ColumnInfo& col : table->schema.columns) {
      w.PutString(col.name);
      w.PutU8(static_cast<uint8_t>(col.type.kind));
      w.PutString(col.type.udt_name);
    }
    w.PutU32(table->heap->first_page());
    w.PutVarint(table->btrees.size());
    for (const auto& btree : table->btrees) w.PutString(btree->column);
    w.PutVarint(table->kmers.size());
    for (const auto& kmer : table->kmers) {
      w.PutString(kmer->column);
      w.PutVarint(kmer->index.k());
    }
  }
  return w.Release();
}

Status Database::LoadCatalogBlob(const std::vector<uint8_t>& blob) {
  tables_.clear();
  restoring_catalog_ = true;
  Status result = [&]() -> Status {
    BytesReader r(blob);
    GENALG_ASSIGN_OR_RETURN(uint32_t magic, r.GetU32());
    if (magic != kCatalogMagic) {
      return Status::Corruption("not a GenAlg catalog");
    }
    GENALG_ASSIGN_OR_RETURN(uint64_t table_count, r.GetVarint());
    for (uint64_t t = 0; t < table_count; ++t) {
      auto data = std::make_unique<TableData>();
      GENALG_ASSIGN_OR_RETURN(data->schema.name, r.GetString());
      GENALG_ASSIGN_OR_RETURN(uint8_t space, r.GetU8());
      data->schema.space = space == 1 ? Space::kPublic : Space::kUser;
      GENALG_ASSIGN_OR_RETURN(uint64_t column_count, r.GetVarint());
      for (uint64_t c = 0; c < column_count; ++c) {
        ColumnInfo col;
        GENALG_ASSIGN_OR_RETURN(col.name, r.GetString());
        GENALG_ASSIGN_OR_RETURN(uint8_t kind, r.GetU8());
        if (kind > static_cast<uint8_t>(DatumKind::kUdt)) {
          return Status::Corruption("invalid column kind in catalog");
        }
        col.type.kind = static_cast<DatumKind>(kind);
        GENALG_ASSIGN_OR_RETURN(col.type.udt_name, r.GetString());
        if (col.type.kind == DatumKind::kUdt &&
            !adapter_->HasUdt(col.type.udt_name)) {
          return Status::NotFound("catalog references unregistered UDT '" +
                                  col.type.udt_name + "'");
        }
        data->schema.columns.push_back(std::move(col));
      }
      GENALG_ASSIGN_OR_RETURN(uint32_t first_page, r.GetU32());
      GENALG_ASSIGN_OR_RETURN(HeapFile heap,
                              HeapFile::Attach(pool_.get(), first_page));
      data->heap = std::make_unique<HeapFile>(std::move(heap));
      std::string table_name = data->schema.name;
      tables_.emplace(table_name, std::move(data));
      // Indexes are rebuilt by backfill over the attached heap.
      GENALG_ASSIGN_OR_RETURN(uint64_t btree_count, r.GetVarint());
      for (uint64_t i = 0; i < btree_count; ++i) {
        GENALG_ASSIGN_OR_RETURN(std::string column, r.GetString());
        GENALG_RETURN_IF_ERROR(CreateBTreeIndex(table_name, column));
      }
      GENALG_ASSIGN_OR_RETURN(uint64_t kmer_count, r.GetVarint());
      for (uint64_t i = 0; i < kmer_count; ++i) {
        GENALG_ASSIGN_OR_RETURN(std::string column, r.GetString());
        GENALG_ASSIGN_OR_RETURN(uint64_t k, r.GetVarint());
        GENALG_RETURN_IF_ERROR(
            CreateKmerIndex(table_name, column, static_cast<size_t>(k)));
      }
    }
    return Status::OK();
  }();
  restoring_catalog_ = false;
  return result;
}

// ------------------------------------------------ Transactions & recovery.

Status Database::EnableWal(std::unique_ptr<WalFile> wal_file) {
  if (wal_ != nullptr) {
    return Status::FailedPrecondition("a WAL is already attached");
  }
  if (in_txn_) {
    return Status::FailedPrecondition(
        "cannot attach a WAL inside a transaction");
  }
  wal_ = std::make_unique<WriteAheadLog>(std::move(wal_file));
  return Checkpoint();
}

Status Database::Begin() {
  if (in_txn_) {
    return Status::FailedPrecondition("a transaction is already open");
  }
  // Flush committed dirty pages so the on-disk image is exactly the
  // pre-transaction state — the baseline DiscardTracked rolls back to.
  GENALG_RETURN_IF_ERROR(pool_->FlushAll());
  txn_catalog_snapshot_ = SerializeCatalog();
  GENALG_RETURN_IF_ERROR(pool_->BeginTracking());
  current_txn_ = next_txn_++;
  in_txn_ = true;
  obs::Registry::Global().GetCounter("udb.txn.begun")->Increment();
  if (wal_ != nullptr) {
    Status s = wal_->AppendBegin(current_txn_);
    if (!s.ok()) {
      (void)Abort();
      return s;
    }
  }
  return Status::OK();
}

Status Database::Commit() {
  if (!in_txn_) {
    return Status::FailedPrecondition("no open transaction");
  }
  if (wal_ != nullptr) {
    Status logged = [&]() -> Status {
      for (PageId id : pool_->TrackedDirtyPages()) {
        GENALG_ASSIGN_OR_RETURN(uint8_t* frame, pool_->FetchPage(id));
        Status s = wal_->AppendPageImage(current_txn_, id, frame);
        GENALG_RETURN_IF_ERROR(pool_->UnpinPage(id, /*dirty=*/false));
        GENALG_RETURN_IF_ERROR(s);
      }
      return wal_->AppendCommit(current_txn_, SerializeCatalog());
    }();
    if (!logged.ok()) {
      // The commit record never became durable: roll back so the
      // in-process state matches what recovery will reconstruct.
      (void)Abort();
      return logged;
    }
  }
  pool_->EndTracking();
  in_txn_ = false;
  txn_catalog_snapshot_.clear();
  obs::Registry::Global().GetCounter("udb.txn.committed")->Increment();
  return Status::OK();
}

Status Database::Abort() {
  if (!in_txn_) {
    return Status::FailedPrecondition("no open transaction");
  }
  if (wal_ != nullptr) {
    (void)wal_->AppendAbort(current_txn_);  // Advisory; may fail mid-crash.
  }
  in_txn_ = false;
  obs::Registry::Global().GetCounter("udb.txn.aborted")->Increment();
  GENALG_RETURN_IF_ERROR(pool_->DiscardTracked());
  Status restored = LoadCatalogBlob(txn_catalog_snapshot_);
  txn_catalog_snapshot_.clear();
  return restored;
}

Status Database::Checkpoint() {
  if (in_txn_) {
    return Status::FailedPrecondition(
        "cannot checkpoint inside a transaction");
  }
  if (wal_ == nullptr) {
    return Status::FailedPrecondition("no WAL attached");
  }
  GENALG_RETURN_IF_ERROR(pool_->FlushAll());
  GENALG_RETURN_IF_ERROR(disk_->Sync());
  return wal_->Checkpoint(SerializeCatalog());
}

Result<std::unique_ptr<Database>> Database::Recover(
    const Adapter* adapter, std::unique_ptr<DiskManager> disk,
    std::unique_ptr<WalFile> wal_file, size_t pool_pages) {
  GENALG_ASSIGN_OR_RETURN(WalReplayStats stats,
                          WriteAheadLog::Replay(wal_file.get(), disk.get()));
  auto db = std::make_unique<Database>(adapter, std::move(disk), pool_pages);
  if (stats.has_catalog) {
    GENALG_RETURN_IF_ERROR(db->LoadCatalogBlob(stats.catalog));
  }
  GENALG_RETURN_IF_ERROR(db->EnableWal(std::move(wal_file)));
  return db;
}

Result<bool> Database::MaybeBeginImplicit() {
  if (wal_ == nullptr || in_txn_ || restoring_catalog_) return false;
  GENALG_RETURN_IF_ERROR(Begin());
  return true;
}

Status Database::EndImplicit(bool began, Status op_status) {
  if (!began) return op_status;
  if (!in_txn_) return op_status;  // A nested failure already rolled back.
  if (op_status.ok()) return Commit();
  (void)Abort();
  return op_status;
}

Result<std::string> Database::Explain(std::string_view sql) {
  GENALG_ASSIGN_OR_RETURN(Statement stmt, ParseSql(sql));
  const SelectStmt* select = std::get_if<SelectStmt>(&stmt);
  if (select == nullptr) {
    return Status::InvalidArgument("EXPLAIN covers SELECT statements only");
  }
  Executor executor(this, /*privileged=*/false);
  return executor.ExplainSelect(*select);
}

}  // namespace genalg::udb
