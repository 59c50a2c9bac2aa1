#ifndef GENALG_UDB_DATABASE_H_
#define GENALG_UDB_DATABASE_H_

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "base/result.h"
#include "base/rw_gate.h"
#include "index/kmer_index.h"
#include "udb/adapter.h"
#include "udb/btree.h"
#include "udb/datum.h"
#include "udb/sql_ast.h"
#include "udb/storage.h"
#include "udb/wal.h"

namespace genalg::udb {

/// Which half of the Unifying Database a table lives in (Sec. 5.1): the
/// public space holds reconciled external data and is read-only for
/// ordinary sessions; user space is private and writable by its owner.
enum class Space { kPublic, kUser };

struct ColumnInfo {
  std::string name;
  ColumnType type;
};

struct TableSchema {
  std::string name;
  std::vector<ColumnInfo> columns;
  Space space = Space::kUser;

  /// Index of a column by name (case-sensitive); NotFound otherwise.
  Result<size_t> ColumnIndex(std::string_view column) const;
};

/// The tabular result of Execute: column headers plus rows of datums. DDL
/// and DML statements return no rows and set `message`.
struct QueryResult {
  std::vector<std::string> columns;
  std::vector<Row> rows;
  std::string message;
};

/// The Unifying Database: an embeddable extensible DBMS (Sec. 5/6) —
/// slotted-page storage behind a buffer pool, a catalog with public/user
/// spaces, B+-tree and genomic (k-mer) secondary indexes, and a SQL
/// dialect whose expressions call straight into the Genomics Algebra
/// through the adapter (Sec. 6.3):
///
///   SELECT id FROM DNAFragments WHERE contains(fragment,
///          parse_dna('ATTGCCATA'))
///
/// The engine never interprets genomic bytes itself; every genomic value
/// is an opaque UDT and every genomic operation an external function — the
/// paper's separation of DBMS data model and application algebra.
class Database {
 public:
  /// Creates a database over the given page store (in-memory by default).
  /// The adapter must outlive the database.
  explicit Database(const Adapter* adapter,
                    std::unique_ptr<DiskManager> disk = nullptr,
                    size_t pool_pages = 512);

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Parses and runs one SQL statement. `privileged` marks the warehouse
  /// maintenance path (ETL loader): only it may create or write
  /// public-space tables; ordinary sessions read them (C13's separation).
  Result<QueryResult> Execute(std::string_view sql, bool privileged = false);

  /// The Sec. 6.5 optimizer made visible: for a SELECT, reports the chosen
  /// access path (sequential scan, B+-tree probe, or k-mer prefilter), the
  /// estimated selectivity of each WHERE conjunct, and the order the
  /// predicates will be evaluated in (cheap native comparisons before
  /// genomic operators, alignment last).
  Result<std::string> Explain(std::string_view sql);

  /// Runs the statement with a trace-span collector installed and returns
  /// the resulting span tree as a table — one row per operator, columns
  /// [operator, time_us, rows, detail] — instead of the query's own rows.
  /// Tree depth is encoded as two-space indentation in `operator`; the
  /// root "execute" row carries the statement's result-row count. This is
  /// the engine behind BQL's `PROFILE <query>`.
  Result<QueryResult> Profile(std::string_view sql, bool privileged = false);

  // ----------------------- Programmatic API (ETL, tests, benchmarks).

  Status CreateTable(const std::string& name,
                     std::vector<ColumnInfo> columns, Space space,
                     bool privileged = false);
  Status DropTable(const std::string& name, bool privileged = false);
  Result<const TableSchema*> GetSchema(std::string_view table) const;
  std::vector<std::string> ListTables() const;

  /// Validates against the schema, stores, and maintains indexes.
  Status InsertRow(const std::string& table, Row row,
                   bool privileged = false);

  /// All live rows (physical order).
  Result<std::vector<Row>> ScanTable(const std::string& table) const;

  /// Secondary indexes. The k-mer method implements the genomic index of
  /// Sec. 6.5 and accelerates contains() predicates on nucseq columns.
  Status CreateBTreeIndex(const std::string& table,
                          const std::string& column);
  Status CreateKmerIndex(const std::string& table, const std::string& column,
                         size_t k = 8);

  const Adapter& adapter() const { return *adapter_; }

  // ------------------------------------ Durability (write-ahead logging).

  /// Attaches a write-ahead log and writes an initial checkpoint. From
  /// here on every mutation is transactional: explicit Begin/Commit/Abort
  /// brackets, or an implicit single-statement transaction when none is
  /// open. FailedPrecondition if a WAL is already attached or a
  /// transaction is open.
  Status EnableWal(std::unique_ptr<WalFile> wal_file);
  bool wal_enabled() const { return wal_ != nullptr; }
  WriteAheadLog* wal() { return wal_.get(); }

  /// Opens a transaction: committed dirty pages are flushed so the disk
  /// image is the rollback baseline, the catalog is snapshotted, and the
  /// buffer pool starts no-steal tracking. Works without a WAL too (the
  /// transaction is then atomic in-process but not crash-durable).
  Status Begin();

  /// Appends the images of every page the transaction dirtied plus a
  /// commit record carrying the catalog, and fsyncs the log; only then
  /// does it return OK. On any failure the transaction is aborted and the
  /// original error returned.
  Status Commit();

  /// Rolls back: tracked frames are discarded (later fetches re-read the
  /// pre-transaction images from disk) and the catalog — schemas, heap
  /// roots, index definitions, rebuilt indexes — is restored from the
  /// Begin snapshot.
  Status Abort();

  bool in_transaction() const { return in_txn_; }

  /// Flushes every page, fsyncs the database file, then atomically
  /// truncates the log to a single checkpoint record carrying the
  /// catalog. FailedPrecondition inside a transaction.
  Status Checkpoint();

  /// Crash-safe open: replays committed transactions from the log onto
  /// the disk (recovery is idempotent), reconstructs the database from
  /// the latest durable catalog (carried by commit/checkpoint records),
  /// attaches the log, and writes a fresh checkpoint. An empty disk +
  /// empty log yields an empty durable database.
  static Result<std::unique_ptr<Database>> Recover(
      const Adapter* adapter, std::unique_ptr<DiskManager> disk,
      std::unique_ptr<WalFile> wal_file, size_t pool_pages = 512);

  /// Heap records fetched by the most recent Execute (the benchmark
  /// counter behind the index-vs-scan experiments). With concurrent
  /// readers the value is a racy aggregate across them; the single-
  /// threaded benchmarks that consume it are unaffected.
  uint64_t last_rows_scanned() const {
    return last_rows_scanned_.load(std::memory_order_relaxed);
  }

  /// The database-level reader–writer concurrency gate (metrics under
  /// `udb.gate.*`). The database does NOT acquire it internally — that
  /// would self-deadlock the write paths — it is the contract between
  /// the serving layer (read side around every served query) and the
  /// mutation paths (Warehouse::RunInTransaction takes the write side).
  /// Read queries are safe to run concurrently under the read side: the
  /// buffer pool is internally synchronized and the executor keeps all
  /// per-query state local.
  RwGate& gate() { return gate_; }

  /// Toggles the Sec. 6.5 cheapest-first predicate ordering (on by
  /// default). Exists for the optimizer ablation benchmark; semantics are
  /// identical either way.
  void set_predicate_reordering(bool enabled) {
    predicate_reordering_ = enabled;
  }
  bool predicate_reordering() const { return predicate_reordering_; }

  BufferPool* buffer_pool() { return pool_.get(); }

 private:
  struct BTreeIndexData {
    std::string column;
    size_t column_index;
    BTree tree;
  };
  /// A row's document in `index` is its RecordId packed as
  /// page << 16 | slot, which orders documents as RecordIds.
  struct KmerIndexData {
    std::string column;
    size_t column_index;
    index::KmerIndex index;
  };
  struct TableData {
    TableSchema schema;
    std::unique_ptr<HeapFile> heap;
    std::vector<std::unique_ptr<BTreeIndexData>> btrees;
    std::vector<std::unique_ptr<KmerIndexData>> kmers;
  };

  class Executor;

  // Transaction-unwrapped bodies of the public mutators; the public
  // methods bracket these with an implicit transaction when a WAL is
  // attached and no explicit one is open.
  Status CreateTableImpl(const std::string& name,
                         std::vector<ColumnInfo> columns, Space space,
                         bool privileged);
  Status InsertRowImpl(const std::string& table, Row row, bool privileged);
  Status CreateBTreeIndexImpl(const std::string& table,
                              const std::string& column);
  Status CreateKmerIndexImpl(const std::string& table,
                             const std::string& column, size_t k);

  Result<TableData*> GetTable(std::string_view name);
  Result<const TableData*> GetTable(std::string_view name) const;
  /// GetTable, refused for a public-space table unless `privileged`.
  Result<TableData*> GetWritableTable(std::string_view name,
                                      bool privileged);
  /// Writes a conformed row to the heap and every index of `table`.
  Status StoreRow(TableData* table, const Row& row);
  /// Removes the row stored at `rid` from the heap and every index.
  Status EraseRow(TableData* table, const Row& row, RecordId rid);

  /// The catalog (schemas, spaces, heap roots, index definitions) as the
  /// blob stored in checkpoint and commit records and Begin snapshots.
  std::vector<uint8_t> SerializeCatalog() const;

  /// Rebuilds tables_ from a catalog blob: re-attaches heaps over their
  /// existing pages and rebuilds secondary indexes by backfill. Existing
  /// entries are dropped first.
  Status LoadCatalogBlob(const std::vector<uint8_t>& blob);

  /// Opens an implicit single-statement transaction when a WAL is
  /// attached and none is open. Returns whether it did.
  Result<bool> MaybeBeginImplicit();
  Status EndImplicit(bool began, Status op_status);

  const Adapter* adapter_;
  std::unique_ptr<DiskManager> disk_;
  std::unique_ptr<BufferPool> pool_;
  std::map<std::string, std::unique_ptr<TableData>, std::less<>> tables_;
  std::unique_ptr<WriteAheadLog> wal_;
  bool in_txn_ = false;
  bool restoring_catalog_ = false;  // Suppresses implicit transactions.
  uint64_t next_txn_ = 1;
  uint64_t current_txn_ = 0;
  std::vector<uint8_t> txn_catalog_snapshot_;
  std::atomic<uint64_t> last_rows_scanned_{0};
  bool predicate_reordering_ = true;
  RwGate gate_{"udb.gate"};
};

}  // namespace genalg::udb

#endif  // GENALG_UDB_DATABASE_H_
