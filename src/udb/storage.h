#ifndef GENALG_UDB_STORAGE_H_
#define GENALG_UDB_STORAGE_H_

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/result.h"
#include "base/status.h"
#include "udb/page.h"

namespace genalg::udb {

/// Page-granular storage. Two implementations: a file-backed manager (the
/// warehouse's persistent store) and an in-memory one (tests, benches,
/// ephemeral user space).
class DiskManager {
 public:
  virtual ~DiskManager() = default;

  /// Allocates a zeroed page and returns its id.
  virtual Result<PageId> AllocatePage() = 0;

  /// Reads a full page into `out` (kPageSize bytes).
  virtual Status ReadPage(PageId id, uint8_t* out) = 0;

  /// Writes a full page from `data`.
  virtual Status WritePage(PageId id, const uint8_t* data) = 0;

  virtual size_t PageCount() const = 0;

  /// Makes every written page durable (fsync). No-op for media without a
  /// volatile cache. The WAL checkpoint protocol calls this before
  /// truncating the log.
  virtual Status Sync() { return Status::OK(); }

  /// Grows the store to at least `page_count` pages (zero-filled). WAL
  /// recovery uses this to re-create pages whose allocation never reached
  /// the database file before the crash.
  virtual Status EnsureCapacity(size_t page_count);

  /// Total I/O operations performed (for the benchmarks).
  virtual uint64_t ReadCount() const = 0;
  virtual uint64_t WriteCount() const = 0;
};

/// Heap pages held in RAM.
class MemoryDiskManager : public DiskManager {
 public:
  MemoryDiskManager() = default;

  Result<PageId> AllocatePage() override;
  Status ReadPage(PageId id, uint8_t* out) override;
  Status WritePage(PageId id, const uint8_t* data) override;
  size_t PageCount() const override { return pages_.size(); }
  uint64_t ReadCount() const override { return reads_; }
  uint64_t WriteCount() const override { return writes_; }

 private:
  std::vector<std::unique_ptr<uint8_t[]>> pages_;
  uint64_t reads_ = 0;
  uint64_t writes_ = 0;
};

/// Pages stored in a file on disk.
class FileDiskManager : public DiskManager {
 public:
  /// Opens (creating if needed) the backing file.
  static Result<std::unique_ptr<FileDiskManager>> Open(
      const std::string& path);

  ~FileDiskManager() override;

  Result<PageId> AllocatePage() override;
  Status ReadPage(PageId id, uint8_t* out) override;
  Status WritePage(PageId id, const uint8_t* data) override;
  size_t PageCount() const override { return page_count_; }
  Status Sync() override;
  uint64_t ReadCount() const override { return reads_; }
  uint64_t WriteCount() const override { return writes_; }

 private:
  FileDiskManager(std::FILE* file, size_t page_count)
      : file_(file), page_count_(page_count) {}

  std::FILE* file_;
  size_t page_count_;
  uint64_t reads_ = 0;
  uint64_t writes_ = 0;
};

/// A buffer pool of `capacity` frames. Callers fetch (pin) pages, mutate
/// them in place, and unpin with a dirty flag. A frame's bytes are
/// allocated when the free list (unused frames, lowest index first) first
/// hands it out, so memory follows the pages held. With no free frame, a
/// CLOCK sweep evicts an unpinned frame whose reference bit (set by each
/// pin) is clear, writing it back if dirty. No-steal: a frame the open
/// transaction dirtied is never evicted.
///
/// Thread safety: every operation (and through it, all DiskManager
/// traffic) is serialized on one internal mutex, so concurrent read
/// queries may fetch/unpin pages from the same pool. The frame bytes a
/// fetch returns are touched OUTSIDE that mutex; the database-level
/// reader–writer gate is what keeps page mutators exclusive of readers
/// (readers only read frame bytes, writers hold the gate's write side).
class BufferPool {
 public:
  BufferPool(DiskManager* disk, size_t capacity);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Pins a page and returns its in-memory frame. ResourceExhausted if
  /// every frame is pinned.
  Result<uint8_t*> FetchPage(PageId id);

  /// Allocates a fresh page, pins it, and returns (id, frame).
  Result<std::pair<PageId, uint8_t*>> NewPage();

  /// Releases one pin; `dirty` marks the frame for write-back.
  Status UnpinPage(PageId id, bool dirty);

  /// Writes every dirty frame back to disk.
  Status FlushAll();

  // ---- Transaction support (the WAL's no-steal contract).
  //
  // While tracking is active, every page dirtied (or newly allocated) is
  // recorded and becomes unevictable: its uncommitted image must never
  // reach the database file before the transaction's log records are
  // durable. At commit the Database reads the tracked frames, logs them,
  // and ends tracking; at abort the tracked frames are discarded so later
  // fetches re-read the pre-transaction images from disk.

  /// Starts recording dirtied pages. FailedPrecondition if already
  /// tracking.
  Status BeginTracking();

  /// Pages dirtied since BeginTracking, ascending. Every one of them is
  /// still resident (no-steal guarantees it).
  std::vector<PageId> TrackedDirtyPages() const;

  /// Stops tracking without touching the frames (commit path: the frames
  /// stay dirty and migrate to disk lazily, their images being durable in
  /// the log).
  void EndTracking();

  /// Drops every tracked frame without write-back (abort path).
  /// FailedPrecondition if one of them is still pinned.
  Status DiscardTracked();

  bool tracking() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return tracking_;
  }

  size_t capacity() const { return frames_.size(); }
  uint64_t hit_count() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return hits_;
  }
  uint64_t miss_count() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return misses_;
  }

 private:
  struct Frame {
    PageId id = kInvalidPageId;
    int pin_count = 0;
    bool dirty = false;
    bool referenced = false;          // CLOCK's second-chance bit.
    std::unique_ptr<uint8_t[]> data;  // Allocated on first use.
  };

  // The free list's first frame, evicting a CLOCK victim into the list if
  // it is empty; the caller pops the frame once it holds a page.
  Result<size_t> FreeFrame();

  DiskManager* disk_;
  mutable std::mutex mutex_;  // Guards everything below + disk_ calls.
  std::vector<Frame> frames_;
  std::unordered_map<PageId, size_t> page_table_;
  std::priority_queue<size_t, std::vector<size_t>, std::greater<>> free_;
  size_t hand_ = 0;  // The next frame the CLOCK sweep inspects.
  bool tracking_ = false;
  std::set<PageId> tracked_;  // Dirtied since BeginTracking.
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

/// An unordered collection of records spread over a linked list of slotted
/// pages, with insert/get/delete/scan. The physical home of every table.
class HeapFile {
 public:
  /// Creates a new heap file with one empty page.
  static Result<HeapFile> Create(BufferPool* pool);

  /// Re-opens an existing heap file by its first page (walks the page
  /// chain to find the tail). Used when attaching a persisted database.
  static Result<HeapFile> Attach(BufferPool* pool, PageId first_page);

  /// Inserts a record, growing the file as needed.
  Result<RecordId> Insert(const std::vector<uint8_t>& record);

  /// Copies the record out; NotFound for deleted/unknown ids.
  Result<std::vector<uint8_t>> Get(RecordId id) const;

  /// Tombstones a record.
  Status Delete(RecordId id);

  /// Replaces a record; the new version may land at a new RecordId
  /// (returned).
  Result<RecordId> Update(RecordId id, const std::vector<uint8_t>& record);

  /// Calls `fn(record_id, bytes, size)` for every live record; stops early
  /// if fn returns a non-OK status (which is then returned).
  Status Scan(const std::function<Status(RecordId, const uint8_t*, size_t)>&
                  fn) const;

  /// Number of live records (full scan).
  Result<size_t> Count() const;

  PageId first_page() const { return first_page_; }

 private:
  HeapFile(BufferPool* pool, PageId first_page)
      : pool_(pool), first_page_(first_page), last_page_(first_page) {}

  BufferPool* pool_;
  PageId first_page_;
  PageId last_page_;
};

}  // namespace genalg::udb

#endif  // GENALG_UDB_STORAGE_H_
