#include "udb/storage.h"

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <utility>

#include "obs/metrics.h"

namespace genalg::udb {

namespace {

// Global mirrors of the per-instance counters, so one snapshot can see
// every pool/disk in the process. udb.* per DESIGN.md naming.
struct StorageMetrics {
  obs::Counter* pool_hits;
  obs::Counter* pool_misses;
  obs::Counter* pool_evictions;
  obs::Counter* page_reads;
  obs::Counter* page_writes;
};

const StorageMetrics& Metrics() {
  static const StorageMetrics m = {
      obs::Registry::Global().GetCounter("udb.pool.hits"),
      obs::Registry::Global().GetCounter("udb.pool.misses"),
      obs::Registry::Global().GetCounter("udb.pool.evictions"),
      obs::Registry::Global().GetCounter("udb.disk.page_reads"),
      obs::Registry::Global().GetCounter("udb.disk.page_writes"),
  };
  return m;
}

Status NoSuchPage(PageId id) {
  return Status::OutOfRange("page " + std::to_string(id) + " does not exist");
}

}  // namespace

// ----------------------------------------------------------- DiskManager.

Status DiskManager::EnsureCapacity(size_t page_count) {
  while (PageCount() < page_count) {
    GENALG_RETURN_IF_ERROR(AllocatePage().status());
  }
  return Status::OK();
}

// --------------------------------------------------- MemoryDiskManager.

Result<PageId> MemoryDiskManager::AllocatePage() {
  pages_.push_back(std::make_unique<uint8_t[]>(kPageSize));  // Zeroed.
  return static_cast<PageId>(pages_.size() - 1);
}

Status MemoryDiskManager::ReadPage(PageId id, uint8_t* out) {
  if (id >= pages_.size()) return NoSuchPage(id);
  ++reads_;
  Metrics().page_reads->Increment();
  std::memcpy(out, pages_[id].get(), kPageSize);
  return Status::OK();
}

Status MemoryDiskManager::WritePage(PageId id, const uint8_t* data) {
  if (id >= pages_.size()) return NoSuchPage(id);
  ++writes_;
  Metrics().page_writes->Increment();
  std::memcpy(pages_[id].get(), data, kPageSize);
  return Status::OK();
}

// ----------------------------------------------------- FileDiskManager.

Result<std::unique_ptr<FileDiskManager>> FileDiskManager::Open(
    const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "r+b");
  if (file == nullptr) {
    file = std::fopen(path.c_str(), "w+b");
  }
  if (file == nullptr) {
    return Status::IoError("cannot open '" + path + "'");
  }
  std::fseek(file, 0, SEEK_END);
  long size = std::ftell(file);
  if (size < 0) {
    std::fclose(file);
    return Status::IoError("cannot size '" + path + "'");
  }
  return std::unique_ptr<FileDiskManager>(
      new FileDiskManager(file, static_cast<size_t>(size) / kPageSize));
}

FileDiskManager::~FileDiskManager() {
  if (file_ != nullptr) std::fclose(file_);
}

Result<PageId> FileDiskManager::AllocatePage() {
  uint8_t zeros[kPageSize] = {};
  if (std::fseek(file_, static_cast<long>(page_count_ * kPageSize),
                 SEEK_SET) != 0 ||
      std::fwrite(zeros, 1, kPageSize, file_) != kPageSize) {
    return Status::IoError("failed to extend database file");
  }
  return static_cast<PageId>(page_count_++);
}

Status FileDiskManager::ReadPage(PageId id, uint8_t* out) {
  if (id >= page_count_) return NoSuchPage(id);
  ++reads_;
  Metrics().page_reads->Increment();
  if (std::fseek(file_, static_cast<long>(id) * kPageSize, SEEK_SET) != 0 ||
      std::fread(out, 1, kPageSize, file_) != kPageSize) {
    return Status::IoError("failed to read page " + std::to_string(id));
  }
  return Status::OK();
}

Status FileDiskManager::WritePage(PageId id, const uint8_t* data) {
  if (id >= page_count_) return NoSuchPage(id);
  ++writes_;
  Metrics().page_writes->Increment();
  if (std::fseek(file_, static_cast<long>(id) * kPageSize, SEEK_SET) != 0 ||
      std::fwrite(data, 1, kPageSize, file_) != kPageSize) {
    return Status::IoError("failed to write page " + std::to_string(id));
  }
  return Status::OK();
}

Status FileDiskManager::Sync() {
  if (std::fflush(file_) != 0 || ::fsync(::fileno(file_)) != 0) {
    return Status::IoError("fsync of database file failed");
  }
  return Status::OK();
}

// ------------------------------------------------------------ BufferPool.

BufferPool::BufferPool(DiskManager* disk, size_t capacity)
    : disk_(disk), frames_(std::max<size_t>(capacity, 2)) {
  for (size_t i = 0; i < frames_.size(); ++i) free_.push(i);
}

Result<size_t> BufferPool::FreeFrame() {
  // CLOCK, when no frame is free. The first turn clears every reference bit
  // it passes, so two turns find a victim unless none is evictable.
  for (size_t step = 0; free_.empty(); ++step) {
    if (step == 2 * frames_.size()) {
      return Status::ResourceExhausted("all buffer frames are pinned");
    }
    size_t index = hand_;
    hand_ = (hand_ + 1) % frames_.size();
    Frame& frame = frames_[index];
    if (frame.pin_count > 0) continue;
    // No-steal: a page dirtied by the open transaction must not reach the
    // database file before its log records are durable.
    if (tracking_ && frame.dirty && tracked_.count(frame.id) != 0) continue;
    if (std::exchange(frame.referenced, false)) continue;
    if (frame.dirty) {
      GENALG_RETURN_IF_ERROR(disk_->WritePage(frame.id, frame.data.get()));
      frame.dirty = false;
    }
    Metrics().pool_evictions->Increment();
    page_table_.erase(frame.id);
    frame.id = kInvalidPageId;
    free_.push(index);
  }
  // Left unzeroed: the caller overwrites it (ReadPage or memset).
  std::unique_ptr<uint8_t[]>& data = frames_[free_.top()].data;
  if (!data) data = std::make_unique_for_overwrite<uint8_t[]>(kPageSize);
  return free_.top();
}

Result<uint8_t*> BufferPool::FetchPage(PageId id) {
  std::lock_guard<std::mutex> guard(mutex_);
  auto it = page_table_.find(id);
  if (it != page_table_.end()) {
    ++hits_;
    Metrics().pool_hits->Increment();
    Frame& frame = frames_[it->second];
    ++frame.pin_count;
    frame.referenced = true;
    return frame.data.get();
  }
  ++misses_;
  Metrics().pool_misses->Increment();
  GENALG_ASSIGN_OR_RETURN(size_t index, FreeFrame());
  Frame& frame = frames_[index];
  GENALG_RETURN_IF_ERROR(disk_->ReadPage(id, frame.data.get()));
  free_.pop();
  frame.id = id;
  frame.pin_count = 1;
  frame.referenced = true;
  page_table_[id] = index;
  return frame.data.get();
}

Result<std::pair<PageId, uint8_t*>> BufferPool::NewPage() {
  std::lock_guard<std::mutex> guard(mutex_);
  // The frame first: a full pool must not grow the store by an orphan page.
  GENALG_ASSIGN_OR_RETURN(size_t index, FreeFrame());
  GENALG_ASSIGN_OR_RETURN(PageId id, disk_->AllocatePage());
  free_.pop();
  Frame& frame = frames_[index];
  std::memset(frame.data.get(), 0, kPageSize);
  frame.id = id;
  frame.pin_count = 1;
  frame.dirty = true;
  frame.referenced = true;
  if (tracking_) tracked_.insert(id);
  page_table_[id] = index;
  return std::make_pair(id, frame.data.get());
}

Status BufferPool::UnpinPage(PageId id, bool dirty) {
  std::lock_guard<std::mutex> guard(mutex_);
  auto it = page_table_.find(id);
  if (it == page_table_.end()) {
    return Status::NotFound("page " + std::to_string(id) +
                            " is not resident");
  }
  Frame& frame = frames_[it->second];
  if (frame.pin_count <= 0) {
    return Status::FailedPrecondition("page " + std::to_string(id) +
                                      " is not pinned");
  }
  --frame.pin_count;
  frame.dirty = frame.dirty || dirty;
  if (tracking_ && dirty) tracked_.insert(id);
  return Status::OK();
}

Status BufferPool::FlushAll() {
  std::lock_guard<std::mutex> guard(mutex_);
  for (Frame& frame : frames_) {
    if (frame.id == kInvalidPageId || !frame.dirty) continue;
    GENALG_RETURN_IF_ERROR(disk_->WritePage(frame.id, frame.data.get()));
    frame.dirty = false;
  }
  return Status::OK();
}

Status BufferPool::BeginTracking() {
  std::lock_guard<std::mutex> guard(mutex_);
  if (tracking_) {
    return Status::FailedPrecondition("already tracking a transaction");
  }
  tracking_ = true;
  tracked_.clear();
  return Status::OK();
}

std::vector<PageId> BufferPool::TrackedDirtyPages() const {
  std::lock_guard<std::mutex> guard(mutex_);
  return std::vector<PageId>(tracked_.begin(), tracked_.end());
}

void BufferPool::EndTracking() {
  std::lock_guard<std::mutex> guard(mutex_);
  tracking_ = false;
  tracked_.clear();
}

Status BufferPool::DiscardTracked() {
  std::lock_guard<std::mutex> guard(mutex_);
  for (PageId id : tracked_) {
    auto it = page_table_.find(id);
    if (it == page_table_.end()) continue;  // Already discarded.
    Frame& frame = frames_[it->second];
    if (frame.pin_count > 0) {
      return Status::FailedPrecondition(
          "cannot discard pinned page " + std::to_string(id));
    }
    frame.id = kInvalidPageId;
    frame.dirty = false;
    free_.push(it->second);
    page_table_.erase(it);
  }
  tracked_.clear();
  tracking_ = false;
  return Status::OK();
}

// -------------------------------------------------------------- HeapFile.

Result<HeapFile> HeapFile::Create(BufferPool* pool) {
  GENALG_ASSIGN_OR_RETURN(auto page, pool->NewPage());
  SlottedPage(page.second).Init();
  GENALG_RETURN_IF_ERROR(pool->UnpinPage(page.first, /*dirty=*/true));
  return HeapFile(pool, page.first);
}

Result<HeapFile> HeapFile::Attach(BufferPool* pool, PageId first_page) {
  HeapFile heap(pool, first_page);
  PageId current = first_page;
  while (true) {
    GENALG_ASSIGN_OR_RETURN(uint8_t* frame, pool->FetchPage(current));
    PageId next = SlottedPage(frame).next_page();
    GENALG_RETURN_IF_ERROR(pool->UnpinPage(current, /*dirty=*/false));
    if (next == kInvalidPageId) break;
    current = next;
  }
  heap.last_page_ = current;
  return heap;
}

Result<RecordId> HeapFile::Insert(const std::vector<uint8_t>& record) {
  // Try the last page first; chain a new page if it is full.
  GENALG_ASSIGN_OR_RETURN(uint8_t* frame, pool_->FetchPage(last_page_));
  SlottedPage page(frame);
  auto slot = page.Insert(record.data(), record.size());
  if (slot.ok()) {
    GENALG_RETURN_IF_ERROR(pool_->UnpinPage(last_page_, /*dirty=*/true));
    return RecordId{last_page_, *slot};
  }
  if (!slot.status().IsResourceExhausted()) {
    (void)pool_->UnpinPage(last_page_, /*dirty=*/false);
    return slot.status();
  }
  auto new_page = pool_->NewPage();
  if (!new_page.ok()) {
    (void)pool_->UnpinPage(last_page_, /*dirty=*/false);
    return new_page.status();
  }
  SlottedPage fresh(new_page->second);
  fresh.Init();
  page.set_next_page(new_page->first);
  GENALG_RETURN_IF_ERROR(pool_->UnpinPage(last_page_, /*dirty=*/true));
  last_page_ = new_page->first;
  auto fresh_slot = fresh.Insert(record.data(), record.size());
  Status unpin = pool_->UnpinPage(last_page_, /*dirty=*/true);
  if (!fresh_slot.ok()) return fresh_slot.status();
  GENALG_RETURN_IF_ERROR(unpin);
  return RecordId{last_page_, *fresh_slot};
}

Result<std::vector<uint8_t>> HeapFile::Get(RecordId id) const {
  GENALG_ASSIGN_OR_RETURN(uint8_t* frame, pool_->FetchPage(id.page));
  SlottedPage page(frame);
  auto record = page.Get(id.slot);
  if (!record.ok()) {
    (void)pool_->UnpinPage(id.page, /*dirty=*/false);
    return record.status();
  }
  std::vector<uint8_t> out(record->first, record->first + record->second);
  GENALG_RETURN_IF_ERROR(pool_->UnpinPage(id.page, /*dirty=*/false));
  return out;
}

Status HeapFile::Delete(RecordId id) {
  GENALG_ASSIGN_OR_RETURN(uint8_t* frame, pool_->FetchPage(id.page));
  SlottedPage page(frame);
  Status s = page.Delete(id.slot);
  GENALG_RETURN_IF_ERROR(pool_->UnpinPage(id.page, s.ok()));
  return s;
}

Result<RecordId> HeapFile::Update(RecordId id,
                                  const std::vector<uint8_t>& record) {
  GENALG_RETURN_IF_ERROR(Delete(id));
  return Insert(record);
}

Status HeapFile::Scan(
    const std::function<Status(RecordId, const uint8_t*, size_t)>& fn)
    const {
  PageId current = first_page_;
  while (current != kInvalidPageId) {
    GENALG_ASSIGN_OR_RETURN(uint8_t* frame, pool_->FetchPage(current));
    SlottedPage page(frame);
    PageId next = page.next_page();
    for (uint16_t slot = 0; slot < page.slot_count(); ++slot) {
      auto record = page.Get(slot);
      if (!record.ok()) continue;  // Tombstone.
      Status s = fn(RecordId{current, slot}, record->first, record->second);
      if (!s.ok()) {
        (void)pool_->UnpinPage(current, /*dirty=*/false);
        return s;
      }
    }
    GENALG_RETURN_IF_ERROR(pool_->UnpinPage(current, /*dirty=*/false));
    current = next;
  }
  return Status::OK();
}

Result<size_t> HeapFile::Count() const {
  size_t count = 0;
  GENALG_RETURN_IF_ERROR(
      Scan([&count](RecordId, const uint8_t*, size_t) -> Status {
        ++count;
        return Status::OK();
      }));
  return count;
}

}  // namespace genalg::udb
