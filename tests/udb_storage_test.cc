#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "base/rng.h"
#include "udb/btree.h"
#include "udb/datum.h"
#include "udb/page.h"
#include "udb/storage.h"

namespace genalg::udb {
namespace {

// ------------------------------------------------------------ SlottedPage.

TEST(SlottedPageTest, InsertGetDelete) {
  std::vector<uint8_t> buffer(kPageSize);
  SlottedPage page(buffer.data());
  page.Init();
  EXPECT_EQ(page.slot_count(), 0u);
  EXPECT_EQ(page.LiveRecords(), 0u);

  std::string a = "hello";
  std::string b = "world!";
  auto slot_a = page.Insert(reinterpret_cast<const uint8_t*>(a.data()),
                            a.size());
  auto slot_b = page.Insert(reinterpret_cast<const uint8_t*>(b.data()),
                            b.size());
  ASSERT_TRUE(slot_a.ok() && slot_b.ok());
  EXPECT_EQ(*slot_a, 0);
  EXPECT_EQ(*slot_b, 1);
  EXPECT_EQ(page.LiveRecords(), 2u);

  auto got = page.Get(*slot_b);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(got->first),
                        got->second),
            "world!");

  ASSERT_TRUE(page.Delete(*slot_a).ok());
  EXPECT_TRUE(page.Get(*slot_a).status().IsNotFound());
  EXPECT_EQ(page.LiveRecords(), 1u);
  EXPECT_TRUE(page.Get(99).status().IsNotFound());
  EXPECT_TRUE(page.Delete(99).IsNotFound());
}

TEST(SlottedPageTest, FillsUntilResourceExhausted) {
  std::vector<uint8_t> buffer(kPageSize);
  SlottedPage page(buffer.data());
  page.Init();
  std::vector<uint8_t> record(100, 0xAB);
  size_t inserted = 0;
  while (true) {
    auto slot = page.Insert(record.data(), record.size());
    if (!slot.ok()) {
      EXPECT_TRUE(slot.status().IsResourceExhausted());
      break;
    }
    ++inserted;
  }
  // 8192 bytes / (100 + 4 slot bytes) ~ 78 records.
  EXPECT_GT(inserted, 70u);
  EXPECT_LT(inserted, 82u);
  EXPECT_EQ(page.LiveRecords(), inserted);
}

TEST(SlottedPageTest, NextPageChain) {
  std::vector<uint8_t> buffer(kPageSize);
  SlottedPage page(buffer.data());
  page.Init();
  EXPECT_EQ(page.next_page(), kInvalidPageId);
  page.set_next_page(77);
  EXPECT_EQ(page.next_page(), 77u);
  page.set_next_page(0x12345);
  EXPECT_EQ(page.next_page(), 0x12345u);
}

// ----------------------------------------------------------- DiskManager.

TEST(DiskManagerTest, MemoryAllocateReadWrite) {
  MemoryDiskManager disk;
  auto p0 = disk.AllocatePage();
  auto p1 = disk.AllocatePage();
  ASSERT_TRUE(p0.ok() && p1.ok());
  EXPECT_EQ(*p0, 0u);
  EXPECT_EQ(*p1, 1u);
  std::vector<uint8_t> data(kPageSize, 0x5A);
  ASSERT_TRUE(disk.WritePage(*p1, data.data()).ok());
  std::vector<uint8_t> read(kPageSize);
  ASSERT_TRUE(disk.ReadPage(*p1, read.data()).ok());
  EXPECT_EQ(read, data);
  EXPECT_TRUE(disk.ReadPage(9, read.data()).IsOutOfRange());
  EXPECT_EQ(disk.PageCount(), 2u);
}

TEST(DiskManagerTest, FileBackedPersists) {
  std::string path = ::testing::TempDir() + "/genalg_disk_test.db";
  std::remove(path.c_str());
  {
    auto disk = FileDiskManager::Open(path);
    ASSERT_TRUE(disk.ok());
    auto page = (*disk)->AllocatePage();
    ASSERT_TRUE(page.ok());
    std::vector<uint8_t> data(kPageSize);
    for (size_t i = 0; i < kPageSize; ++i) data[i] = static_cast<uint8_t>(i);
    ASSERT_TRUE((*disk)->WritePage(*page, data.data()).ok());
  }
  {
    auto disk = FileDiskManager::Open(path);
    ASSERT_TRUE(disk.ok());
    EXPECT_EQ((*disk)->PageCount(), 1u);
    std::vector<uint8_t> read(kPageSize);
    ASSERT_TRUE((*disk)->ReadPage(0, read.data()).ok());
    for (size_t i = 0; i < kPageSize; ++i) {
      ASSERT_EQ(read[i], static_cast<uint8_t>(i));
    }
  }
  std::remove(path.c_str());
}

// ------------------------------------------------------------ BufferPool.

TEST(BufferPoolTest, FetchCachesAndCountsHits) {
  MemoryDiskManager disk;
  BufferPool pool(&disk, 4);
  auto page = pool.NewPage();
  ASSERT_TRUE(page.ok());
  ASSERT_TRUE(pool.UnpinPage(page->first, true).ok());
  // Two fetches: first may hit (still resident), count hits/misses sanely.
  auto f1 = pool.FetchPage(page->first);
  ASSERT_TRUE(f1.ok());
  ASSERT_TRUE(pool.UnpinPage(page->first, false).ok());
  auto f2 = pool.FetchPage(page->first);
  ASSERT_TRUE(f2.ok());
  ASSERT_TRUE(pool.UnpinPage(page->first, false).ok());
  EXPECT_GE(pool.hit_count(), 2u);
}

TEST(BufferPoolTest, EvictsAndWritesBackDirty) {
  MemoryDiskManager disk;
  BufferPool pool(&disk, 2);
  // Create three pages through a 2-frame pool.
  std::vector<PageId> ids;
  for (int i = 0; i < 3; ++i) {
    auto page = pool.NewPage();
    ASSERT_TRUE(page.ok());
    page->second[0] = static_cast<uint8_t>(i + 1);
    ids.push_back(page->first);
    ASSERT_TRUE(pool.UnpinPage(page->first, true).ok());
  }
  // All three pages must read back with their content despite eviction.
  for (int i = 0; i < 3; ++i) {
    auto frame = pool.FetchPage(ids[i]);
    ASSERT_TRUE(frame.ok());
    EXPECT_EQ((*frame)[0], static_cast<uint8_t>(i + 1));
    ASSERT_TRUE(pool.UnpinPage(ids[i], false).ok());
  }
}

TEST(BufferPoolTest, AllPinnedIsResourceExhausted) {
  MemoryDiskManager disk;
  BufferPool pool(&disk, 2);
  auto p1 = pool.NewPage();
  auto p2 = pool.NewPage();
  ASSERT_TRUE(p1.ok() && p2.ok());
  // Both frames pinned; a third page cannot be materialized, and the
  // attempt must not leave an orphan page in the store.
  const size_t pages = disk.PageCount();
  auto p3 = pool.NewPage();
  EXPECT_TRUE(p3.status().IsResourceExhausted());
  EXPECT_EQ(disk.PageCount(), pages);
  ASSERT_TRUE(pool.UnpinPage(p1->first, false).ok());
  EXPECT_TRUE(pool.NewPage().ok());
}

TEST(BufferPoolTest, UnpinValidation) {
  MemoryDiskManager disk;
  BufferPool pool(&disk, 2);
  EXPECT_TRUE(pool.UnpinPage(5, false).IsNotFound());
  auto page = pool.NewPage();
  ASSERT_TRUE(pool.UnpinPage(page->first, false).ok());
  EXPECT_TRUE(pool.UnpinPage(page->first, false).IsFailedPrecondition());
}

// A fetch whose read fails must not leave its victim frame behind under the
// old page id: evicting that stale frame later would unmap the live copy of
// the page, and the next fetch would return the disk image instead.
TEST(BufferPoolTest, FailedReadLeavesNoStaleFrame) {
  MemoryDiskManager disk;
  BufferPool pool(&disk, 3);
  for (int i = 0; i < 4; ++i) {
    auto page = pool.NewPage();
    ASSERT_TRUE(page.ok());
    page->second[0] = static_cast<uint8_t>(10 + i);
    ASSERT_TRUE(pool.UnpinPage(page->first, true).ok());
  }
  ASSERT_TRUE(pool.FlushAll().ok());
  ASSERT_TRUE(pool.BeginTracking().ok());
  auto page3 = pool.FetchPage(3);
  ASSERT_TRUE(page3.ok());
  (*page3)[0] = 99;
  ASSERT_TRUE(pool.UnpinPage(3, true).ok());
  EXPECT_TRUE(pool.FetchPage(1000).status().IsOutOfRange());
  ASSERT_TRUE(pool.DiscardTracked().ok());

  auto page1 = pool.FetchPage(1);
  ASSERT_TRUE(page1.ok());
  (*page1)[0] = 77;
  ASSERT_TRUE(pool.UnpinPage(1, true).ok());
  auto page0 = pool.FetchPage(0);
  ASSERT_TRUE(page0.ok());
  EXPECT_EQ((*page0)[0], 10);
  ASSERT_TRUE(pool.UnpinPage(0, false).ok());
  auto again = pool.FetchPage(1);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ((*again)[0], 77);
  ASSERT_TRUE(pool.UnpinPage(1, false).ok());
}

// This process's resident set in KiB, or -1 without /proc.
long ResidentKib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) return std::stol(line.substr(6));
  }
  return -1;
}

TEST(BufferPoolTest, UntouchedFramesCostNoMemory) {
  MemoryDiskManager disk;
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(disk.AllocatePage().ok());
  const long before = ResidentKib();
  if (before < 0) GTEST_SKIP() << "VmRSS is not readable here";
  // 4096 frames would be 32 MiB if every frame owned its bytes up front.
  BufferPool pool(&disk, 4096);
  for (PageId id = 0; id < 8; ++id) {
    ASSERT_TRUE(pool.FetchPage(id).ok());
    ASSERT_TRUE(pool.UnpinPage(id, false).ok());
  }
  EXPECT_LT(ResidentKib() - before, 8 * 1024);
}

// Seeded random operation sequences checked against a map model of page
// images. Every fetched byte matches the model; an abort restores the
// pre-transaction images; ResourceExhausted comes only when every frame is
// pinned or holds a page the open transaction dirtied. As in Database,
// transaction boundaries come with no page pinned, BeginTracking follows a
// FlushAll, and FlushAll never runs inside a transaction.
TEST(BufferPoolTest, MatchesPageImageModel) {
  using Image = std::vector<uint8_t>;
  struct Pin {
    PageId id;
    uint8_t* frame;
    bool wrote;
  };
  const Image zeros(kPageSize, 0);
  for (size_t capacity = 2; capacity <= 5; ++capacity) {
    for (uint64_t seed = 1; seed <= 25; ++seed) {
      SCOPED_TRACE("capacity " + std::to_string(capacity) + ", seed " +
                   std::to_string(seed));
      Rng rng(seed * 10 + capacity);
      MemoryDiskManager disk;
      BufferPool pool(&disk, capacity);
      std::map<PageId, Image> model;   // What a fetch must return.
      std::map<PageId, Image> before;  // The images at BeginTracking.
      std::set<PageId> tracked;        // Dirtied by the open transaction.
      std::vector<Pin> pins;
      auto exhausted_allowed = [&] {
        std::set<PageId> held = tracked;
        for (const Pin& pin : pins) held.insert(pin.id);
        return held.size() >= capacity;
      };
      auto unpin = [&](size_t i) {
        const bool dirty = pins[i].wrote || rng.Uniform(4) == 0;
        EXPECT_TRUE(pool.UnpinPage(pins[i].id, dirty).ok());
        if (dirty && pool.tracking()) tracked.insert(pins[i].id);
        pins.erase(pins.begin() + static_cast<long>(i));
      };
      auto unpin_all = [&] {
        while (!pins.empty()) unpin(pins.size() - 1);
      };
      auto check_tracked = [&] {
        std::vector<PageId> expected(tracked.begin(), tracked.end());
        EXPECT_EQ(pool.TrackedDirtyPages(), expected);
      };
      for (int step = 0; step < 300 && !HasFailure(); ++step) {
        const uint64_t op = rng.Uniform(100);
        if (op < 12) {
          if (disk.PageCount() >= 12) continue;
          const size_t pages = disk.PageCount();
          auto page = pool.NewPage();
          if (!page.ok()) {
            EXPECT_TRUE(page.status().IsResourceExhausted());
            EXPECT_TRUE(exhausted_allowed());
            EXPECT_EQ(disk.PageCount(), pages);
            continue;
          }
          EXPECT_EQ(std::memcmp(page->second, zeros.data(), kPageSize), 0);
          model[page->first] = zeros;
          if (pool.tracking()) tracked.insert(page->first);
          pins.push_back({page->first, page->second, false});
        } else if (op < 45) {
          // Ids past the store's end do not exist.
          const PageId id = static_cast<PageId>(
              rng.Uniform(8) == 0 ? 1000 : rng.Uniform(disk.PageCount() + 2));
          auto frame = pool.FetchPage(id);
          if (!frame.ok()) {
            if (frame.status().IsResourceExhausted()) {
              EXPECT_TRUE(exhausted_allowed());
            } else {
              EXPECT_TRUE(frame.status().IsOutOfRange());
              EXPECT_EQ(model.count(id), 0u);
            }
            continue;
          }
          ASSERT_EQ(model.count(id), 1u);
          EXPECT_EQ(std::memcmp(*frame, model[id].data(), kPageSize), 0);
          pins.push_back({id, *frame, false});
        } else if (op < 70) {
          if (!pins.empty()) unpin(rng.Uniform(pins.size()));
        } else if (op < 90) {
          if (pins.empty()) continue;
          Pin& pin = pins[rng.Uniform(pins.size())];
          const size_t offset = rng.Uniform(kPageSize);
          const uint8_t value = static_cast<uint8_t>(rng.Next());
          pin.frame[offset] = value;
          model[pin.id][offset] = value;
          pin.wrote = true;
        } else if (op < 95) {
          unpin_all();
          if (!pool.tracking()) {
            ASSERT_TRUE(pool.FlushAll().ok());
            ASSERT_TRUE(pool.BeginTracking().ok());
            before = model;
          } else if (rng.Uniform(2) == 0) {
            check_tracked();
            pool.EndTracking();
          } else {
            check_tracked();
            ASSERT_TRUE(pool.DiscardTracked().ok());
            // Pages the transaction allocated stay allocated, zeroed.
            for (auto& [id, image] : model) {
              image = before.count(id) != 0 ? before[id] : zeros;
            }
          }
          tracked.clear();
        } else if (!pool.tracking()) {
          ASSERT_TRUE(pool.FlushAll().ok());
        }
      }
      // Whatever stays committed reaches the store intact.
      unpin_all();
      if (pool.tracking()) pool.EndTracking();
      ASSERT_TRUE(pool.FlushAll().ok());
      ASSERT_EQ(disk.PageCount(), model.size());
      Image stored(kPageSize);
      for (const auto& [id, image] : model) {
        ASSERT_TRUE(disk.ReadPage(id, stored.data()).ok());
        EXPECT_TRUE(stored == image) << "page " << id;
      }
    }
  }
}

// -------------------------------------------------------------- HeapFile.

TEST(HeapFileTest, InsertGetDeleteUpdate) {
  MemoryDiskManager disk;
  BufferPool pool(&disk, 16);
  auto heap = HeapFile::Create(&pool);
  ASSERT_TRUE(heap.ok());
  std::vector<uint8_t> rec1 = {1, 2, 3};
  std::vector<uint8_t> rec2 = {9, 9};
  auto id1 = heap->Insert(rec1);
  auto id2 = heap->Insert(rec2);
  ASSERT_TRUE(id1.ok() && id2.ok());
  EXPECT_EQ(heap->Get(*id1).value(), rec1);
  EXPECT_EQ(heap->Get(*id2).value(), rec2);
  EXPECT_EQ(heap->Count().value(), 2u);

  ASSERT_TRUE(heap->Delete(*id1).ok());
  EXPECT_TRUE(heap->Get(*id1).status().IsNotFound());
  EXPECT_EQ(heap->Count().value(), 1u);

  std::vector<uint8_t> rec3 = {7, 7, 7, 7};
  auto id3 = heap->Update(*id2, rec3);
  ASSERT_TRUE(id3.ok());
  EXPECT_EQ(heap->Get(*id3).value(), rec3);
}

TEST(HeapFileTest, GrowsAcrossPagesAndScansInOrder) {
  MemoryDiskManager disk;
  BufferPool pool(&disk, 8);
  auto heap = HeapFile::Create(&pool);
  ASSERT_TRUE(heap.ok());
  // 500 records x ~500 bytes: needs ~35 pages through an 8-frame pool.
  Rng rng(83);
  std::vector<std::vector<uint8_t>> records;
  for (int i = 0; i < 500; ++i) {
    std::vector<uint8_t> rec(400 + rng.Uniform(200));
    for (auto& byte : rec) byte = static_cast<uint8_t>(rng.Next());
    ASSERT_TRUE(heap->Insert(rec).ok());
    records.push_back(std::move(rec));
  }
  EXPECT_GT(disk.PageCount(), 20u);
  size_t idx = 0;
  ASSERT_TRUE(heap->Scan([&](RecordId, const uint8_t* data,
                             size_t size) -> Status {
                    EXPECT_EQ(std::vector<uint8_t>(data, data + size),
                              records[idx]);
                    ++idx;
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(idx, records.size());
}

TEST(HeapFileTest, ScanSkipsDeleted) {
  MemoryDiskManager disk;
  BufferPool pool(&disk, 8);
  auto heap = HeapFile::Create(&pool);
  std::vector<RecordId> ids;
  for (uint8_t i = 0; i < 10; ++i) {
    ids.push_back(heap->Insert({i}).value());
  }
  for (size_t i = 0; i < ids.size(); i += 2) {
    ASSERT_TRUE(heap->Delete(ids[i]).ok());
  }
  std::vector<uint8_t> seen;
  ASSERT_TRUE(heap->Scan([&](RecordId, const uint8_t* data,
                             size_t) -> Status {
                    seen.push_back(data[0]);
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(seen, (std::vector<uint8_t>{1, 3, 5, 7, 9}));
}

// ----------------------------------------------------------------- BTree.

TEST(BTreeTest, InsertFindSmall) {
  BTree tree(4);
  tree.Insert("b", {1, 0});
  tree.Insert("a", {2, 0});
  tree.Insert("c", {3, 0});
  EXPECT_EQ(tree.size(), 3u);
  auto hits = tree.Find("a");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].page, 2u);
  EXPECT_TRUE(tree.Find("zz").empty());
}

TEST(BTreeTest, DuplicateKeys) {
  BTree tree(4);
  for (uint32_t i = 0; i < 20; ++i) tree.Insert("dup", {i, 0});
  tree.Insert("aaa", {100, 0});
  tree.Insert("zzz", {200, 0});
  auto hits = tree.Find("dup");
  EXPECT_EQ(hits.size(), 20u);
  std::set<uint32_t> pages;
  for (RecordId rid : hits) pages.insert(rid.page);
  EXPECT_EQ(pages.size(), 20u);
}

TEST(BTreeTest, SplitsKeepAllKeysFindable) {
  BTree tree(4);  // Tiny fanout forces many splits.
  Rng rng(89);
  std::map<std::string, std::set<uint32_t>> truth;
  for (uint32_t i = 0; i < 2000; ++i) {
    std::string key = std::to_string(rng.Uniform(300));
    tree.Insert(key, {i, 0});
    truth[key].insert(i);
  }
  EXPECT_GT(tree.height(), 2u);
  for (const auto& [key, pages] : truth) {
    auto hits = tree.Find(key);
    std::set<uint32_t> got;
    for (RecordId rid : hits) got.insert(rid.page);
    EXPECT_EQ(got, pages) << key;
  }
}

TEST(BTreeTest, RangeQueries) {
  BTree tree(8);
  for (int i = 0; i < 100; ++i) {
    // Zero-padded keys sort numerically.
    char key[8];
    std::snprintf(key, sizeof(key), "%03d", i);
    tree.Insert(key, {static_cast<uint32_t>(i), 0});
  }
  auto hits = tree.Range("010", "019");
  EXPECT_EQ(hits.size(), 10u);
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].page, 10 + i);
  }
  EXPECT_EQ(tree.RangeFrom("095").size(), 5u);
  EXPECT_TRUE(tree.Range("zzz", "aaa").empty());
  EXPECT_EQ(tree.Range("000", "zzz").size(), 100u);
}

TEST(BTreeTest, RemoveIsExact) {
  BTree tree(4);
  for (uint32_t i = 0; i < 50; ++i) tree.Insert("k", {i, 0});
  EXPECT_TRUE(tree.Remove("k", {25, 0}));
  EXPECT_FALSE(tree.Remove("k", {25, 0}));  // Already gone.
  EXPECT_FALSE(tree.Remove("nope", {1, 0}));
  auto hits = tree.Find("k");
  EXPECT_EQ(hits.size(), 49u);
  for (RecordId rid : hits) EXPECT_NE(rid.page, 25u);
  EXPECT_EQ(tree.size(), 49u);
}

TEST(BTreeTest, OrderedIterationProperty) {
  BTree tree(6);
  Rng rng(97);
  std::multiset<std::string> keys;
  for (uint32_t i = 0; i < 3000; ++i) {
    std::string key = std::to_string(rng.Next() % 100000);
    tree.Insert(key, {i, 0});
    keys.insert(key);
  }
  // RangeFrom("") must return every record.
  EXPECT_EQ(tree.RangeFrom("").size(), keys.size());
}

// ----------------------------------------------------------------- Datum.

TEST(DatumTest, KindsAndAccessors) {
  EXPECT_TRUE(Datum().is_null());
  EXPECT_EQ(Datum::Int(5).AsInt().value(), 5);
  EXPECT_EQ(Datum::Real(2.5).AsReal().value(), 2.5);
  EXPECT_EQ(Datum::Bool(true).AsBool().value(), true);
  EXPECT_EQ(Datum::String("x").AsString().value(), "x");
  EXPECT_TRUE(Datum::Int(5).AsBool().status().IsInvalidArgument());
  EXPECT_EQ(Datum::Int(5).AsNumber().value(), 5.0);
  EXPECT_EQ(Datum::Real(1.5).AsNumber().value(), 1.5);
}

TEST(DatumTest, CompareSemantics) {
  EXPECT_EQ(Datum::Int(1).Compare(Datum::Int(2)).value(), -1);
  EXPECT_EQ(Datum::Int(2).Compare(Datum::Real(1.5)).value(), 1);
  EXPECT_EQ(Datum::String("a").Compare(Datum::String("b")).value(), -1);
  EXPECT_EQ(Datum::Null().Compare(Datum::Int(0)).value(), -1);
  EXPECT_EQ(Datum::Null().Compare(Datum::Null()).value(), 0);
  EXPECT_TRUE(
      Datum::Int(1).Compare(Datum::String("x")).status().IsInvalidArgument());
  auto udt_a = Datum::Udt("nucseq", {1, 2});
  auto udt_b = Datum::Udt("nucseq", {1, 3});
  EXPECT_EQ(udt_a.Compare(udt_b).value(), -1);
  EXPECT_EQ(udt_a.Compare(udt_a).value(), 0);
}

TEST(DatumTest, OrderKeyPreservesOrder) {
  Rng rng(101);
  for (int trial = 0; trial < 200; ++trial) {
    int64_t a = static_cast<int64_t>(rng.Next());
    int64_t b = static_cast<int64_t>(rng.Next());
    bool key_less = Datum::Int(a).OrderKey() < Datum::Int(b).OrderKey();
    EXPECT_EQ(key_less, a < b) << a << " vs " << b;

    double x = (rng.NextDouble() - 0.5) * 1e9;
    double y = (rng.NextDouble() - 0.5) * 1e9;
    bool real_key_less =
        Datum::Real(x).OrderKey() < Datum::Real(y).OrderKey();
    EXPECT_EQ(real_key_less, x < y) << x << " vs " << y;
  }
}

TEST(DatumTest, SerializeRoundTrip) {
  std::vector<Datum> values = {
      Datum::Null(),          Datum::Bool(true),
      Datum::Int(-42),        Datum::Real(3.75),
      Datum::String("hello"), Datum::Udt("gene", {1, 2, 3, 4}),
  };
  BytesWriter w;
  SerializeRow(values, &w);
  BytesReader r(w.data());
  auto back = DeserializeRow(&r);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, values);
}

TEST(DatumTest, ColumnTypeAccepts) {
  EXPECT_TRUE(ColumnType::Int().Accepts(Datum::Int(1)));
  EXPECT_TRUE(ColumnType::Int().Accepts(Datum::Null()));
  EXPECT_FALSE(ColumnType::Int().Accepts(Datum::String("x")));
  EXPECT_TRUE(ColumnType::Real().Accepts(Datum::Int(1)));  // Widening.
  EXPECT_FALSE(ColumnType::Bool().Accepts(Datum::Int(1)));
  EXPECT_TRUE(ColumnType::Udt("nucseq").Accepts(Datum::Udt("nucseq", {})));
  EXPECT_FALSE(ColumnType::Udt("nucseq").Accepts(Datum::Udt("gene", {})));
}

}  // namespace
}  // namespace genalg::udb
