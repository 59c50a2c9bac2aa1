#ifndef GENALG_UDB_BTREE_H_
#define GENALG_UDB_BTREE_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "udb/page.h"

namespace genalg::udb {

/// An in-memory B+-tree keyed by order-preserving byte strings
/// (Datum::OrderKey) with duplicate keys allowed, mapping to RecordIds.
/// Leaves are linked for range scans. This backs CREATE INDEX ... USING
/// BTREE; USING KMER is the Sec. 6.5 genomic index, index::KmerIndex,
/// which a table holds beside its B+-trees.
class BTree {
 public:
  explicit BTree(size_t fanout = 64);

  BTree(const BTree&) = delete;
  BTree& operator=(const BTree&) = delete;
  BTree(BTree&&) = default;
  BTree& operator=(BTree&&) = default;

  /// Inserts a (key, record) pair; duplicates are kept.
  void Insert(std::string_view key, RecordId rid);

  /// Removes one matching (key, record) pair; returns false if absent.
  bool Remove(std::string_view key, RecordId rid);

  /// All records with exactly this key.
  std::vector<RecordId> Find(std::string_view key) const;

  /// All records with lo <= key <= hi (both inclusive), in key order.
  std::vector<RecordId> Range(std::string_view lo, std::string_view hi) const;

  /// All records with key >= lo, in key order.
  std::vector<RecordId> RangeFrom(std::string_view lo) const;

  size_t size() const { return size_; }
  size_t height() const;

 private:
  struct Node {
    bool leaf = true;
    std::vector<std::string> keys;
    // Internal: children.size() == keys.size() + 1.
    std::vector<std::unique_ptr<Node>> children;
    // Leaf: parallel to keys.
    std::vector<RecordId> records;
    Node* next = nullptr;  // Leaf chain.
  };

  // Splits child `idx` of `parent` (which must be full).
  void SplitChild(Node* parent, size_t idx);
  void InsertNonFull(Node* node, std::string_view key, RecordId rid);
  const Node* FindLeaf(std::string_view key) const;

  size_t fanout_;
  std::unique_ptr<Node> root_;
  size_t size_ = 0;
};

}  // namespace genalg::udb

#endif  // GENALG_UDB_BTREE_H_
