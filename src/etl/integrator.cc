#include "etl/integrator.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <set>

#include "align/aligner.h"
#include "index/kmer_index.h"
#include "obs/metrics.h"

namespace genalg::etl {

using formats::SequenceRecord;

namespace {

// Disjoint-set forest for entity merging.
class UnionFind {
 public:
  explicit UnionFind(size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  size_t Find(size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Union(size_t a, size_t b) { parent_[Find(a)] = Find(b); }

 private:
  std::vector<size_t> parent_;
};

// Merges record `from` into entry: union of features (by id), attributes,
// provenance; the canonical sequence stays.
void MergeMetadata(ReconciledEntry* entry, const SequenceRecord& from) {
  std::set<std::string> feature_ids;
  for (const auto& f : entry->canonical.features) feature_ids.insert(f.id);
  for (const auto& f : from.features) {
    if (feature_ids.insert(f.id).second) {
      entry->canonical.features.push_back(f);
    }
  }
  for (const auto& [key, value] : from.attributes) {
    entry->canonical.attributes.emplace(key, value);
  }
  if (entry->canonical.description.empty()) {
    entry->canonical.description = from.description;
  }
  if (entry->canonical.organism.empty()) {
    entry->canonical.organism = from.organism;
  }
  entry->canonical.version =
      std::max(entry->canonical.version, from.version);
  if (!from.source_db.empty() &&
      std::find(entry->provenance.begin(), entry->provenance.end(),
                from.source_db) == entry->provenance.end()) {
    entry->provenance.push_back(from.source_db);
  }
}

}  // namespace

Result<std::vector<ReconciledEntry>> Integrator::Reconcile(
    std::vector<SequenceRecord> incoming) const {
  // ---------------------------------------- Stage 1: by accession.
  std::map<std::string, std::vector<SequenceRecord>> by_accession;
  for (SequenceRecord& record : incoming) {
    by_accession[record.accession].push_back(std::move(record));
  }
  std::vector<ReconciledEntry> entries;
  for (auto& [accession, group] : by_accession) {
    // Cluster the group's distinct sequences.
    ReconciledEntry entry;
    // Pick the canonical: highest version, then longest sequence.
    size_t best = 0;
    for (size_t i = 1; i < group.size(); ++i) {
      if (group[i].version > group[best].version ||
          (group[i].version == group[best].version &&
           group[i].sequence.size() > group[best].sequence.size())) {
        best = i;
      }
    }
    entry.canonical = group[best];
    entry.provenance.clear();
    if (!entry.canonical.source_db.empty()) {
      entry.provenance.push_back(entry.canonical.source_db);
    }
    std::set<std::string> variants;
    variants.insert(entry.canonical.sequence.ToString());
    for (size_t i = 0; i < group.size(); ++i) {
      if (i == best) continue;
      if (group[i].sequence == entry.canonical.sequence) {
        MergeMetadata(&entry, group[i]);
      } else {
        // A genuine conflict: keep the alternative (C9).
        if (variants.insert(group[i].sequence.ToString()).second) {
          obs::Registry::Global()
              .GetCounter("etl.conflicts_reconciled")
              ->Increment();
          entry.alternates.push_back(group[i]);
        }
        if (!group[i].source_db.empty() &&
            std::find(entry.provenance.begin(), entry.provenance.end(),
                      group[i].source_db) == entry.provenance.end()) {
          entry.provenance.push_back(group[i].source_db);
        }
      }
    }
    entry.confidence = 1.0 / static_cast<double>(variants.size());
    entries.push_back(std::move(entry));
  }

  // ------------------------------ Stage 2: by content (similarity).
  if (options_.content_matching && entries.size() > 1) {
    ThreadPool* pool =
        options_.pool != nullptr ? options_.pool : ThreadPool::Global();
    std::vector<seq::NucleotideSequence> corpus;
    corpus.reserve(entries.size());
    for (const ReconciledEntry& e : entries) {
      corpus.push_back(e.canonical.sequence);
    }
    GENALG_ASSIGN_OR_RETURN(
        index::KmerIndex kmer_index,
        index::KmerIndex::Build(corpus, options_.kmer_k));
    // Seeding: rank candidate partners for every entry over the pool
    // (concurrent const reads of the index need no locking). Requiring
    // a meaningful number of shared seeds keeps extension rare.
    std::vector<std::vector<index::KmerIndex::Candidate>> seeded(
        entries.size());
    pool->ParallelFor(0, entries.size(), 1, [&](size_t lo, size_t hi) {
      for (size_t i = lo; i < hi; ++i) {
        seeded[i] = kmer_index.FindCandidates(corpus[i], 4);
      }
    });
    // Extend-and-verify every seeded pair in one batch, then merge. The
    // connected components, and so the merged entries, do not depend on
    // the order in which the pairs are merged.
    std::vector<std::pair<const seq::NucleotideSequence*,
                          const seq::NucleotideSequence*>>
        pairs;
    std::vector<std::pair<size_t, size_t>> pair_ids;
    for (size_t i = 0; i < entries.size(); ++i) {
      for (const auto& candidate : seeded[i]) {
        size_t j = candidate.doc;
        if (j <= i) continue;  // Each pair once.
        pairs.emplace_back(&corpus[i], &corpus[j]);
        pair_ids.emplace_back(i, j);
      }
    }
    GENALG_ASSIGN_OR_RETURN(
        std::vector<align::SimilarityVerdict> verdicts,
        align::BatchResembles(pairs, options_.min_identity,
                              options_.min_overlap, pool));
    UnionFind clusters(entries.size());
    for (size_t p = 0; p < pair_ids.size(); ++p) {
      if (verdicts[p].hit) clusters.Union(pair_ids[p].first,
                                          pair_ids[p].second);
    }
    // Merge clusters under the smallest accession.
    std::map<size_t, std::vector<size_t>> groups;
    for (size_t i = 0; i < entries.size(); ++i) {
      groups[clusters.Find(i)].push_back(i);
    }
    std::vector<ReconciledEntry> merged;
    for (auto& [root, members] : groups) {
      // Canonical member: smallest accession.
      std::sort(members.begin(), members.end(), [&](size_t a, size_t b) {
        return entries[a].canonical.accession <
               entries[b].canonical.accession;
      });
      ReconciledEntry combined = std::move(entries[members[0]]);
      for (size_t m = 1; m < members.size(); ++m) {
        ReconciledEntry& other = entries[members[m]];
        // The other entity survives as a synonym + alternative.
        combined.canonical.attributes["also_known_as"] =
            combined.canonical.attributes.count("also_known_as")
                ? combined.canonical.attributes["also_known_as"] + "," +
                      other.canonical.accession
                : other.canonical.accession;
        obs::Registry::Global()
            .GetCounter("etl.conflicts_reconciled")
            ->Increment();
        combined.alternates.push_back(other.canonical);
        for (auto& alt : other.alternates) {
          combined.alternates.push_back(std::move(alt));
        }
        for (const std::string& src : other.provenance) {
          if (std::find(combined.provenance.begin(),
                        combined.provenance.end(),
                        src) == combined.provenance.end()) {
            combined.provenance.push_back(src);
          }
        }
        combined.confidence = std::min(combined.confidence,
                                       other.confidence);
      }
      merged.push_back(std::move(combined));
    }
    entries = std::move(merged);
  }

  std::sort(entries.begin(), entries.end(),
            [](const ReconciledEntry& a, const ReconciledEntry& b) {
              return a.canonical.accession < b.canonical.accession;
            });
  return entries;
}

}  // namespace genalg::etl
