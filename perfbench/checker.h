#ifndef PERFBENCH_CHECKER_H_
#define PERFBENCH_CHECKER_H_

// Exact answer checking for the benchmark. An answer is reduced to its
// canonical form — the column header plus each row in the storage row
// codec — so two answers are equal exactly when an in-process Execute and
// a served QueryAll would be bit-identical. Everything here is
// header-only so the negative-control test links nothing but udb.

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "base/bytes.h"
#include "udb/database.h"
#include "udb/datum.h"

namespace perfbench {

struct Answer {
  std::vector<std::string> columns;
  std::vector<std::string> rows;  // SerializeRow bytes, in result order.
};

inline std::string EncodeRow(const genalg::udb::Row& row) {
  genalg::BytesWriter writer;
  genalg::udb::SerializeRow(row, &writer);
  const auto& bytes = writer.data();
  return std::string(bytes.begin(), bytes.end());
}

inline Answer Canonical(const genalg::udb::QueryResult& result) {
  Answer answer;
  answer.columns = result.columns;
  answer.rows.reserve(result.rows.size());
  for (const auto& row : result.rows) answer.rows.push_back(EncodeRow(row));
  return answer;
}

/// FNV-1a over the whole canonical answer: the refresh workload keeps one
/// digest per served read instead of its rows.
inline uint64_t Digest(const Answer& answer) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](const std::string& s) {
    for (unsigned char c : s) {
      h ^= c;
      h *= 1099511628211ull;
    }
    h ^= 0xff;  // Field separator, so ("ab","c") != ("a","bc").
    h *= 1099511628211ull;
  };
  for (const auto& c : answer.columns) mix(c);
  h ^= answer.rows.size();
  for (const auto& r : answer.rows) mix(r);
  return h;
}

/// Row-for-row comparison. Returns "" when equal, else the first
/// difference.
inline std::string Diff(const Answer& want, const Answer& got) {
  if (want.columns != got.columns) return "column header differs";
  if (want.rows.size() != got.rows.size()) {
    return "row count " + std::to_string(got.rows.size()) + ", want " +
           std::to_string(want.rows.size());
  }
  for (size_t i = 0; i < want.rows.size(); ++i) {
    if (want.rows[i] != got.rows[i]) {
      return "row " + std::to_string(i) + " differs";
    }
  }
  return "";
}

/// Multiset comparison, for oracles whose row order is not the
/// executor's (a filtered table scan has physical order).
inline std::string DiffUnordered(Answer want, Answer got) {
  std::sort(want.rows.begin(), want.rows.end());
  std::sort(got.rows.begin(), got.rows.end());
  return Diff(want, got);
}

/// The refresh workload's rule: a read whose send/reply interval allows
/// rounds [lo, hi] must equal the answer after one of those rounds.
/// `versions[k]` is the digest of the answer after round k.
inline std::string CheckEpoch(const std::vector<uint64_t>& versions,
                              size_t lo, size_t hi, uint64_t got) {
  for (size_t k = lo; k <= hi && k < versions.size(); ++k) {
    if (versions[k] == got) return "";
  }
  return "answer matches no round in [" + std::to_string(lo) + ", " +
         std::to_string(hi) + "]";
}

/// Feeds the checker three perturbed answers built from a real one and
/// returns how many it flagged (3 when the checker works):
///  1. `want` with its last row dropped;
///  2. `want` with one byte of its first row altered;
///  3. the answer of round `stale` for a read whose window [lo, hi]
///     excludes it (versions[stale] must differ from every in-window
///     version).
/// `want` must have at least one row.
inline int NegativeControl(const Answer& want,
                           const std::vector<uint64_t>& versions,
                           size_t lo, size_t hi, size_t stale) {
  int flagged = 0;
  Answer dropped = want;
  dropped.rows.pop_back();
  if (!Diff(want, dropped).empty()) ++flagged;

  Answer altered = want;
  altered.rows.front().back() ^= 0x01;
  if (!Diff(want, altered).empty()) ++flagged;

  if (!CheckEpoch(versions, lo, hi, versions[stale]).empty()) ++flagged;
  return flagged;
}

}  // namespace perfbench

#endif  // PERFBENCH_CHECKER_H_
