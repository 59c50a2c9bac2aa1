#include "align/aligner.h"

#include <algorithm>
#include <limits>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace genalg::align {

namespace {

constexpr int64_t kNegInf = std::numeric_limits<int64_t>::min() / 4;

// Which matrix a traceback step came from.
enum class Layer : uint8_t { kM = 0, kX = 1, kY = 2, kStop = 3 };

// The three full DP layers, either self-owned or carved out of a caller's
// AlignScratch arena so batch drivers can recycle one allocation across
// many pairs.
struct Dp {
  size_t cols;
  int64_t* m;
  int64_t* x;
  int64_t* y;
  std::vector<int64_t> own;

  Dp(size_t rows, size_t columns, AlignScratch* scratch) : cols(columns) {
    const size_t cells = rows * columns;
    std::vector<int64_t>& store =
        scratch != nullptr ? scratch->full_dp : own;
    store.assign(cells * 3, kNegInf);
    m = store.data();
    x = store.data() + cells;
    y = store.data() + 2 * cells;
  }

  size_t Idx(size_t i, size_t j) const { return i * cols + j; }
};

Status CheckGaps(const GapPenalties& gaps) {
  if (gaps.open > 0 || gaps.extend > 0) {
    return Status::InvalidArgument("gap penalties must be <= 0");
  }
  return Status::OK();
}

// Reconstructs the gapped strings walking traceback decisions recomputed
// from the DP values (cheaper than storing per-cell directions for three
// layers).
Alignment TraceBack(const Dp& dp, std::string_view a, std::string_view b,
                    const SubstitutionMatrix& scoring,
                    const GapPenalties& gaps, size_t i, size_t j,
                    Layer layer, bool local) {
  Alignment out;
  out.end_a = i;
  out.end_b = j;
  std::string ra, rb;
  // An alignment ending at (i, j) has at most i + j columns.
  ra.reserve(i + j);
  rb.reserve(i + j);
  while (i > 0 || j > 0) {
    size_t idx = dp.Idx(i, j);
    if (layer == Layer::kM) {
      if (local && dp.m[idx] == 0) break;
      if (i == 0 || j == 0) break;
      int s = scoring.Score(a[i - 1], b[j - 1]);
      int64_t prev = dp.m[idx] - s;
      size_t pidx = dp.Idx(i - 1, j - 1);
      ra.push_back(a[i - 1]);
      rb.push_back(b[j - 1]);
      --i;
      --j;
      // Prefer kM so a local traceback stops at the first zero cell.
      if (dp.m[pidx] == prev) {
        layer = Layer::kM;
      } else if (dp.x[pidx] == prev) {
        layer = Layer::kX;
      } else {
        layer = Layer::kY;
      }
    } else if (layer == Layer::kX) {
      // Gap in b: a[i-1] over '-'.
      ra.push_back(a[i - 1]);
      rb.push_back('-');
      size_t pidx = dp.Idx(i - 1, j);
      int64_t value = dp.x[idx];
      --i;
      if (dp.x[pidx] + gaps.extend == value) {
        layer = Layer::kX;
      } else {
        layer = Layer::kM;
      }
    } else {  // kY: gap in a.
      ra.push_back('-');
      rb.push_back(b[j - 1]);
      size_t pidx = dp.Idx(i, j - 1);
      int64_t value = dp.y[idx];
      --j;
      if (dp.y[pidx] + gaps.extend == value) {
        layer = Layer::kY;
      } else {
        layer = Layer::kM;
      }
    }
  }
  out.begin_a = i;
  out.begin_b = j;
  std::reverse(ra.begin(), ra.end());
  std::reverse(rb.begin(), rb.end());
  out.aligned_a = std::move(ra);
  out.aligned_b = std::move(rb);
  return out;
}

}  // namespace

size_t Alignment::Identities() const {
  size_t same = 0;
  for (size_t i = 0; i < aligned_a.size(); ++i) {
    if (aligned_a[i] == aligned_b[i] && aligned_a[i] != '-') ++same;
  }
  return same;
}

double Alignment::Identity() const {
  return AlignmentStats{score, Length(), Identities()}.Identity();
}

Result<Alignment> GlobalAlign(std::string_view a, std::string_view b,
                              const SubstitutionMatrix& scoring,
                              const GapPenalties& gaps,
                              AlignScratch* scratch) {
  GENALG_RETURN_IF_ERROR(CheckGaps(gaps));
  const size_t n = a.size();
  const size_t m = b.size();
  Dp dp(n + 1, m + 1, scratch);
  dp.m[dp.Idx(0, 0)] = 0;
  for (size_t i = 1; i <= n; ++i) {
    dp.x[dp.Idx(i, 0)] =
        gaps.open + static_cast<int64_t>(i) * gaps.extend;
  }
  for (size_t j = 1; j <= m; ++j) {
    dp.y[dp.Idx(0, j)] =
        gaps.open + static_cast<int64_t>(j) * gaps.extend;
  }
  for (size_t i = 1; i <= n; ++i) {
    for (size_t j = 1; j <= m; ++j) {
      size_t idx = dp.Idx(i, j);
      size_t diag = dp.Idx(i - 1, j - 1);
      size_t up = dp.Idx(i - 1, j);
      size_t left = dp.Idx(i, j - 1);
      int s = scoring.Score(a[i - 1], b[j - 1]);
      dp.m[idx] = std::max({dp.m[diag], dp.x[diag], dp.y[diag]}) + s;
      dp.x[idx] = std::max(dp.m[up] + gaps.open + gaps.extend,
                           dp.x[up] + gaps.extend);
      dp.y[idx] = std::max(dp.m[left] + gaps.open + gaps.extend,
                           dp.y[left] + gaps.extend);
    }
  }
  size_t end = dp.Idx(n, m);
  int64_t best = std::max({dp.m[end], dp.x[end], dp.y[end]});
  Layer layer = best == dp.m[end]   ? Layer::kM
                : best == dp.x[end] ? Layer::kX
                                    : Layer::kY;
  Alignment out =
      TraceBack(dp, a, b, scoring, gaps, n, m, layer, /*local=*/false);
  out.score = best;
  out.begin_a = 0;
  out.begin_b = 0;
  out.end_a = n;
  out.end_b = m;
  return out;
}

Result<Alignment> LocalAlign(std::string_view a, std::string_view b,
                             const SubstitutionMatrix& scoring,
                             const GapPenalties& gaps,
                             AlignScratch* scratch) {
  GENALG_RETURN_IF_ERROR(CheckGaps(gaps));
  // Nothing can align against an empty input: skip the degenerate DP.
  if (a.empty() || b.empty()) return Alignment();
  const size_t n = a.size();
  const size_t m = b.size();
  Dp dp(n + 1, m + 1, scratch);
  for (size_t i = 0; i <= n; ++i) dp.m[dp.Idx(i, 0)] = 0;
  for (size_t j = 0; j <= m; ++j) dp.m[dp.Idx(0, j)] = 0;
  int64_t best = 0;
  size_t best_i = 0;
  size_t best_j = 0;
  for (size_t i = 1; i <= n; ++i) {
    for (size_t j = 1; j <= m; ++j) {
      size_t idx = dp.Idx(i, j);
      size_t diag = dp.Idx(i - 1, j - 1);
      size_t up = dp.Idx(i - 1, j);
      size_t left = dp.Idx(i, j - 1);
      int s = scoring.Score(a[i - 1], b[j - 1]);
      int64_t match =
          std::max({dp.m[diag], dp.x[diag], dp.y[diag]}) + s;
      dp.m[idx] = std::max<int64_t>(0, match);
      dp.x[idx] = std::max(dp.m[up] + gaps.open + gaps.extend,
                           dp.x[up] + gaps.extend);
      dp.y[idx] = std::max(dp.m[left] + gaps.open + gaps.extend,
                           dp.y[left] + gaps.extend);
      if (dp.m[idx] > best) {
        best = dp.m[idx];
        best_i = i;
        best_j = j;
      }
    }
  }
  if (best == 0) {
    Alignment empty;
    return empty;
  }
  Alignment out = TraceBack(dp, a, b, scoring, gaps, best_i, best_j,
                            Layer::kM, /*local=*/true);
  out.score = best;
  out.end_a = best_i;
  out.end_b = best_j;
  return out;
}

Result<Alignment> GlobalAlign(const seq::NucleotideSequence& a,
                              const seq::NucleotideSequence& b,
                              const GapPenalties& gaps) {
  return GlobalAlign(a.ToString(), b.ToString(),
                     SubstitutionMatrix::Nucleotide(), gaps);
}

Result<Alignment> LocalAlign(const seq::NucleotideSequence& a,
                             const seq::NucleotideSequence& b,
                             const GapPenalties& gaps) {
  return LocalAlign(a.ToString(), b.ToString(),
                    SubstitutionMatrix::Nucleotide(), gaps);
}

Result<Alignment> GlobalAlign(const seq::ProteinSequence& a,
                              const seq::ProteinSequence& b,
                              const GapPenalties& gaps) {
  return GlobalAlign(a.ToString(), b.ToString(),
                     SubstitutionMatrix::Blosum62(), gaps);
}

Result<Alignment> LocalAlign(const seq::ProteinSequence& a,
                             const seq::ProteinSequence& b,
                             const GapPenalties& gaps) {
  return LocalAlign(a.ToString(), b.ToString(),
                    SubstitutionMatrix::Blosum62(), gaps);
}

namespace {

// A pool of one: ParallelFor runs every chunk inline on its caller.
ThreadPool* CallingThread() {
  static ThreadPool* const pool = new ThreadPool(1);
  return pool;
}

}  // namespace

Result<std::vector<SimilarityVerdict>> BatchResembles(
    const std::vector<std::pair<const seq::NucleotideSequence*,
                                const seq::NucleotideSequence*>>& pairs,
    double min_identity, size_t min_overlap, ThreadPool* pool) {
  // Each distinct sequence decoded once, back to back; views into the
  // buffer are taken once it has stopped growing.
  std::string chars;
  std::unordered_map<const seq::NucleotideSequence*, size_t> offset;
  for (const auto& [a, b] : pairs) {
    for (const seq::NucleotideSequence* s : {a, b}) {
      if (offset.emplace(s, chars.size()).second) s->AppendTo(&chars);
    }
  }
  const auto view = [&](const seq::NucleotideSequence* s) {
    return std::string_view(chars).substr(offset[s], s->size());
  };
  std::vector<std::pair<std::string_view, std::string_view>> views;
  views.reserve(pairs.size());
  for (const auto& [a, b] : pairs) views.emplace_back(view(a), view(b));
  return ResemblesPairs(views, min_identity, min_overlap, pool);
}

Result<std::vector<bool>> ResemblesBlock(
    const seq::NucleotideSequence& b,
    const std::vector<const seq::NucleotideSequence*>& rows,
    double min_identity, size_t min_overlap) {
  std::vector<std::pair<const seq::NucleotideSequence*,
                        const seq::NucleotideSequence*>>
      pairs;
  pairs.reserve(rows.size());
  for (const seq::NucleotideSequence* row : rows) pairs.emplace_back(row, &b);
  GENALG_ASSIGN_OR_RETURN(
      std::vector<SimilarityVerdict> verdicts,
      BatchResembles(pairs, min_identity, min_overlap, CallingThread()));
  std::vector<bool> hits(verdicts.size());
  for (size_t k = 0; k < verdicts.size(); ++k) hits[k] = verdicts[k].hit;
  return hits;
}

Result<bool> Resembles(const seq::NucleotideSequence& a,
                       const seq::NucleotideSequence& b,
                       double min_identity, size_t min_overlap) {
  GENALG_ASSIGN_OR_RETURN(
      std::vector<SimilarityVerdict> verdict,
      BatchResembles({{&a, &b}}, min_identity, min_overlap, CallingThread()));
  return verdict[0].hit;
}

}  // namespace genalg::align
