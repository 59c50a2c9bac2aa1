#include "align/kernels.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "align/aligner.h"
#include "obs/metrics.h"

namespace genalg::align {

namespace {

// Cell counts are accumulated per kernel invocation (rows completed x
// width), not per cell, so the inner loops stay untouched.
struct KernelMetrics {
  obs::Counter* cells;
  obs::Counter* early_exits;
  obs::Counter* full_dp_fallbacks;
};

const KernelMetrics& Metrics() {
  static const KernelMetrics m = {
      obs::Registry::Global().GetCounter("align.kernel.cells"),
      obs::Registry::Global().GetCounter("align.kernel.early_exits"),
      obs::Registry::Global().GetCounter("align.kernel.full_dp_fallbacks"),
  };
  return m;
}

// Small enough that sentinel arithmetic (adding scores or gap costs to an
// unreachable cell) can never wrap.
constexpr int32_t kNegInf32 = std::numeric_limits<int32_t>::min() / 4;

Status CheckGapPenalties(const GapPenalties& gaps) {
  if (gaps.open > 0 || gaps.extend > 0) {
    return Status::InvalidArgument("gap penalties must be <= 0");
  }
  return Status::OK();
}

// Largest absolute cell magnitude the inputs could produce. The rolling
// kernels run on int32 cells; inputs long enough to overflow them fall
// back to the int64 full DP (practically unreachable: the full DP would
// need > 10^15 cells first).
bool FitsInt32(size_t n, size_t m, const ScoringProfile& profile,
               const GapPenalties& gaps) {
  int64_t per_step = std::max<int64_t>(
      {std::abs(static_cast<int64_t>(profile.max_pair_score())),
       std::abs(static_cast<int64_t>(profile.min_pair_score())),
       -static_cast<int64_t>(gaps.open) - gaps.extend, int64_t{1}});
  int64_t steps = static_cast<int64_t>(n) + static_cast<int64_t>(m) + 2;
  return steps * per_step < std::numeric_limits<int32_t>::max() / 4;
}

// Shared rolling-row core for the local kernels.
//
// Rows run over `ra` (outer), columns over `rb` (inner); callers order the
// operands so the inner sequence is the shorter one. Cell layout per
// column j of the previous row: row_m[j] = M, row_x[j] = X (gap in the
// inner sequence), row_best[j] = max(M, X, Y). Y (gap in the outer
// sequence) only ever feeds from the current row's left neighbour, so it
// lives in a scalar. This reproduces LocalAlign's recurrence exactly:
//   M[i][j] = max(0, max(M, X, Y)[i-1][j-1] + s)
//   X[i][j] = max(M[i-1][j] + open + extend, X[i-1][j] + extend)
//   Y[i][j] = max(M[i][j-1] + open + extend, Y[i][j-1] + extend)
// with the local best tracked over M cells only, as in the full DP.
//
// With `threshold` non-null the fill may stop early: once the running
// best reaches the threshold the answer is known true; once
// max(row cells) plus the largest score the remaining rows could add
// falls below it, the answer is known false. `*reached` receives the
// verdict; the returned score is then only a lower bound of the true
// best and callers must not use it.
int32_t LocalScoreCore(const ScoringProfile& profile,
                       const std::vector<uint8_t>& ra,
                       const std::vector<uint8_t>& rb,
                       const GapPenalties& gaps, AlignScratch* scratch,
                       const int64_t* threshold, bool* reached) {
  const size_t rows = ra.size();
  const size_t cols = rb.size();
  const int32_t oe = gaps.open + gaps.extend;
  const int32_t ext = gaps.extend;
  const int32_t pos_gain = std::max(profile.max_pair_score(), 0);
  std::vector<int32_t>& rm = scratch->row_m;
  std::vector<int32_t>& rx = scratch->row_x;
  std::vector<int32_t>& rbest = scratch->row_best;
  rm.assign(cols + 1, 0);
  rx.assign(cols + 1, kNegInf32);
  rbest.assign(cols + 1, 0);
  int32_t best = 0;
  for (size_t i = 1; i <= rows; ++i) {
    const int32_t* score_row = profile.Row(ra[i - 1]);
    int32_t m_left = 0;             // M[i][0] (local boundary).
    int32_t y_left = kNegInf32;     // Y[i][0].
    int32_t best_diag = rbest[0];   // max(M, X, Y)[i-1][j-1] carrier.
    int32_t row_best = 0;
    for (size_t j = 1; j <= cols; ++j) {
      int32_t mv = best_diag + score_row[rb[j - 1]];
      if (mv < 0) mv = 0;
      int32_t xv = std::max(rm[j] + oe, rx[j] + ext);
      int32_t yv = std::max(m_left + oe, y_left + ext);
      int32_t bv = std::max(mv, std::max(xv, yv));
      best_diag = rbest[j];
      rm[j] = mv;
      rx[j] = xv;
      rbest[j] = bv;
      m_left = mv;
      y_left = yv;
      if (mv > best) best = mv;
      if (bv > row_best) row_best = bv;
    }
    if (threshold != nullptr) {
      if (best >= *threshold) {
        *reached = true;
        Metrics().cells->Add(i * cols);
        if (i < rows) Metrics().early_exits->Increment();
        return best;
      }
      // Any alignment not already counted either crosses this row —
      // scoring at most row_best so far — or starts below it; either way
      // the remaining rows add at most one residue-consuming column each,
      // each worth at most pos_gain (gap columns only subtract).
      int64_t ceiling = static_cast<int64_t>(std::max(row_best, 0)) +
                        static_cast<int64_t>(rows - i) * pos_gain;
      if (ceiling < *threshold) {
        *reached = false;
        Metrics().cells->Add(i * cols);
        if (i < rows) Metrics().early_exits->Increment();
        return best;
      }
    }
  }
  Metrics().cells->Add(rows * cols);
  if (reached != nullptr) {
    *reached = threshold != nullptr && best >= *threshold;
  }
  return best;
}

// Rolling-row core for the global kernel; same layout as LocalScoreCore
// with GlobalAlign's boundaries (leading gaps cost open + k*extend) and
// no zero clamp. Returns max(M, X, Y) at the (rows, cols) corner.
int32_t GlobalScoreCore(const ScoringProfile& profile,
                        const std::vector<uint8_t>& ra,
                        const std::vector<uint8_t>& rb,
                        const GapPenalties& gaps, AlignScratch* scratch) {
  const size_t rows = ra.size();
  const size_t cols = rb.size();
  const int32_t oe = gaps.open + gaps.extend;
  const int32_t ext = gaps.extend;
  std::vector<int32_t>& rm = scratch->row_m;
  std::vector<int32_t>& rx = scratch->row_x;
  std::vector<int32_t>& rbest = scratch->row_best;
  rm.assign(cols + 1, kNegInf32);
  rx.assign(cols + 1, kNegInf32);
  rbest.assign(cols + 1, kNegInf32);
  rm[0] = 0;
  rbest[0] = 0;
  for (size_t j = 1; j <= cols; ++j) {
    // Y[0][j]: the all-leading-gap prefix.
    rbest[j] = gaps.open + static_cast<int32_t>(j) * ext;
  }
  for (size_t i = 1; i <= rows; ++i) {
    const int32_t* score_row = profile.Row(ra[i - 1]);
    int32_t m_left = kNegInf32;     // M[i][0] is unreachable.
    int32_t y_left = kNegInf32;     // Y[i][0] is unreachable.
    int32_t best_diag = rbest[0];
    // X[i][0]: the all-leading-gap prefix in the other sequence.
    rbest[0] = gaps.open + static_cast<int32_t>(i) * ext;
    rm[0] = kNegInf32;
    for (size_t j = 1; j <= cols; ++j) {
      int32_t mv = best_diag + score_row[rb[j - 1]];
      int32_t xv = std::max(rm[j] + oe, rx[j] + ext);
      int32_t yv = std::max(m_left + oe, y_left + ext);
      int32_t bv = std::max(mv, std::max(xv, yv));
      best_diag = rbest[j];
      rm[j] = mv;
      rx[j] = xv;
      rbest[j] = bv;
      m_left = mv;
      y_left = yv;
    }
  }
  Metrics().cells->Add(rows * cols);
  return rbest[cols];
}

// One alignment column: length + 1, identities + `identical`.
constexpr uint64_t kColumn = uint64_t{1} << 32;

// `a` if `take_a`, else `b`, without a branch: which layer a cell's path
// comes from is data-dependent and mispredicts as a branch.
uint64_t Select(bool take_a, uint64_t a, uint64_t b) {
  return b ^ ((a ^ b) & (uint64_t{0} - static_cast<uint64_t>(take_a)));
}

// Forward twin of LocalAlign's traceback. Alongside each DP value a cell
// carries, packed as (length << 32 | identities), the statistics of the
// path TraceBack would walk from it. Each of TraceBack's choices depends
// only on values already known when the cell is filled:
//   - M > 0 extends its diagonal predecessor: the first of M, X, Y at
//     (i-1, j-1) equal to their max; M = 0 is where TraceBack stops, so
//     its path is empty;
//   - X (Y) extends X (Y) when extending ties or beats opening, else
//     opens from M;
//   - the end cell is the first M cell, row-major, strictly above the
//     best so far.
// Rows run over `a`, columns over `b`: the tie order is not symmetric,
// so the operands are never swapped. As in LocalScoreCore, the previous
// row lives in one array (here of StatsCell) and the current row's left
// neighbour in scalars.
AlignmentStats LocalStatsCore(const ScoringProfile& profile,
                              std::string_view a, std::string_view b,
                              const std::vector<uint8_t>& ca,
                              const std::vector<uint8_t>& cb,
                              const GapPenalties& gaps,
                              AlignScratch* scratch) {
  const size_t rows = a.size();
  const size_t cols = b.size();
  const int32_t oe = gaps.open + gaps.extend;
  const int32_t ext = gaps.extend;
  scratch->stats_row.assign(cols + 1, {0, kNegInf32, 0, 0, 0, 0});
  AlignScratch::StatsCell* row = scratch->stats_row.data();
  int32_t best = 0;
  uint64_t best_stats = 0;
  for (size_t i = 1; i <= rows; ++i) {
    const int32_t* score_row = profile.Row(ca[i - 1]);
    const char ai = a[i - 1];
    const uint64_t ai_residue = ai != '-';
    int32_t m_left = 0;
    int32_t y_left = kNegInf32;
    uint64_t m_left_stats = 0;
    uint64_t y_left_stats = 0;
    int32_t best_diag = row[0].best;
    uint64_t best_diag_stats = row[0].best_stats;
    for (size_t j = 1; j <= cols; ++j) {
      AlignScratch::StatsCell& cell = row[j];
      const int32_t raw = best_diag + score_row[cb[j - 1]];
      const int32_t mv = std::max(raw, 0);
      const uint64_t identical =
          static_cast<uint64_t>(ai == b[j - 1]) & ai_residue;
      const uint64_t mst =
          Select(raw > 0, best_diag_stats + kColumn + identical, 0);
      const int32_t x_ext = cell.x + ext;
      const int32_t xv = std::max(x_ext, cell.m + oe);
      const uint64_t xst =
          Select(x_ext == xv, cell.x_stats, cell.m_stats) + kColumn;
      const int32_t y_ext = y_left + ext;
      const int32_t yv = std::max(y_ext, m_left + oe);
      const uint64_t yst =
          Select(y_ext == yv, y_left_stats, m_left_stats) + kColumn;
      const int32_t bv = std::max(mv, std::max(xv, yv));
      best_diag = cell.best;
      best_diag_stats = cell.best_stats;
      cell.m = mv;
      cell.x = xv;
      cell.best = bv;
      cell.m_stats = mst;
      cell.x_stats = xst;
      cell.best_stats = Select(mv == bv, mst, Select(xv == bv, xst, yst));
      m_left = mv;
      y_left = yv;
      m_left_stats = mst;
      y_left_stats = yst;
      if (mv > best) {
        best = mv;
        best_stats = mst;
      }
    }
  }
  Metrics().cells->Add(rows * cols);
  AlignmentStats out;
  out.score = best;
  out.length = static_cast<size_t>(best_stats >> 32);
  out.identities = static_cast<size_t>(best_stats & 0xffffffffu);
  return out;
}

}  // namespace

ScoringProfile::ScoringProfile(const SubstitutionMatrix& scoring) {
  width_ = scoring.NumClasses();
  table_.resize(static_cast<size_t>(width_) * width_);
  for (int ca = 0; ca < width_; ++ca) {
    for (int cb = 0; cb < width_; ++cb) {
      table_[static_cast<size_t>(ca) * width_ + cb] =
          scoring.PairScore(static_cast<uint8_t>(ca),
                            static_cast<uint8_t>(cb));
    }
  }
  max_pair_ = *std::max_element(table_.begin(), table_.end());
  min_pair_ = *std::min_element(table_.begin(), table_.end());
  for (int c = 0; c < 256; ++c) {
    code_of_[c] = scoring.ClassOf(static_cast<char>(c));
  }
}

const ScoringProfile& ScoringProfile::NucleotideDefault() {
  static const ScoringProfile* profile =
      new ScoringProfile(SubstitutionMatrix::Nucleotide());
  return *profile;
}

void ScoringProfile::Encode(std::string_view s,
                            std::vector<uint8_t>* out) const {
  out->resize(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    (*out)[i] = code_of_[static_cast<unsigned char>(s[i])];
  }
}

Result<int64_t> LocalAlignScore(std::string_view a, std::string_view b,
                                const SubstitutionMatrix& scoring,
                                const GapPenalties& gaps,
                                AlignScratch* scratch) {
  GENALG_RETURN_IF_ERROR(CheckGapPenalties(gaps));
  if (a.empty() || b.empty()) return int64_t{0};
  AlignScratch local;
  if (scratch == nullptr) scratch = &local;
  ScoringProfile profile(scoring);
  if (!FitsInt32(a.size(), b.size(), profile, gaps)) {
    Metrics().full_dp_fallbacks->Increment();
    GENALG_ASSIGN_OR_RETURN(Alignment full,
                            LocalAlign(a, b, scoring, gaps));
    return full.score;
  }
  // Put the shorter operand on the inner (row) axis: local alignment is
  // symmetric under swapping, and the rows are what we keep in memory.
  std::string_view outer = a.size() >= b.size() ? a : b;
  std::string_view inner = a.size() >= b.size() ? b : a;
  profile.Encode(outer, &scratch->codes_a);
  profile.Encode(inner, &scratch->codes_b);
  return static_cast<int64_t>(LocalScoreCore(profile, scratch->codes_a,
                                             scratch->codes_b, gaps,
                                             scratch, nullptr, nullptr));
}

Result<int64_t> GlobalAlignScore(std::string_view a, std::string_view b,
                                 const SubstitutionMatrix& scoring,
                                 const GapPenalties& gaps,
                                 AlignScratch* scratch) {
  GENALG_RETURN_IF_ERROR(CheckGapPenalties(gaps));
  AlignScratch local;
  if (scratch == nullptr) scratch = &local;
  ScoringProfile profile(scoring);
  if (!FitsInt32(a.size(), b.size(), profile, gaps)) {
    Metrics().full_dp_fallbacks->Increment();
    GENALG_ASSIGN_OR_RETURN(Alignment full,
                            GlobalAlign(a, b, scoring, gaps));
    return full.score;
  }
  std::string_view outer = a.size() >= b.size() ? a : b;
  std::string_view inner = a.size() >= b.size() ? b : a;
  profile.Encode(outer, &scratch->codes_a);
  profile.Encode(inner, &scratch->codes_b);
  return static_cast<int64_t>(GlobalScoreCore(
      profile, scratch->codes_a, scratch->codes_b, gaps, scratch));
}

Result<AlignmentStats> LocalAlignStats(std::string_view a,
                                       std::string_view b,
                                       const SubstitutionMatrix& scoring,
                                       const GapPenalties& gaps,
                                       AlignScratch* scratch) {
  GENALG_RETURN_IF_ERROR(CheckGapPenalties(gaps));
  if (a.empty() || b.empty()) return AlignmentStats();
  AlignScratch local;
  if (scratch == nullptr) scratch = &local;
  ScoringProfile profile(scoring);
  if (!FitsInt32(a.size(), b.size(), profile, gaps)) {
    Metrics().full_dp_fallbacks->Increment();
    GENALG_ASSIGN_OR_RETURN(Alignment full,
                            LocalAlign(a, b, scoring, gaps, scratch));
    return AlignmentStats{full.score, full.Length(), full.Identities()};
  }
  profile.Encode(a, &scratch->codes_a);
  profile.Encode(b, &scratch->codes_b);
  return LocalStatsCore(profile, a, b, scratch->codes_a, scratch->codes_b,
                        gaps, scratch);
}

Result<bool> LocalScoreReaches(std::string_view a, std::string_view b,
                               const SubstitutionMatrix& scoring,
                               const GapPenalties& gaps, int64_t threshold,
                               AlignScratch* scratch) {
  GENALG_RETURN_IF_ERROR(CheckGapPenalties(gaps));
  if (threshold <= 0) return true;  // The empty alignment scores 0.
  if (a.empty() || b.empty()) return false;
  AlignScratch local;
  if (scratch == nullptr) scratch = &local;
  ScoringProfile profile(scoring);
  if (!FitsInt32(a.size(), b.size(), profile, gaps)) {
    Metrics().full_dp_fallbacks->Increment();
    GENALG_ASSIGN_OR_RETURN(Alignment full,
                            LocalAlign(a, b, scoring, gaps));
    return full.score >= threshold;
  }
  std::string_view outer = a.size() >= b.size() ? a : b;
  std::string_view inner = a.size() >= b.size() ? b : a;
  profile.Encode(outer, &scratch->codes_a);
  profile.Encode(inner, &scratch->codes_b);
  bool reached = false;
  LocalScoreCore(profile, scratch->codes_a, scratch->codes_b, gaps, scratch,
                 &threshold, &reached);
  return reached;
}

int64_t ResemblesScoreFloor(const ScoringProfile& profile,
                            const GapPenalties& gaps, double min_identity,
                            size_t min_overlap,
                            const std::vector<uint8_t>& codes_a,
                            const std::vector<uint8_t>& codes_b) {
  if (min_identity <= 0.0 || min_overlap == 0) return 0;
  const double theta = std::min(min_identity, 1.0);
  // Which residue classes occur in each input. An identity-match column
  // holds the same character on both sides, hence a class present in
  // both.
  uint32_t present_a = 0, present_b = 0;
  for (uint8_t c : codes_a) present_a |= 1u << c;
  for (uint8_t c : codes_b) present_b |= 1u << c;
  // Only the nucleotide alphabet (17 classes) fits a 32-bit presence set;
  // wider matrices skip the class analysis and use the global diagonal
  // minimum, which is weaker but still sound.
  int32_t min_self;
  if (profile.width() <= 32) {
    uint32_t shared = present_a & present_b;
    if (shared == 0) return std::numeric_limits<int64_t>::max();
    min_self = std::numeric_limits<int32_t>::max();
    for (int c = 0; c < profile.width(); ++c) {
      if (shared & (1u << c)) {
        min_self = std::min(min_self, profile.SelfScore(c));
      }
    }
  } else {
    min_self = std::numeric_limits<int32_t>::max();
    for (int c = 0; c < profile.width(); ++c) {
      min_self = std::min(min_self, profile.SelfScore(c));
    }
  }
  // A qualifying alignment of L >= min_overlap columns has at least
  // theta*L identity matches, each scoring >= min_self; every other
  // column costs at most `worst` (a substitution, or a gap column charged
  // its extension plus a full open). Hence score >= factor * L.
  const double worst = std::max(
      {0.0, -static_cast<double>(profile.min_pair_score()),
       -static_cast<double>(gaps.open) - static_cast<double>(gaps.extend)});
  const double factor = theta * min_self - (1.0 - theta) * worst;
  if (factor <= 0.0) return 0;
  // The small slack keeps floating-point rounding from ever pushing the
  // floor above what a genuinely qualifying alignment must score.
  return static_cast<int64_t>(
      std::ceil(factor * static_cast<double>(min_overlap) - 1e-6));
}

}  // namespace genalg::align
