#include "align/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstring>
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

// LocalAlignStats on the scalar path, for inputs already encoded into
// scratch->codes_a (a) and scratch->codes_b (b); past the int32 bound the
// int64 full DP traces the alignment back instead.
Result<AlignmentStats> ScalarStats(const ScoringProfile& profile,
                                   const SubstitutionMatrix& scoring,
                                   std::string_view a, std::string_view b,
                                   const GapPenalties& gaps,
                                   AlignScratch* scratch) {
  if (!FitsInt32(a.size(), b.size(), profile, gaps)) {
    Metrics().full_dp_fallbacks->Increment();
    GENALG_ASSIGN_OR_RETURN(Alignment full,
                            LocalAlign(a, b, scoring, gaps, scratch));
    return AlignmentStats{full.score, full.Length(), full.Identities()};
  }
  return LocalStatsCore(profile, a, b, scratch->codes_a, scratch->codes_b,
                        gaps, scratch);
}

// ------------------------------------------------------------ Lane kernel.
//
// LocalStatsCore for up to 8, 16 or 32 rows at once: lane l of every vector
// runs row a_l against the shared columns of b, so each lane keeps the
// scalar kernel's row-major tie order exactly. The cells are int16: the
// M, X and best(M, X, Y) scores, and for each of those three paths its
// length and identity count in lanes of their own, chosen by the same
// selects as the scalar code. A lane whose row has ended keeps running on
// pad rows that score kNegInf16 against every column and never match, so
// its M cells are 0 from then on and its best cell never moves.
//
// Per-row set-up, as SWIPE interleaves its database sequences: the pass's
// rows are transposed, kPlaneRows positions at a time, into lane-major
// planes of class codes and raw characters, where a pad row holds the pad
// class (profile.width()) and '-'. Each distinct character of b (a slot)
// has a kTableSize-entry table of its score against every row class,
// kNegInf16 for the pad class, and an identity key: its character, or -1
// for '-', which no character equals. A row's scores against a slot are
// then one shuffle of the slot's table by the row's code vector, and its
// identity flags one compare of its character vector with the slot's key.
//
// A-priori int16 bound: the kernel's cells stay in [kNegInf16 + extend,
// kLaneMax] when every row's best possible score (max_pair x
// min(|a|, |b|)) and |a| + |b| are at most kLaneMax, and the profile's
// worst substitution and gap open + extend are no worse than
// -kLanePenaltyMax. A pad row's diagonal is then kNegInf16 plus at most
// kLaneMax, always negative. Rows outside the bound, and every row of a
// profile whose classes and pad class overflow a table, take ScalarStats.

constexpr int32_t kLaneMax = 16000;
constexpr int32_t kLanePenaltyMax = 8192;
constexpr int16_t kNegInf16 = -16384;
constexpr size_t kTableSize = 32;
// Deep enough that the transposes cost little, shallow enough that the
// planes fit on the kernel's stack at any row length.
constexpr size_t kPlaneRows = 64;

bool ProfileFitsLanes(const ScoringProfile& profile,
                      const GapPenalties& gaps) {
  return static_cast<size_t>(profile.width()) < kTableSize &&
         profile.min_pair_score() >= -kLanePenaltyMax &&
         int64_t{gaps.open} + gaps.extend >= -kLanePenaltyMax;
}

bool RowFitsLanes(size_t n, size_t m, const ScoringProfile& profile) {
  const int64_t gain = std::max(profile.max_pair_score(), 0);
  return n + m <= static_cast<size_t>(kLaneMax) &&
         gain * static_cast<int64_t>(std::min(n, m)) <= kLaneMax;
}

typedef int16_t Lanes8 __attribute__((vector_size(16)));
typedef int16_t Lanes16 __attribute__((vector_size(32)));
typedef int16_t Lanes32 __attribute__((vector_size(64)));
constexpr size_t kMaxLanes = 32;

// Per column of b, the previous row's cells: M, X and best scores, then
// the length and identity count of each one's path.
enum LaneField { kM, kX, kBest, kMLen, kMId, kXLen, kXId, kBestLen,
                 kBestId, kLaneFields };

// One pass of the lane kernel: plain data only, so that no vector value
// crosses into a function compiled for another ISA.
struct LanePass {
  const ScoringProfile* profile;
  std::string_view b;
  const uint8_t* slot_of_column;  // Slot of each column of b.
  size_t slots;
  // Per slot, its kTableSize scores by row class, then its identity key.
  const int16_t* tables;
  const int16_t* keys;
  const std::string_view* rows;  // `count` rows, the longest last.
  size_t count;
  int16_t open_extend, extend;
  // kLaneFields * |b| vectors of cells, then per slot one vector of
  // scores and one of identity flags for the current row.
  int16_t* cells;
  AlignmentStats* out;
};

// Vectors move to and from the int16 storage only through these, as
// unaligned loads and stores; they take pointers, so no vector value is
// ever passed or returned.
template <typename V>
[[gnu::always_inline]] inline void LoadLanes(V* v, const int16_t* p) {
  std::memcpy(v, p, sizeof(V));
}
template <typename V>
[[gnu::always_inline]] inline void StoreLanes(int16_t* p, const V* v) {
  std::memcpy(p, v, sizeof(V));
}

// Transposes row positions [first, first + kPlaneRows) of the pass's rows
// into planes of `lanes` bytes per position, pad included.
void FillPlanes(const LanePass& pass, size_t lanes, size_t first,
                uint8_t* codes, uint8_t* chars) {
  std::memset(codes, pass.profile->width(), kPlaneRows * lanes);
  std::memset(chars, '-', kPlaneRows * lanes);
  for (size_t l = 0; l < pass.count; ++l) {
    const std::string_view row = pass.rows[l];
    for (size_t i = first; i < std::min(row.size(), first + kPlaneRows); ++i) {
      codes[(i - first) * lanes + l] = pass.profile->Code(row[i]);
      chars[(i - first) * lanes + l] = static_cast<uint8_t>(row[i]);
    }
  }
}

// One plane position, widened to int16 lanes.
template <typename V>
[[gnu::always_inline]] inline void WidenLanes(V* v, const uint8_t* p) {
  typedef uint8_t Bytes
      __attribute__((vector_size(sizeof(V) / sizeof(int16_t))));
  Bytes bytes;
  std::memcpy(&bytes, p, sizeof(bytes));
  *v = __builtin_convertvector(bytes, V);
}

// Written once over the vector type; always inlined, so each caller
// compiles it for its own ISA.
template <typename V>
[[gnu::always_inline]] inline void LaneStatsPass(const LanePass& pass) {
  constexpr size_t kLanes = sizeof(V) / sizeof(int16_t);
  constexpr size_t kStride = kLaneFields * kLanes;
  const size_t cols = pass.b.size();
  int16_t* const cells = pass.cells;
  int16_t* const scores = cells + cols * kStride;
  int16_t* const identical = scores + pass.slots * kLanes;
  const V zero = {};
  const V one = zero + int16_t{1};
  const V neg_inf = zero + kNegInf16;
  const V oe = zero + pass.open_extend;
  const V ext = zero + pass.extend;
  for (size_t j = 0; j < cols; ++j) {
    for (size_t f = 0; f < kLaneFields; ++f) {
      StoreLanes(cells + j * kStride + f * kLanes, f == kX ? &neg_inf : &zero);
    }
  }
  V best = zero, best_len = zero, best_id = zero;
  uint8_t codes[kPlaneRows * kLanes], chars[kPlaneRows * kLanes];
  const size_t height = pass.rows[pass.count - 1].size();
  for (size_t i = 0; i < height; ++i) {
    // This row's score and identity flag of every lane against each slot.
    const size_t at = i % kPlaneRows * kLanes;
    if (at == 0) FillPlanes(pass, kLanes, i, codes, chars);
    V code, ch;
    WidenLanes(&code, codes + at);
    WidenLanes(&ch, chars + at);
    for (size_t s = 0; s < pass.slots; ++s) {
      const int16_t* table = pass.tables + s * kTableSize;
      V score;
      if constexpr (kLanes == kTableSize) {
        V t;
        LoadLanes(&t, table);
        score = __builtin_shuffle(t, code);
      } else if constexpr (2 * kLanes == kTableSize) {
        V lo, hi;
        LoadLanes(&lo, table);
        LoadLanes(&hi, table + kLanes);
        score = __builtin_shuffle(lo, hi, code);
      } else {
        // SSE2 has no variable word shuffle.
        for (size_t l = 0; l < kLanes; ++l) score[l] = table[codes[at + l]];
      }
      const V same = (ch == zero + pass.keys[s]) & one;
      StoreLanes(scores + s * kLanes, &score);
      StoreLanes(identical + s * kLanes, &same);
    }
    V m_left = zero, m_left_len = zero, m_left_id = zero;
    V y_left = neg_inf, y_left_len = zero, y_left_id = zero;
    V diag = zero, diag_len = zero, diag_id = zero;
    for (size_t j = 0; j < cols; ++j) {
      int16_t* c = cells + j * kStride;
      const size_t slot = pass.slot_of_column[j] * kLanes;
      V score, same, m, x, x_len, x_id, m_len, m_id;
      LoadLanes(&score, scores + slot);
      LoadLanes(&same, identical + slot);
      LoadLanes(&m, c + kM * kLanes);
      LoadLanes(&x, c + kX * kLanes);
      LoadLanes(&m_len, c + kMLen * kLanes);
      LoadLanes(&m_id, c + kMId * kLanes);
      LoadLanes(&x_len, c + kXLen * kLanes);
      LoadLanes(&x_id, c + kXId * kLanes);
      // X (gap in b) from the cell above.
      const V x_ext = x + ext;
      const V x_open = m + oe;
      const V x_extends = x_ext >= x_open;
      const V xv = x_extends ? x_ext : x_open;
      x_len = (x_extends ? x_len : m_len) + one;
      x_id = x_extends ? x_id : m_id;
      // M from the diagonal.
      const V raw = diag + score;
      const V grow = raw > zero;
      const V mv = grow ? raw : zero;
      m_len = (diag_len + one) & grow;
      m_id = (diag_id + same) & grow;
      // Y (gap in a) from the cell to the left.
      const V y_ext = y_left + ext;
      const V y_open = m_left + oe;
      const V y_extends = y_ext >= y_open;
      const V yv = y_extends ? y_ext : y_open;
      const V y_len = (y_extends ? y_left_len : m_left_len) + one;
      const V y_id = y_extends ? y_left_id : m_left_id;
      const V xy = xv > yv ? xv : yv;
      const V bv = mv > xy ? mv : xy;
      const V from_m = mv == bv;
      const V from_x = xv == bv;
      const V bv_len = from_m ? m_len : (from_x ? x_len : y_len);
      const V bv_id = from_m ? m_id : (from_x ? x_id : y_id);
      LoadLanes(&diag, c + kBest * kLanes);
      LoadLanes(&diag_len, c + kBestLen * kLanes);
      LoadLanes(&diag_id, c + kBestId * kLanes);
      StoreLanes(c + kM * kLanes, &mv);
      StoreLanes(c + kX * kLanes, &xv);
      StoreLanes(c + kBest * kLanes, &bv);
      StoreLanes(c + kMLen * kLanes, &m_len);
      StoreLanes(c + kMId * kLanes, &m_id);
      StoreLanes(c + kXLen * kLanes, &x_len);
      StoreLanes(c + kXId * kLanes, &x_id);
      StoreLanes(c + kBestLen * kLanes, &bv_len);
      StoreLanes(c + kBestId * kLanes, &bv_id);
      m_left = mv;
      m_left_len = m_len;
      m_left_id = m_id;
      y_left = yv;
      y_left_len = y_len;
      y_left_id = y_id;
      const V higher = mv > best;
      best = higher ? mv : best;
      best_len = higher ? m_len : best_len;
      best_id = higher ? m_id : best_id;
    }
  }
  int16_t score[kLanes], length[kLanes], ids[kLanes];
  StoreLanes(score, &best);
  StoreLanes(length, &best_len);
  StoreLanes(ids, &best_id);
  for (size_t l = 0; l < pass.count; ++l) {
    pass.out[l] = AlignmentStats{score[l], static_cast<size_t>(length[l]),
                                 static_cast<size_t>(ids[l])};
  }
}

// SSE2 is the x86-64 baseline; the 32-byte instance is compiled for AVX2
// and the 64-byte one for AVX-512BW only (without them a wide vector is
// emulated, slower than scalar), and each runs only where the CPU reports
// its ISA.
void LaneStats8(const LanePass& pass) { LaneStatsPass<Lanes8>(pass); }

#if defined(__x86_64__) || defined(__i386__)
__attribute__((target("avx2"))) void LaneStats16(const LanePass& pass) {
  LaneStatsPass<Lanes16>(pass);
}

__attribute__((target("avx512bw"))) void LaneStats32(const LanePass& pass) {
  LaneStatsPass<Lanes32>(pass);
}
#endif

// LocalAlignStats(rows[k], b) into out[k] for every k, `lanes` rows per
// pass of the lane kernel. Rows of similar length share a pass, so little
// of it is padding; rows outside the int16 bound take ScalarStats.
Status StatsBlock(const ScoringProfile& profile,
                  const SubstitutionMatrix& scoring,
                  const std::vector<std::string_view>& rows,
                  std::string_view b, const GapPenalties& gaps, size_t lanes,
                  AlignScratch* scratch, AlignmentStats* out) {
  std::vector<size_t> order;
  const bool profile_fits = ProfileFitsLanes(profile, gaps);
  for (size_t k = 0; k < rows.size(); ++k) {
    if (rows[k].empty() || b.empty()) {
      out[k] = AlignmentStats();
    } else if (profile_fits && RowFitsLanes(rows[k].size(), b.size(),
                                            profile)) {
      order.push_back(k);
    } else {
      static obs::Counter* scalar_rows =
          obs::Registry::Global().GetCounter("align.kernel.lane_scalar_rows");
      scalar_rows->Increment();
      profile.Encode(rows[k], &scratch->codes_a);
      profile.Encode(b, &scratch->codes_b);
      GENALG_ASSIGN_OR_RETURN(
          out[k], ScalarStats(profile, scoring, rows[k], b, gaps, scratch));
    }
  }
  if (order.empty()) return Status::OK();
  std::stable_sort(order.begin(), order.end(), [&](size_t x, size_t y) {
    return rows[x].size() < rows[y].size();
  });
  // Slot each column of b by its character, and give each slot its table
  // and identity key.
  std::array<int16_t, 256> slot_of_char;
  slot_of_char.fill(-1);
  std::vector<char> slot_char;
  std::vector<uint8_t>& slot_of_column = scratch->codes_b;
  slot_of_column.resize(b.size());
  for (size_t j = 0; j < b.size(); ++j) {
    int16_t& slot = slot_of_char[static_cast<unsigned char>(b[j])];
    if (slot < 0) {
      slot = static_cast<int16_t>(slot_char.size());
      slot_char.push_back(b[j]);
    }
    slot_of_column[j] = static_cast<uint8_t>(slot);
  }
  const size_t slots = slot_char.size();
  const size_t state = (kLaneFields * b.size() + 2 * slots) * lanes;
  scratch->lanes.resize(state + (kTableSize + 1) * slots);
  int16_t* tables = scratch->lanes.data() + state;
  int16_t* keys = tables + kTableSize * slots;
  std::fill(tables, keys, kNegInf16);
  for (size_t s = 0; s < slots; ++s) {
    const uint8_t code = profile.Code(slot_char[s]);
    for (int c = 0; c < profile.width(); ++c) {
      tables[s * kTableSize + c] = static_cast<int16_t>(profile.Row(c)[code]);
    }
    keys[s] = slot_char[s] == '-' ? -1 : static_cast<uint8_t>(slot_char[s]);
  }
  LanePass pass{&profile,
                b,
                slot_of_column.data(),
                slots,
                tables,
                keys,
                nullptr,
                0,
                static_cast<int16_t>(gaps.open + gaps.extend),
                static_cast<int16_t>(gaps.extend),
                scratch->lanes.data(),
                nullptr};
  uint64_t cells = 0;
  for (size_t first = 0; first < order.size(); first += lanes) {
    std::string_view group[kMaxLanes];
    AlignmentStats stats[kMaxLanes];
    pass.count = std::min(lanes, order.size() - first);
    for (size_t l = 0; l < pass.count; ++l) {
      group[l] = rows[order[first + l]];
      cells += group[l].size() * b.size();
    }
    pass.rows = group;
    pass.out = stats;
#if defined(__x86_64__) || defined(__i386__)
    if (lanes == 32) {
      LaneStats32(pass);
    } else if (lanes == 16) {
      LaneStats16(pass);
    } else {
      LaneStats8(pass);
    }
#else
    LaneStats8(pass);
#endif
    for (size_t l = 0; l < pass.count; ++l) out[order[first + l]] = stats[l];
  }
  Metrics().cells->Add(cells);
  return Status::OK();
}

// Verdicts `resembles` reaches without a kernel, into *hit; false if the
// pair needs one. The full DP on an empty input yields the empty
// alignment (length 0, identity 0); identity never exceeds 1; and a
// qualifying alignment holds >= theta * min_overlap identity-match
// columns, which cannot outnumber the shorter input.
bool DecidedWithoutKernel(size_t n, size_t m, double min_identity,
                          size_t min_overlap, bool* hit) {
  *hit = false;
  if (n == 0 || m == 0) {
    *hit = min_overlap == 0 && min_identity <= 0.0;
    return true;
  }
  if (min_identity > 1.0) return true;
  const double theta = std::max(0.0, min_identity);
  return theta > 0.0 && static_cast<double>(std::min(n, m)) <
                            theta * static_cast<double>(min_overlap) - 1e-6;
}

SimilarityVerdict VerdictOf(const AlignmentStats& best, double min_identity,
                            size_t min_overlap) {
  SimilarityVerdict out;
  if (best.length < min_overlap || best.Identity() < min_identity) {
    return out;
  }
  out.hit = true;
  out.identity = best.Identity();
  out.score = best.score;
  return out;
}

obs::Counter* ConfirmDps() {
  static obs::Counter* confirm_dps =
      obs::Registry::Global().GetCounter("align.resembles.confirm_dps");
  return confirm_dps;
}

}  // namespace

size_t StatsLanes() {
#if defined(__x86_64__) || defined(__i386__)
  static const size_t lanes = __builtin_cpu_supports("avx512bw") ? 32
                              : __builtin_cpu_supports("avx2")   ? 16
                                                                 : 8;
  return lanes;
#else
  return 8;
#endif
}

Result<std::vector<AlignmentStats>> LocalAlignStatsBlock(
    const std::vector<std::string_view>& rows, std::string_view b,
    const SubstitutionMatrix& scoring, const GapPenalties& gaps,
    size_t lanes, AlignScratch* scratch) {
  GENALG_RETURN_IF_ERROR(CheckGapPenalties(gaps));
  if (lanes == 0) lanes = StatsLanes();
  if ((lanes != 8 && lanes != 16 && lanes != 32) || lanes > StatsLanes()) {
    return Status::InvalidArgument(
        "lane count " + std::to_string(lanes) + " is not supported here");
  }
  AlignScratch local;
  if (scratch == nullptr) scratch = &local;
  const ScoringProfile profile(scoring);
  std::vector<AlignmentStats> out(rows.size());
  GENALG_RETURN_IF_ERROR(StatsBlock(profile, scoring, rows, b, gaps, lanes,
                                    scratch, out.data()));
  return out;
}

Result<SimilarityVerdict> ResemblesScreened(std::string_view a,
                                            std::string_view b,
                                            double min_identity,
                                            size_t min_overlap,
                                            AlignScratch* scratch) {
  SimilarityVerdict out;
  if (DecidedWithoutKernel(a.size(), b.size(), min_identity, min_overlap,
                           &out.hit)) {
    return out;
  }
  const GapPenalties gaps;
  const ScoringProfile& profile = ScoringProfile::NucleotideDefault();
  profile.Encode(a, &scratch->codes_a);
  profile.Encode(b, &scratch->codes_b);
  const int64_t floor =
      ResemblesScoreFloor(profile, gaps, min_identity, min_overlap,
                          scratch->codes_a, scratch->codes_b);
  if (floor == std::numeric_limits<int64_t>::max()) return out;
  // The score-only screen (as LocalScoreReaches: every local score
  // reaches a floor <= 0; past the int32 bound the screen is skipped,
  // which is sound).
  if (floor > 0 && FitsInt32(a.size(), b.size(), profile, gaps)) {
    const bool a_outer = a.size() >= b.size();
    bool reached = false;
    LocalScoreCore(profile, a_outer ? scratch->codes_a : scratch->codes_b,
                   a_outer ? scratch->codes_b : scratch->codes_a, gaps,
                   scratch, &floor, &reached);
    if (!reached) return out;  // Best score provably below the floor.
  }
  ConfirmDps()->Increment();
  GENALG_ASSIGN_OR_RETURN(
      AlignmentStats best,
      ScalarStats(profile, SubstitutionMatrix::Nucleotide(), a, b, gaps,
                  scratch));
  return VerdictOf(best, min_identity, min_overlap);
}

Status ResemblesLanes(const std::vector<const seq::NucleotideSequence*>& rows,
                      std::string_view b, double min_identity,
                      size_t min_overlap, AlignScratch* scratch,
                      std::vector<uint8_t>* hits) {
  hits->assign(rows.size(), 0);
  std::vector<size_t> at;
  scratch->rows.clear();
  for (size_t k = 0; k < rows.size(); ++k) {
    bool hit = false;
    if (DecidedWithoutKernel(rows[k]->size(), b.size(), min_identity,
                             min_overlap, &hit)) {
      (*hits)[k] = hit;
      continue;
    }
    rows[k]->AppendTo(&scratch->rows);
    at.push_back(k);
  }
  // Views into scratch->rows, taken once it has stopped growing.
  std::vector<std::string_view> pending;
  pending.reserve(at.size());
  const char* next = scratch->rows.data();
  for (size_t k : at) {
    pending.emplace_back(next, rows[k]->size());
    next += rows[k]->size();
  }
  ConfirmDps()->Add(pending.size());
  std::vector<AlignmentStats> stats(pending.size());
  GENALG_RETURN_IF_ERROR(StatsBlock(
      ScoringProfile::NucleotideDefault(), SubstitutionMatrix::Nucleotide(),
      pending, b, GapPenalties(), StatsLanes(), scratch, stats.data()));
  for (size_t i = 0; i < pending.size(); ++i) {
    (*hits)[at[i]] = VerdictOf(stats[i], min_identity, min_overlap).hit;
  }
  return Status::OK();
}

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

Result<AlignmentStats> LocalAlignStats(std::string_view a,
                                       std::string_view b,
                                       const SubstitutionMatrix& scoring,
                                       const GapPenalties& gaps,
                                       AlignScratch* scratch) {
  GENALG_RETURN_IF_ERROR(CheckGapPenalties(gaps));
  if (a.empty() || b.empty()) return AlignmentStats();
  AlignScratch local;
  if (scratch == nullptr) scratch = &local;
  const ScoringProfile profile(scoring);
  profile.Encode(a, &scratch->codes_a);
  profile.Encode(b, &scratch->codes_b);
  return ScalarStats(profile, scoring, a, b, gaps, scratch);
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
