#include "align/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <tuple>

#include "align/aligner.h"
#include "obs/metrics.h"

namespace genalg::align {

namespace {

// Cell counts are accumulated per kernel invocation (rows completed x
// width), not per cell, so the inner loops stay untouched.
struct KernelMetrics {
  obs::Counter* cells;
  obs::Counter* full_dp_fallbacks;
};

const KernelMetrics& Metrics() {
  static const KernelMetrics m = {
      obs::Registry::Global().GetCounter("align.kernel.cells"),
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

// Rolling-row core of LocalAlignScore.
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
int32_t LocalScoreCore(const ScoringProfile& profile,
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
  rm.assign(cols + 1, 0);
  rx.assign(cols + 1, kNegInf32);
  rbest.assign(cols + 1, 0);
  int32_t best = 0;
  for (size_t i = 1; i <= rows; ++i) {
    const int32_t* score_row = profile.Row(ra[i - 1]);
    int32_t m_left = 0;             // M[i][0] (local boundary).
    int32_t y_left = kNegInf32;     // Y[i][0].
    int32_t best_diag = rbest[0];   // max(M, X, Y)[i-1][j-1] carrier.
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
    }
  }
  Metrics().cells->Add(rows * cols);
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

// LocalAlignStats on the scalar path; past the int32 bound the int64 full
// DP traces the alignment back instead.
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
  profile.Encode(a, &scratch->codes_a);
  profile.Encode(b, &scratch->codes_b);
  return LocalStatsCore(profile, a, b, scratch->codes_a, scratch->codes_b,
                        gaps, scratch);
}

// ------------------------------------------------------------ Lane kernel.
//
// LocalStatsCore for up to 8, 16 or 32 pairs at once: lane l of every
// vector runs a_l against b_l, so each lane keeps the scalar kernel's
// row-major tie order exactly. The cells are int16: the M, X and
// best(M, X, Y) scores, and for each of those three paths its length and
// identity count in lanes of their own, chosen by the same selects as the
// scalar code. A pass runs as many rows as its longest a and as many
// columns as its longest b. A cell past the end of its lane's a or b
// scores kNegInf16, so its M is 0 and it never moves the lane's best; pad
// rows lie below a lane's real rows and pad columns right of its real
// columns, so no real cell ever reads a pad cell.
//
// Per-row set-up, as SWIPE interleaves its database sequences: the pass's
// a sequences are transposed, kPlaneRows positions at a time, into
// lane-major planes of plane codes and raw characters. The scores then
// come in one of two forms:
//   - shared, when every pair has the same b: the plane code is the
//     profile class, with the pad class (profile.width()) past the end.
//     Each distinct character of b (a slot) has a kTableSize-entry table
//     of its score against every class, kNegInf16 for the pad class, and
//     an identity key: its character, or -1 for '-', which no character
//     equals. A row's scores against a slot are one shuffle of the slot's
//     table by the row's code vector, and its identity flags one compare
//     of its character vector with the slot's key;
//   - pair, for SubstitutionMatrix::Nucleotide scoring: the b sequences
//     are transposed whole into planes of their own, and the plane code
//     is kRealBase plus the IUPAC base set (none for an invalid
//     character), 0 past the end. A cell scores match where the two codes
//     share a base, mismatch where they share only kRealBase, and
//     kNegInf16 where they share nothing, that is where either side is
//     pad. It is an identity where the two characters are equal and a's
//     is not '-'.
//
// A-priori int16 bound: the kernel's cells stay in [kNegInf16 + extend,
// kLaneMax] when every pair's best possible score (max_pair x
// min(|a|, |b|)) and |a| + |b| are at most kLaneMax, and the profile's
// worst substitution and gap open + extend are no worse than
// -kLanePenaltyMax. A pad cell's diagonal is then kNegInf16 plus at most
// kLaneMax, always negative, and no path in a pass is longer than its
// longest a plus its longest b. Pairs outside the bound take ScalarStats.

constexpr int32_t kLaneMax = 16000;
constexpr int32_t kLanePenaltyMax = 8192;
constexpr int16_t kNegInf16 = -16384;
constexpr size_t kTableSize = 32;
constexpr uint8_t kRealBase = 16;
// Deep enough that the transposes cost little, shallow enough that the
// planes fit on the kernel's stack at any row length.
constexpr size_t kPlaneRows = 64;

bool PenaltiesFitLanes(const ScoringProfile& profile,
                       const GapPenalties& gaps) {
  return profile.min_pair_score() >= -kLanePenaltyMax &&
         int64_t{gaps.open} + gaps.extend >= -kLanePenaltyMax;
}

bool PairFitsLanes(size_t n, size_t m, const ScoringProfile& profile) {
  const int64_t gain = std::max(profile.max_pair_score(), 0);
  return n + m <= static_cast<size_t>(kLaneMax) &&
         gain * static_cast<int64_t>(std::min(n, m)) <= kLaneMax;
}

// Whether the profile scores a class pair by IUPAC base-set intersection
// alone, as SubstitutionMatrix::Nucleotide does (16 base sets, then an
// invalid class that matches nothing), and if so its two scores.
bool MaskScores(const ScoringProfile& profile, int16_t* match,
                int16_t* mismatch) {
  constexpr int kInvalid = 16;
  if (profile.width() != kInvalid + 1) return false;
  const int32_t hit = profile.Row(1)[1];
  const int32_t miss = profile.Row(kInvalid)[kInvalid];
  for (int x = 0; x <= kInvalid; ++x) {
    for (int y = 0; y <= kInvalid; ++y) {
      const bool shared = x < kInvalid && y < kInvalid && (x & y) != 0;
      if (profile.Row(x)[y] != (shared ? hit : miss)) return false;
    }
  }
  *match = static_cast<int16_t>(hit);
  *mismatch = static_cast<int16_t>(miss);
  return true;
}

typedef int16_t Lanes8 __attribute__((vector_size(16)));
typedef int16_t Lanes16 __attribute__((vector_size(32)));
typedef int16_t Lanes32 __attribute__((vector_size(64)));
constexpr size_t kMaxLanes = 32;

// Per column, the previous row's cells: M, X and best scores, then the
// length and identity count of each one's path.
enum LaneField { kM, kX, kBest, kMLen, kMId, kXLen, kXId, kBestLen,
                 kBestId, kLaneFields };

// One pass of the lane kernel: plain data only, so that no vector value
// crosses into a function compiled for another ISA.
struct LanePass {
  const std::string_view* a;  // `count` sequences, one per lane.
  size_t count;
  size_t height, width;     // The longest a and the longest b.
  const uint8_t* code_of;   // Plane code of each character.
  uint8_t pad;              // Plane code past a sequence's end.
  // Shared form: the slot of each column, and per slot its kTableSize
  // scores by class, then per slot its identity key.
  const uint8_t* slot_of_column;
  size_t slots;
  const int16_t* tables;
  const int16_t* keys;
  // Pair form: the b sequences' code and character planes, `width` deep.
  const uint8_t* b_codes;
  const uint8_t* b_chars;
  int16_t match, mismatch;
  int16_t open_extend, extend;
  // kLaneFields * width vectors of cells, then (shared form) per slot one
  // vector of scores and one of identity flags for the current row.
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

// Transposes positions [first, first + depth) of `count` sequences into
// planes of `lanes` bytes per position, `pad` and '-' past a sequence's
// end.
void FillPlanes(const std::string_view* seqs, size_t count, size_t lanes,
                size_t first, size_t depth, const uint8_t* code_of,
                uint8_t pad, uint8_t* codes, uint8_t* chars) {
  std::memset(codes, pad, depth * lanes);
  std::memset(chars, '-', depth * lanes);
  for (size_t l = 0; l < count; ++l) {
    const std::string_view s = seqs[l];
    for (size_t i = first; i < std::min(s.size(), first + depth); ++i) {
      codes[(i - first) * lanes + l] =
          code_of[static_cast<unsigned char>(s[i])];
      chars[(i - first) * lanes + l] = static_cast<uint8_t>(s[i]);
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

// Written once over the vector type and the form; always inlined, so each
// caller compiles it for its own ISA.
template <typename V, bool kPair>
[[gnu::always_inline]] inline void LaneStatsPass(const LanePass& pass) {
  constexpr size_t kLanes = sizeof(V) / sizeof(int16_t);
  constexpr size_t kStride = kLaneFields * kLanes;
  const size_t cols = pass.width;
  int16_t* const cells = pass.cells;
  int16_t* const scores = cells + cols * kStride;
  int16_t* const identical = scores + pass.slots * kLanes;
  const V zero = {};
  const V one = zero + int16_t{1};
  const V neg_inf = zero + kNegInf16;
  const V oe = zero + pass.open_extend;
  const V ext = zero + pass.extend;
  const V real = zero + int16_t{kRealBase};
  const V match = zero + pass.match;
  const V mismatch = zero + pass.mismatch;
  const V dash = zero + int16_t{'-'};
  for (size_t j = 0; j < cols; ++j) {
    for (size_t f = 0; f < kLaneFields; ++f) {
      StoreLanes(cells + j * kStride + f * kLanes, f == kX ? &neg_inf : &zero);
    }
  }
  V best = zero, best_len = zero, best_id = zero;
  uint8_t codes[kPlaneRows * kLanes], chars[kPlaneRows * kLanes];
  for (size_t i = 0; i < pass.height; ++i) {
    // This row's code and character of every lane.
    const size_t at = i % kPlaneRows * kLanes;
    if (at == 0) {
      FillPlanes(pass.a, pass.count, kLanes, i, kPlaneRows, pass.code_of,
                 pass.pad, codes, chars);
    }
    V code, ch;
    WidenLanes(&code, codes + at);
    WidenLanes(&ch, chars + at);
    if constexpr (kPair) {
      // No character of b equals -1, so '-' in a is never an identity.
      ch = ch == dash ? zero - one : ch;
    } else {
      // Its score and identity flag against each slot.
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
    }
    V m_left = zero, m_left_len = zero, m_left_id = zero;
    V y_left = neg_inf, y_left_len = zero, y_left_id = zero;
    V diag = zero, diag_len = zero, diag_id = zero;
    for (size_t j = 0; j < cols; ++j) {
      int16_t* c = cells + j * kStride;
      V score, same;
      if constexpr (kPair) {
        V b_code, b_ch;
        WidenLanes(&b_code, pass.b_codes + j * kLanes);
        WidenLanes(&b_ch, pass.b_chars + j * kLanes);
        const V shared = code & b_code;
        score = shared > real ? match : mismatch;
        score = shared == zero ? neg_inf : score;
        same = (ch == b_ch) & one;
      } else {
        const size_t slot = pass.slot_of_column[j] * kLanes;
        LoadLanes(&score, scores + slot);
        LoadLanes(&same, identical + slot);
      }
      V m, x, x_len, x_id, m_len, m_id;
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

// SSE2 is the x86-64 baseline; the 32-byte instances are compiled for
// AVX2 and the 64-byte ones for AVX-512BW only (without them a wide vector
// is emulated, slower than scalar), and each runs only where the CPU
// reports its ISA.
template <bool kPair>
void LaneStats8(const LanePass& pass) {
  LaneStatsPass<Lanes8, kPair>(pass);
}

#if defined(__x86_64__) || defined(__i386__)
template <bool kPair>
__attribute__((target("avx2"))) void LaneStats16(const LanePass& pass) {
  LaneStatsPass<Lanes16, kPair>(pass);
}

template <bool kPair>
__attribute__((target("avx512bw"))) void LaneStats32(const LanePass& pass) {
  LaneStatsPass<Lanes32, kPair>(pass);
}
#endif

template <bool kPair>
void RunLanePass(size_t lanes, const LanePass& pass) {
#if defined(__x86_64__) || defined(__i386__)
  if (lanes == 32) {
    LaneStats32<kPair>(pass);
  } else if (lanes == 16) {
    LaneStats16<kPair>(pass);
  } else {
    LaneStats8<kPair>(pass);
  }
#else
  LaneStats8<kPair>(pass);
#endif
}

// The shared form's tables for one b: the slot of each column, then per
// slot its kTableSize scores by class and, after all tables, per slot its
// identity key.
struct SlotTables {
  std::vector<uint8_t> slot_of_column;
  std::vector<int16_t> tables;
  size_t slots = 0;
};

SlotTables BuildSlotTables(const ScoringProfile& profile, std::string_view b) {
  SlotTables out;
  std::array<int16_t, 256> slot_of_char;
  slot_of_char.fill(-1);
  std::vector<char> slot_char;
  out.slot_of_column.resize(b.size());
  for (size_t j = 0; j < b.size(); ++j) {
    int16_t& slot = slot_of_char[static_cast<unsigned char>(b[j])];
    if (slot < 0) {
      slot = static_cast<int16_t>(slot_char.size());
      slot_char.push_back(b[j]);
    }
    out.slot_of_column[j] = static_cast<uint8_t>(slot);
  }
  out.slots = slot_char.size();
  out.tables.assign((kTableSize + 1) * out.slots, kNegInf16);
  int16_t* keys = out.tables.data() + kTableSize * out.slots;
  for (size_t s = 0; s < out.slots; ++s) {
    const uint8_t code = profile.Code(slot_char[s]);
    for (int c = 0; c < profile.width(); ++c) {
      out.tables[s * kTableSize + c] =
          static_cast<int16_t>(profile.Row(c)[code]);
    }
    keys[s] = slot_char[s] == '-' ? -1 : static_cast<uint8_t>(slot_char[s]);
  }
  return out;
}

// LocalAlignStats(a, b) into out[k] for every pair k, the one driver of
// the lane kernel. Pairs inside the int16 bound share passes of `lanes`,
// sorted by |a| + |b| so that little of a pass is padding: the shared
// form when every pair has the same b, else the pair form. A pair the
// lanes cannot take, or alone in its pass (on which the scalar kernel is
// faster), runs ScalarStats. The passes and scalar pairs spread over
// `pool`, each with its own scratch.
Status StatsPairs(
    const ScoringProfile& profile, const SubstitutionMatrix& scoring,
    const std::vector<std::pair<std::string_view, std::string_view>>& pairs,
    const GapPenalties& gaps, size_t lanes, ThreadPool* pool,
    AlignmentStats* out) {
  const bool shared =
      std::all_of(pairs.begin(), pairs.end(),
                  [&](const auto& p) { return p.second == pairs[0].second; });
  int16_t match = 0, mismatch = 0;
  const bool form_fits =
      PenaltiesFitLanes(profile, gaps) &&
      (shared ? static_cast<size_t>(profile.width()) < kTableSize
              : MaskScores(profile, &match, &mismatch));
  std::vector<size_t> order, scalar;
  for (size_t k = 0; k < pairs.size(); ++k) {
    const auto& [a, b] = pairs[k];
    if (a.empty() || b.empty()) {
      out[k] = AlignmentStats();
    } else if (form_fits && PairFitsLanes(a.size(), b.size(), profile)) {
      order.push_back(k);
    } else {
      static obs::Counter* scalar_rows =
          obs::Registry::Global().GetCounter("align.kernel.lane_scalar_rows");
      scalar_rows->Increment();
      scalar.push_back(k);
    }
  }
  std::stable_sort(order.begin(), order.end(), [&](size_t x, size_t y) {
    return pairs[x].first.size() + pairs[x].second.size() <
           pairs[y].first.size() + pairs[y].second.size();
  });
  std::vector<size_t> passes;  // The first index into `order` of each.
  for (size_t first = 0; first < order.size(); first += lanes) {
    if (first + 1 == order.size()) {
      scalar.push_back(order[first]);
    } else {
      passes.push_back(first);
    }
  }
  const SlotTables slots = shared && !passes.empty()
                               ? BuildSlotTables(profile, pairs[0].second)
                               : SlotTables();
  std::array<uint8_t, 256> code_of;
  for (int c = 0; c < 256; ++c) {
    const uint8_t cls = profile.Code(static_cast<char>(c));
    code_of[c] = shared ? cls : kRealBase | (cls < kRealBase ? cls : 0);
  }
  std::vector<Status> status(passes.size() + scalar.size());
  pool->ParallelFor(0, status.size(), 1, [&](size_t lo, size_t hi) {
    AlignScratch scratch;
    for (size_t u = lo; u < hi; ++u) {
      if (u >= passes.size()) {
        const size_t k = scalar[u - passes.size()];
        const auto& [a, b] = pairs[k];
        Result<AlignmentStats> stats =
            ScalarStats(profile, scoring, a, b, gaps, &scratch);
        if (stats.ok()) {
          out[k] = *stats;
        } else {
          status[u] = stats.status();
        }
        continue;
      }
      const size_t first = passes[u];
      std::string_view a[kMaxLanes], b[kMaxLanes];
      AlignmentStats stats[kMaxLanes];
      LanePass pass{};
      pass.a = a;
      pass.count = std::min(lanes, order.size() - first);
      uint64_t cells = 0;
      for (size_t l = 0; l < pass.count; ++l) {
        std::tie(a[l], b[l]) = pairs[order[first + l]];
        pass.height = std::max(pass.height, a[l].size());
        pass.width = std::max(pass.width, b[l].size());
        cells += a[l].size() * b[l].size();
      }
      pass.code_of = code_of.data();
      pass.pad = shared ? static_cast<uint8_t>(profile.width()) : 0;
      pass.open_extend = static_cast<int16_t>(gaps.open + gaps.extend);
      pass.extend = static_cast<int16_t>(gaps.extend);
      pass.out = stats;
      scratch.lanes.resize((kLaneFields * pass.width + 2 * slots.slots) *
                           lanes);
      pass.cells = scratch.lanes.data();
      if (shared) {
        pass.slot_of_column = slots.slot_of_column.data();
        pass.slots = slots.slots;
        pass.tables = slots.tables.data();
        pass.keys = slots.tables.data() + kTableSize * slots.slots;
        RunLanePass<false>(lanes, pass);
      } else {
        scratch.planes.resize(2 * pass.width * lanes);
        uint8_t* const planes = scratch.planes.data();
        FillPlanes(b, pass.count, lanes, 0, pass.width, code_of.data(), 0,
                   planes, planes + pass.width * lanes);
        pass.b_codes = planes;
        pass.b_chars = planes + pass.width * lanes;
        pass.match = match;
        pass.mismatch = mismatch;
        RunLanePass<true>(lanes, pass);
      }
      for (size_t l = 0; l < pass.count; ++l) {
        out[order[first + l]] = stats[l];
      }
      Metrics().cells->Add(cells);
    }
  });
  for (Status& s : status) {
    if (!s.ok()) return std::move(s);
  }
  return Status::OK();
}

// Verdicts `resembles` reaches without a kernel, into *hit; false if the
// pair needs one. The full DP on an empty input yields the empty
// alignment (length 0, identity 0); and a qualifying alignment holds
// >= min_identity * min_overlap identity-match columns, which cannot
// outnumber the shorter input.
bool DecidedWithoutKernel(size_t n, size_t m, double min_identity,
                          size_t min_overlap, bool* hit) {
  *hit = false;
  if (n == 0 || m == 0) {
    *hit = min_overlap == 0 && min_identity <= 0.0;
    return true;
  }
  return min_identity > 0.0 &&
         static_cast<double>(std::min(n, m)) <
             min_identity * static_cast<double>(min_overlap) - 1e-6;
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

Result<std::vector<AlignmentStats>> LocalAlignStatsPairs(
    const std::vector<std::pair<std::string_view, std::string_view>>& pairs,
    const SubstitutionMatrix& scoring, const GapPenalties& gaps,
    size_t lanes, ThreadPool* pool) {
  GENALG_RETURN_IF_ERROR(CheckGapPenalties(gaps));
  if (lanes == 0) lanes = StatsLanes();
  if ((lanes != 8 && lanes != 16 && lanes != 32) || lanes > StatsLanes()) {
    return Status::InvalidArgument(
        "lane count " + std::to_string(lanes) + " is not supported here");
  }
  if (pool == nullptr) pool = ThreadPool::Global();
  const ScoringProfile profile(scoring);
  std::vector<AlignmentStats> out(pairs.size());
  GENALG_RETURN_IF_ERROR(
      StatsPairs(profile, scoring, pairs, gaps, lanes, pool, out.data()));
  return out;
}

Result<std::vector<SimilarityVerdict>> ResemblesPairs(
    const std::vector<std::pair<std::string_view, std::string_view>>& pairs,
    double min_identity, size_t min_overlap, ThreadPool* pool) {
  if (min_identity < 0.0 || min_identity > 1.0) {
    return Status::InvalidArgument("min_identity must be in [0, 1]");
  }
  if (pool == nullptr) pool = ThreadPool::Global();
  std::vector<SimilarityVerdict> out(pairs.size());
  std::vector<size_t> at;
  std::vector<std::pair<std::string_view, std::string_view>> pending;
  for (size_t k = 0; k < pairs.size(); ++k) {
    if (!DecidedWithoutKernel(pairs[k].first.size(), pairs[k].second.size(),
                              min_identity, min_overlap, &out[k].hit)) {
      at.push_back(k);
      pending.push_back(pairs[k]);
    }
  }
  static obs::Counter* confirm_dps =
      obs::Registry::Global().GetCounter("align.resembles.confirm_dps");
  confirm_dps->Add(pending.size());
  std::vector<AlignmentStats> stats(pending.size());
  GENALG_RETURN_IF_ERROR(StatsPairs(
      ScoringProfile::NucleotideDefault(), SubstitutionMatrix::Nucleotide(),
      pending, GapPenalties(), StatsLanes(), pool, stats.data()));
  for (size_t i = 0; i < pending.size(); ++i) {
    const AlignmentStats& best = stats[i];
    if (best.length >= min_overlap && best.Identity() >= min_identity) {
      out[at[i]] = SimilarityVerdict{true, best.Identity(), best.score};
    }
  }
  return out;
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
                                             scratch));
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
  return ScalarStats(profile, scoring, a, b, gaps, scratch);
}

}  // namespace genalg::align
