#ifndef GENALG_ALIGN_KERNELS_H_
#define GENALG_ALIGN_KERNELS_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "align/scoring.h"
#include "base/result.h"
#include "base/thread_pool.h"

namespace genalg::align {

/// Score-only alignment kernels: Gotoh's affine-gap recurrence with two
/// rolling rows instead of full DP matrices. Where the traceback aligners
/// in aligner.h spend O(n*m) memory on three int64 matrices, these kernels
/// spend O(min(n, m)) on three int32 rows and return the *same* score,
/// bit for bit (verified by the property sweep in align_kernels_test).
/// They back every consumer that needs only a score or a `resembles`
/// verdict — the `resembles` predicate, the mediator's similarity search,
/// the warehouse integrator's content matching, and `align_score` in SQL.
/// LocalAlignStats extends the same rows to the length and identity of
/// the traced-back alignment, which is all `resembles` reads from it.

/// Reusable DP scratch. All kernels (and the full-DP aligners, via their
/// scratch overloads) carve their working memory out of one of these, so a
/// caller that runs many alignments allocates once. The lane driver keeps
/// one per pass, local to its call, so no worker thread holds a pass's
/// cells after the call returns.
struct AlignScratch {
  // Rolling rows of the score-only kernels: M, X (gap in the inner
  // sequence) and max(M, X, Y) of the previous row.
  std::vector<int32_t> row_m, row_x, row_best;
  // LocalAlignStats' rolling row: per column, the previous row's M, X
  // and max(M, X, Y), each with the packed (length << 32 | identities)
  // of the path its traceback would follow.
  struct StatsCell {
    int32_t m, x, best;
    uint64_t m_stats, x_stats, best_stats;
  };
  std::vector<StatsCell> stats_row;
  // Class-coded copies of the two inputs (the scoring profile operands).
  std::vector<uint8_t> codes_a, codes_b;
  // The lane kernel's cells and per-row scores: plain int16, read and
  // written with unaligned vector loads and stores, so no vector type
  // ever lives in a std:: container.
  std::vector<int16_t> lanes;
  // The lane-major code and character planes of a pass's b sequences.
  std::vector<uint8_t> planes;
  // Full-DP int64 arena borrowed by the traceback aligners.
  std::vector<int64_t> full_dp;
};

/// A flattened scoring profile: each input character is encoded once into
/// its residue class, and scores come from a dense classes x classes
/// table. The kernel inner loop is then one indexed load per cell — no
/// toupper, no IUPAC decoding, no symbol search (the raw
/// SubstitutionMatrix::Score does all three for BLOSUM).
class ScoringProfile {
 public:
  explicit ScoringProfile(const SubstitutionMatrix& scoring);

  /// The shared profile of SubstitutionMatrix::Nucleotide() with default
  /// parameters — the `resembles` hot path. Built once per process.
  static const ScoringProfile& NucleotideDefault();

  int width() const { return width_; }
  int32_t max_pair_score() const { return max_pair_; }
  int32_t min_pair_score() const { return min_pair_; }

  /// Row of the flat table for one residue class.
  const int32_t* Row(uint8_t cls) const {
    return table_.data() + static_cast<size_t>(cls) * width_;
  }

  /// Class code of a character.
  uint8_t Code(char c) const {
    return code_of_[static_cast<unsigned char>(c)];
  }

  /// Encodes a string into class codes (resizes `out`).
  void Encode(std::string_view s, std::vector<uint8_t>* out) const;

 private:
  int width_ = 0;
  int32_t max_pair_ = 0;
  int32_t min_pair_ = 0;
  std::array<uint8_t, 256> code_of_{};
  std::vector<int32_t> table_;  // width_ * width_.
};

/// Best Smith–Waterman local score — identical to LocalAlign(...).score —
/// in O(min(|a|,|b|)) memory and O(|a|*|b|) time over int32 cells.
/// `scratch` may be nullptr (a call-local scratch is used).
Result<int64_t> LocalAlignScore(std::string_view a, std::string_view b,
                                const SubstitutionMatrix& scoring,
                                const GapPenalties& gaps = GapPenalties(),
                                AlignScratch* scratch = nullptr);

/// Score, column count and identical-column count of the alignment
/// LocalAlign(a, b) returns, without its gapped strings.
struct AlignmentStats {
  int64_t score = 0;
  size_t length = 0;
  size_t identities = 0;

  /// Same value as Alignment::Identity() of that alignment.
  double Identity() const {
    if (length == 0) return 0.0;
    return static_cast<double>(identities) / static_cast<double>(length);
  }
};

/// The statistics of exactly the alignment LocalAlign(a, b) would trace
/// back, in one forward pass over O(|b|) memory: every DP cell carries
/// the length and identity count of the path its traceback would follow.
/// An identity is a column whose two raw characters are equal and not
/// '-'. Rows run over `a` and columns over `b`, as in LocalAlign, since
/// its tie order is not symmetric under swapping the inputs.
Result<AlignmentStats> LocalAlignStats(
    std::string_view a, std::string_view b,
    const SubstitutionMatrix& scoring,
    const GapPenalties& gaps = GapPenalties(),
    AlignScratch* scratch = nullptr);

/// Rows the lane kernel of LocalAlignStatsPairs runs at once on this CPU:
/// 32 int16 lanes with AVX-512BW, 16 with AVX2, else 8 (SSE2, the x86-64
/// baseline). Chosen once per process with __builtin_cpu_supports.
size_t StatsLanes();

/// LocalAlignStats(a, b) for every (a, b) pair, bit-identical, from an
/// inter-sequence kernel in the style of SWIPE (Rognes 2011): each int16
/// lane of one vector runs one pair, `lanes` pairs per pass, and the
/// passes spread over `pool` (nullptr: ThreadPool::Global()). `lanes` is
/// 8, 16 (needs AVX2) or 32 (needs AVX-512BW), or 0 for StatsLanes().
/// Pairs that all share one `b` run against per-character score tables of
/// `b`; other pairs need SubstitutionMatrix::Nucleotide scoring, whose
/// score is one select on the intersection of the two IUPAC base sets. A
/// pair outside the a-priori int16 bound (its score, or |a| + |b|, could
/// pass about 16000), a pair the profile keeps out of the lanes (both
/// counted in `align.kernel.lane_scalar_rows`), and a pair alone in its
/// pass run the scalar kernel.
Result<std::vector<AlignmentStats>> LocalAlignStatsPairs(
    const std::vector<std::pair<std::string_view, std::string_view>>& pairs,
    const SubstitutionMatrix& scoring,
    const GapPenalties& gaps = GapPenalties(), size_t lanes = 0,
    ThreadPool* pool = nullptr);

/// One `resembles` verdict: whether the pair passed the (min_identity,
/// min_overlap) predicate, and if so the identity and score of its best
/// local alignment.
struct SimilarityVerdict {
  bool hit = false;
  double identity = 0.0;
  int64_t score = 0;
};

/// The `resembles` engine: the verdict of every (a, b) pair under
/// SubstitutionMatrix::Nucleotide() and the default gaps, bit-identical to
/// running the full local alignment and checking its length and identity.
/// `min_identity` outside [0, 1] is InvalidArgument. Pairs that an empty
/// input or the predicate's arithmetic decide (the shorter input cannot
/// hold the identity matches it demands) take no kernel; the rest take
/// LocalAlignStatsPairs' passes over `pool` (nullptr:
/// ThreadPool::Global()), counted in `align.resembles.confirm_dps`.
Result<std::vector<SimilarityVerdict>> ResemblesPairs(
    const std::vector<std::pair<std::string_view, std::string_view>>& pairs,
    double min_identity, size_t min_overlap, ThreadPool* pool = nullptr);

}  // namespace genalg::align

#endif  // GENALG_ALIGN_KERNELS_H_
