#ifndef GENALG_ALIGN_ALIGNER_H_
#define GENALG_ALIGN_ALIGNER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "align/kernels.h"
#include "align/scoring.h"
#include "base/result.h"
#include "base/thread_pool.h"
#include "seq/nucleotide_sequence.h"
#include "seq/protein_sequence.h"

namespace genalg::align {

/// The result of a pairwise alignment. `aligned_a` and `aligned_b` are
/// equal-length gapped renderings ('-' marks a gap); for local alignments
/// the [begin, end) spans give the aligned window of each input.
struct Alignment {
  int64_t score = 0;
  std::string aligned_a;
  std::string aligned_b;
  size_t begin_a = 0;
  size_t end_a = 0;
  size_t begin_b = 0;
  size_t end_b = 0;

  /// Number of alignment columns (including gap columns).
  size_t Length() const { return aligned_a.size(); }

  /// Number of columns whose two characters are equal and not '-'.
  size_t Identities() const;

  /// Fraction of columns whose residues match exactly (gap columns count
  /// against identity); 0 for an empty alignment.
  double Identity() const;
};

/// Needleman–Wunsch global alignment with affine gaps (Gotoh).
/// Complexity O(|a|*|b|) time and memory. `scratch` (optional) recycles
/// the DP arena across calls.
Result<Alignment> GlobalAlign(std::string_view a, std::string_view b,
                              const SubstitutionMatrix& scoring,
                              const GapPenalties& gaps = GapPenalties(),
                              AlignScratch* scratch = nullptr);

/// Smith–Waterman local alignment with affine gaps. Returns the single
/// best-scoring local alignment (empty alignment with score 0 when nothing
/// scores positively). Callers that only need the score should use
/// LocalAlignScore (kernels.h); `scratch` (optional) recycles the DP
/// arena across calls.
Result<Alignment> LocalAlign(std::string_view a, std::string_view b,
                             const SubstitutionMatrix& scoring,
                             const GapPenalties& gaps = GapPenalties(),
                             AlignScratch* scratch = nullptr);

/// Convenience overloads on the GDT sequence types.
Result<Alignment> GlobalAlign(const seq::NucleotideSequence& a,
                              const seq::NucleotideSequence& b,
                              const GapPenalties& gaps = GapPenalties());
Result<Alignment> LocalAlign(const seq::NucleotideSequence& a,
                             const seq::NucleotideSequence& b,
                             const GapPenalties& gaps = GapPenalties());
Result<Alignment> GlobalAlign(const seq::ProteinSequence& a,
                              const seq::ProteinSequence& b,
                              const GapPenalties& gaps = GapPenalties());
Result<Alignment> LocalAlign(const seq::ProteinSequence& a,
                             const seq::ProteinSequence& b,
                             const GapPenalties& gaps = GapPenalties());

/// Batched seed-and-extend verification: aligns `query` locally against
/// `targets[i]` for every i, fanning the (independent) DP fills out over
/// `pool` (nullptr ⇒ ThreadPool::Global()). Results are returned in
/// target order and are identical to calling LocalAlign in a loop; with a
/// size-1 pool that loop is exactly what runs. The intended callers pass
/// the candidate documents ranked by KmerIndex::FindCandidates.
Result<std::vector<Alignment>> BatchLocalAlign(
    const seq::NucleotideSequence& query,
    const std::vector<const seq::NucleotideSequence*>& targets,
    const GapPenalties& gaps = GapPenalties(), ThreadPool* pool = nullptr);

/// Batched `resembles`: evaluates Resembles(a, b) for every (a, b) pair
/// over `pool`, returning verdicts in pair order (deterministic across
/// pool sizes). Used by the warehouse integrator's content-matching
/// stage and the mediator's similarity queries. Each pool worker keeps a
/// thread-local AlignScratch, so steady-state evaluation allocates no DP
/// memory.
Result<std::vector<bool>> BatchResembles(
    const std::vector<std::pair<const seq::NucleotideSequence*,
                                const seq::NucleotideSequence*>>& pairs,
    double min_identity = 0.8, size_t min_overlap = 16,
    ThreadPool* pool = nullptr);

/// Batched similarity search: evaluates the `resembles` predicate of
/// `query` against every target and reports identity + score for the
/// hits — what Mediator::SimilarTo needs, without materializing gapped
/// alignment strings for the (typical) majority of targets that miss.
/// Scratch reuse and determinism match BatchResembles.
Result<std::vector<SimilarityVerdict>> BatchSimilarity(
    const seq::NucleotideSequence& query,
    const std::vector<const seq::NucleotideSequence*>& targets,
    double min_identity = 0.8, size_t min_overlap = 16,
    ThreadPool* pool = nullptr);

/// The paper's `resembles` operator (Sec. 6.3): true iff the best local
/// alignment of the two sequences covers at least `min_overlap` bases and
/// reaches at least `min_identity` (fraction in [0, 1]) over the aligned
/// window. This is the user-defined predicate the Unifying Database
/// registers for use inside SQL.
///
/// Evaluated in linear memory: a score floor derived from
/// (min_identity, min_overlap) lets an early-exit score-only pass prove
/// most negatives, and one LocalAlignStats pass decides the rest. The
/// verdict is bit-identical to evaluating the full alignment directly.
Result<bool> Resembles(const seq::NucleotideSequence& a,
                       const seq::NucleotideSequence& b,
                       double min_identity = 0.8, size_t min_overlap = 16);

/// Resembles(*rows[k], b, min_identity, min_overlap) for every k, the
/// verdicts bit-identical, from the lane kernel (kernels.h): one shared
/// pattern `b` against up to 8 (SSE2), 16 (AVX2) or 32 (AVX-512BW) rows
/// per pass. The block form of the SQL operator, which udb's filter calls
/// once per row block. Runs on the calling thread.
Result<std::vector<bool>> ResemblesBlock(
    const seq::NucleotideSequence& b,
    const std::vector<const seq::NucleotideSequence*>& rows,
    double min_identity = 0.8, size_t min_overlap = 16);

}  // namespace genalg::align

#endif  // GENALG_ALIGN_ALIGNER_H_
