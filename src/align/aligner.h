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

/// The `resembles` verdict of every (a, b) pair, in pair order, with the
/// identity and score of each hit's best local alignment: the one batch
/// driver of the `resembles` engine (kernels.h ResemblesPairs), which runs
/// its lane passes over `pool` (nullptr: ThreadPool::Global()). The
/// verdicts are the same at every pool size. Used by the warehouse
/// integrator's content matching and the mediator's similarity queries.
Result<std::vector<SimilarityVerdict>> BatchResembles(
    const std::vector<std::pair<const seq::NucleotideSequence*,
                                const seq::NucleotideSequence*>>& pairs,
    double min_identity = 0.8, size_t min_overlap = 16,
    ThreadPool* pool = nullptr);

/// The paper's `resembles` operator (Sec. 6.3): true iff the best local
/// alignment of the two sequences covers at least `min_overlap` bases and
/// reaches at least `min_identity` (fraction in [0, 1]) over the aligned
/// window. This is the user-defined predicate the Unifying Database
/// registers for use inside SQL. One pair of BatchResembles, on the
/// calling thread: the scalar LocalAlignStats pass, in linear memory.
Result<bool> Resembles(const seq::NucleotideSequence& a,
                       const seq::NucleotideSequence& b,
                       double min_identity = 0.8, size_t min_overlap = 16);

/// Resembles(*rows[k], b, min_identity, min_overlap) for every k: the
/// pairs (rows[k], b) of BatchResembles, whose lane passes then share the
/// one pattern `b`, 8 (SSE2), 16 (AVX2) or 32 (AVX-512BW) rows per pass.
/// The block form of the SQL operator, which udb's filter calls once per
/// row block. Runs on the calling thread.
Result<std::vector<bool>> ResemblesBlock(
    const seq::NucleotideSequence& b,
    const std::vector<const seq::NucleotideSequence*>& rows,
    double min_identity = 0.8, size_t min_overlap = 16);

}  // namespace genalg::align

#endif  // GENALG_ALIGN_ALIGNER_H_
