#include <string>
#include <vector>

#include "algebra/signature.h"
#include "align/aligner.h"
#include "base/result.h"
#include "gdt/ops.h"

namespace genalg::algebra {

namespace {

using seq::NucleotideSequence;
using seq::ProteinSequence;

std::string S(std::string_view sv) { return std::string(sv); }

// resembles(a, b [, min_identity]) on one row.
Result<Value> ResemblesRow(const std::vector<Value>& args) {
  GENALG_ASSIGN_OR_RETURN(NucleotideSequence a, args[0].AsNucSeq());
  GENALG_ASSIGN_OR_RETURN(NucleotideSequence b, args[1].AsNucSeq());
  double min_identity = 0.8;
  if (args.size() > 2) {
    GENALG_ASSIGN_OR_RETURN(min_identity, args[2].AsReal());
  }
  GENALG_ASSIGN_OR_RETURN(bool r, align::Resembles(a, b, min_identity));
  return Value::Bool(r);
}

// The block form of `resembles`: rows that share one pattern `b` (and
// min_identity) run through align::ResemblesBlock's lane kernel, which
// puts the rows `a` in its lanes; any other block goes row by row.
Status ResemblesBlockForm(const std::vector<std::vector<Value>>& args,
                          size_t rows, std::vector<Value>* out) {
  const auto row_of = [&](const std::vector<Value>& column, size_t r) {
    return column.size() == 1 ? 0 : r;
  };
  if (args[1].size() != 1 || (args.size() > 2 && args[2].size() != 1)) {
    std::vector<Value> tuple(args.size());
    for (size_t r = 0; r < rows; ++r) {
      for (size_t k = 0; k < args.size(); ++k) {
        tuple[k] = args[k][row_of(args[k], r)];
      }
      GENALG_ASSIGN_OR_RETURN(Value v, ResemblesRow(tuple));
      out->push_back(std::move(v));
    }
    return Status::OK();
  }
  std::vector<const NucleotideSequence*> lanes(rows);
  for (size_t r = 0; r < rows; ++r) {
    const Value& a = args[0][row_of(args[0], r)];
    lanes[r] = a.NucSeqOrNull();
    if (lanes[r] == nullptr) return a.AsNucSeq().status();
  }
  const NucleotideSequence* b = args[1][0].NucSeqOrNull();
  if (b == nullptr) return args[1][0].AsNucSeq().status();
  double min_identity = 0.8;
  if (args.size() > 2) {
    GENALG_ASSIGN_OR_RETURN(min_identity, args[2][0].AsReal());
  }
  GENALG_ASSIGN_OR_RETURN(std::vector<bool> hits,
                          align::ResemblesBlock(*b, lanes, min_identity));
  for (bool hit : hits) out->push_back(Value::Bool(hit));
  return Status::OK();
}

}  // namespace

Status RegisterStandardAlgebra(SignatureRegistry* registry) {
  // ------------------------------------------------------------- Sorts.
  GENALG_RETURN_IF_ERROR(
      registry->RegisterSort(S(kSortBool), "Truth values"));
  GENALG_RETURN_IF_ERROR(
      registry->RegisterSort(S(kSortInt), "64-bit signed integers"));
  GENALG_RETURN_IF_ERROR(
      registry->RegisterSort(S(kSortReal), "Double-precision reals"));
  GENALG_RETURN_IF_ERROR(
      registry->RegisterSort(S(kSortString), "Character strings"));
  GENALG_RETURN_IF_ERROR(registry->RegisterSort(
      S(kSortNucSeq), "Nucleotide sequences (DNA or RNA, IUPAC)"));
  GENALG_RETURN_IF_ERROR(registry->RegisterSort(
      S(kSortProtSeq), "Amino-acid sequences"));
  GENALG_RETURN_IF_ERROR(registry->RegisterSort(
      S(kSortGene), "Genes: genomic DNA with exon structure"));
  GENALG_RETURN_IF_ERROR(registry->RegisterSort(
      S(kSortPrimaryTranscript), "Unspliced RNA transcripts"));
  GENALG_RETURN_IF_ERROR(
      registry->RegisterSort(S(kSortMRna), "Spliced messenger RNA"));
  GENALG_RETURN_IF_ERROR(registry->RegisterSort(
      S(kSortProtein), "Proteins with provenance and confidence"));

  // ----------------------------------------- The paper's mini-algebra.
  GENALG_RETURN_IF_ERROR(registry->RegisterOperator(
      {"transcribe", {S(kSortGene)}, S(kSortPrimaryTranscript)},
      [](const std::vector<Value>& args) -> Result<Value> {
        GENALG_ASSIGN_OR_RETURN(gdt::Gene g, args[0].AsGene());
        GENALG_ASSIGN_OR_RETURN(gdt::PrimaryTranscript t,
                                gdt::Transcribe(g));
        return Value::TranscriptVal(std::move(t));
      },
      "Copies a gene's coding strand into its primary RNA transcript."));

  GENALG_RETURN_IF_ERROR(registry->RegisterOperator(
      {"splice", {S(kSortPrimaryTranscript)}, S(kSortMRna)},
      [](const std::vector<Value>& args) -> Result<Value> {
        GENALG_ASSIGN_OR_RETURN(gdt::PrimaryTranscript t,
                                args[0].AsTranscript());
        GENALG_ASSIGN_OR_RETURN(gdt::MRna m, gdt::Splice(t));
        return Value::MRnaVal(std::move(m));
      },
      "Removes introns at the annotated exon boundaries; non-canonical "
      "boundaries reduce the result confidence."));

  GENALG_RETURN_IF_ERROR(registry->RegisterOperator(
      {"translate", {S(kSortMRna)}, S(kSortProtein)},
      [](const std::vector<Value>& args) -> Result<Value> {
        GENALG_ASSIGN_OR_RETURN(gdt::MRna m, args[0].AsMRna());
        GENALG_ASSIGN_OR_RETURN(gdt::Protein p, gdt::Translate(m));
        return Value::ProteinVal(std::move(p));
      },
      "Translates the message from its first start codon under its "
      "genetic code."));

  GENALG_RETURN_IF_ERROR(registry->RegisterOperator(
      {"decode", {S(kSortGene)}, S(kSortProtein)},
      [](const std::vector<Value>& args) -> Result<Value> {
        GENALG_ASSIGN_OR_RETURN(gdt::Gene g, args[0].AsGene());
        GENALG_ASSIGN_OR_RETURN(gdt::Protein p, gdt::Decode(g));
        return Value::ProteinVal(std::move(p));
      },
      "translate(splice(transcribe(gene))): the composed pipeline."));

  // ------------------------------------------------- Sequence algebra.
  GENALG_RETURN_IF_ERROR(registry->RegisterOperator(
      {"reverse_complement", {S(kSortNucSeq)}, S(kSortNucSeq)},
      [](const std::vector<Value>& args) -> Result<Value> {
        GENALG_ASSIGN_OR_RETURN(NucleotideSequence s, args[0].AsNucSeq());
        return Value::NucSeq(s.ReverseComplement());
      },
      "The Watson-Crick reverse complement."));

  GENALG_RETURN_IF_ERROR(registry->RegisterOperator(
      {"complement", {S(kSortNucSeq)}, S(kSortNucSeq)},
      [](const std::vector<Value>& args) -> Result<Value> {
        GENALG_ASSIGN_OR_RETURN(NucleotideSequence s, args[0].AsNucSeq());
        return Value::NucSeq(s.Complement());
      },
      "Base-wise complement without reversal."));

  GENALG_RETURN_IF_ERROR(registry->RegisterOperator(
      {"gc_content", {S(kSortNucSeq)}, S(kSortReal)},
      [](const std::vector<Value>& args) -> Result<Value> {
        GENALG_ASSIGN_OR_RETURN(NucleotideSequence s, args[0].AsNucSeq());
        return Value::Real(s.GcContent());
      },
      "Fraction of G/C among unambiguous bases."));

  GENALG_RETURN_IF_ERROR(registry->RegisterOperator(
      {"length", {S(kSortNucSeq)}, S(kSortInt)},
      [](const std::vector<Value>& args) -> Result<Value> {
        GENALG_ASSIGN_OR_RETURN(NucleotideSequence s, args[0].AsNucSeq());
        return Value::Int(static_cast<int64_t>(s.size()));
      },
      "Number of bases / residues / characters."));
  GENALG_RETURN_IF_ERROR(registry->RegisterOperator(
      {"length", {S(kSortProtSeq)}, S(kSortInt)},
      [](const std::vector<Value>& args) -> Result<Value> {
        GENALG_ASSIGN_OR_RETURN(ProteinSequence s, args[0].AsProtSeq());
        return Value::Int(static_cast<int64_t>(s.size()));
      }));
  GENALG_RETURN_IF_ERROR(registry->RegisterOperator(
      {"length", {S(kSortString)}, S(kSortInt)},
      [](const std::vector<Value>& args) -> Result<Value> {
        GENALG_ASSIGN_OR_RETURN(std::string s, args[0].AsString());
        return Value::Int(static_cast<int64_t>(s.size()));
      }));

  GENALG_RETURN_IF_ERROR(registry->RegisterOperator(
      {"subsequence", {S(kSortNucSeq), S(kSortInt), S(kSortInt)},
       S(kSortNucSeq)},
      [](const std::vector<Value>& args) -> Result<Value> {
        GENALG_ASSIGN_OR_RETURN(NucleotideSequence s, args[0].AsNucSeq());
        GENALG_ASSIGN_OR_RETURN(int64_t pos, args[1].AsInt());
        GENALG_ASSIGN_OR_RETURN(int64_t len, args[2].AsInt());
        if (pos < 0 || len < 0) {
          return Status::OutOfRange("negative subsequence bounds");
        }
        GENALG_ASSIGN_OR_RETURN(
            NucleotideSequence sub,
            s.Subsequence(static_cast<size_t>(pos),
                          static_cast<size_t>(len)));
        return Value::NucSeq(std::move(sub));
      },
      "subsequence(s, pos, len): the bases at [pos, pos+len)."));

  GENALG_RETURN_IF_ERROR(registry->RegisterOperator(
      {"concat", {S(kSortNucSeq), S(kSortNucSeq)}, S(kSortNucSeq)},
      [](const std::vector<Value>& args) -> Result<Value> {
        GENALG_ASSIGN_OR_RETURN(NucleotideSequence a, args[0].AsNucSeq());
        GENALG_ASSIGN_OR_RETURN(NucleotideSequence b, args[1].AsNucSeq());
        GENALG_RETURN_IF_ERROR(a.Concat(b));
        return Value::NucSeq(std::move(a));
      },
      "Concatenation (same alphabet required)."));
  GENALG_RETURN_IF_ERROR(registry->RegisterOperator(
      {"concat", {S(kSortString), S(kSortString)}, S(kSortString)},
      [](const std::vector<Value>& args) -> Result<Value> {
        GENALG_ASSIGN_OR_RETURN(std::string a, args[0].AsString());
        GENALG_ASSIGN_OR_RETURN(std::string b, args[1].AsString());
        return Value::String(a + b);
      }));

  // The paper's Sec. 4.2 example operator getchar : string x int -> char
  // (we model char as a one-character string to keep the sort set small).
  GENALG_RETURN_IF_ERROR(registry->RegisterOperator(
      {"getchar", {S(kSortString), S(kSortInt)}, S(kSortString)},
      [](const std::vector<Value>& args) -> Result<Value> {
        GENALG_ASSIGN_OR_RETURN(std::string s, args[0].AsString());
        GENALG_ASSIGN_OR_RETURN(int64_t i, args[1].AsInt());
        if (i < 0 || static_cast<size_t>(i) >= s.size()) {
          return Status::OutOfRange("getchar index " + std::to_string(i) +
                                    " outside string of length " +
                                    std::to_string(s.size()));
        }
        return Value::String(std::string(1, s[static_cast<size_t>(i)]));
      },
      "The character at a position (Sec. 4.2 example)."));

  // --------------------------------------------- Predicates (Sec. 6.3).
  GENALG_RETURN_IF_ERROR(registry->RegisterOperator(
      {"contains", {S(kSortNucSeq), S(kSortNucSeq)}, S(kSortBool)},
      [](const std::vector<Value>& args) -> Result<Value> {
        GENALG_ASSIGN_OR_RETURN(NucleotideSequence s, args[0].AsNucSeq());
        GENALG_ASSIGN_OR_RETURN(NucleotideSequence p, args[1].AsNucSeq());
        return Value::Bool(gdt::Contains(s, p));
      },
      "True iff the fragment contains the pattern (ambiguity-aware)."));

  GENALG_RETURN_IF_ERROR(registry->RegisterOperator(
      {"count_motif", {S(kSortNucSeq), S(kSortNucSeq)}, S(kSortInt)},
      [](const std::vector<Value>& args) -> Result<Value> {
        GENALG_ASSIGN_OR_RETURN(NucleotideSequence s, args[0].AsNucSeq());
        GENALG_ASSIGN_OR_RETURN(NucleotideSequence p, args[1].AsNucSeq());
        return Value::Int(
            static_cast<int64_t>(gdt::FindMotif(s, p).size()));
      },
      "Number of (possibly overlapping) motif occurrences."));

  GENALG_RETURN_IF_ERROR(registry->RegisterOperator(
      {"resembles", {S(kSortNucSeq), S(kSortNucSeq)}, S(kSortBool)},
      ResemblesRow,
      "Similarity predicate: best local alignment reaches 80% identity "
      "over at least 16 bases.",
      ResemblesBlockForm));
  GENALG_RETURN_IF_ERROR(registry->RegisterOperator(
      {"resembles", {S(kSortNucSeq), S(kSortNucSeq), S(kSortReal)},
       S(kSortBool)},
      ResemblesRow, "", ResemblesBlockForm));

  GENALG_RETURN_IF_ERROR(registry->RegisterOperator(
      {"align_score", {S(kSortNucSeq), S(kSortNucSeq)}, S(kSortInt)},
      [](const std::vector<Value>& args) -> Result<Value> {
        const NucleotideSequence* a = args[0].NucSeqOrNull();
        if (a == nullptr) return args[0].AsNucSeq().status();
        const NucleotideSequence* b = args[1].NucSeqOrNull();
        if (b == nullptr) return args[1].AsNucSeq().status();
        GENALG_ASSIGN_OR_RETURN(
            int64_t score,
            align::LocalAlignScore(a->ToString(), b->ToString(),
                                   align::SubstitutionMatrix::Nucleotide()));
        return Value::Int(score);
      },
      "Best local alignment score (Smith-Waterman, affine gaps)."));

  // -------------------------------------------------- Analysis helpers.
  GENALG_RETURN_IF_ERROR(registry->RegisterOperator(
      {"orf_count", {S(kSortNucSeq), S(kSortInt)}, S(kSortInt)},
      [](const std::vector<Value>& args) -> Result<Value> {
        GENALG_ASSIGN_OR_RETURN(NucleotideSequence s, args[0].AsNucSeq());
        GENALG_ASSIGN_OR_RETURN(int64_t min_codons, args[1].AsInt());
        if (min_codons < 0) {
          return Status::InvalidArgument("negative ORF length");
        }
        GENALG_ASSIGN_OR_RETURN(
            std::vector<gdt::Orf> orfs,
            gdt::FindOrfs(s, static_cast<size_t>(min_codons)));
        return Value::Int(static_cast<int64_t>(orfs.size()));
      },
      "Number of ORFs of at least n codons over all six frames."));

  GENALG_RETURN_IF_ERROR(registry->RegisterOperator(
      {"digest_count", {S(kSortNucSeq), S(kSortString)}, S(kSortInt)},
      [](const std::vector<Value>& args) -> Result<Value> {
        GENALG_ASSIGN_OR_RETURN(NucleotideSequence s, args[0].AsNucSeq());
        GENALG_ASSIGN_OR_RETURN(std::string enzyme_name, args[1].AsString());
        GENALG_ASSIGN_OR_RETURN(gdt::RestrictionEnzyme enzyme,
                                gdt::EnzymeByName(enzyme_name));
        GENALG_ASSIGN_OR_RETURN(std::vector<NucleotideSequence> frags,
                                gdt::Digest(s, enzyme));
        return Value::Int(static_cast<int64_t>(frags.size()));
      },
      "Number of fragments produced by a restriction digest."));

  GENALG_RETURN_IF_ERROR(registry->RegisterOperator(
      {"melting_temp", {S(kSortNucSeq)}, S(kSortReal)},
      [](const std::vector<Value>& args) -> Result<Value> {
        GENALG_ASSIGN_OR_RETURN(NucleotideSequence s, args[0].AsNucSeq());
        GENALG_ASSIGN_OR_RETURN(double tm,
                                gdt::MeltingTemperatureCelsius(s));
        return Value::Real(tm);
      },
      "Oligo melting temperature in degrees Celsius."));

  GENALG_RETURN_IF_ERROR(registry->RegisterOperator(
      {"reverse_translate", {S(kSortProtSeq)}, S(kSortNucSeq)},
      [](const std::vector<Value>& args) -> Result<Value> {
        GENALG_ASSIGN_OR_RETURN(ProteinSequence p, args[0].AsProtSeq());
        GENALG_ASSIGN_OR_RETURN(NucleotideSequence dna,
                                gdt::ReverseTranslate(p));
        return Value::NucSeq(std::move(dna));
      },
      "The degenerate (IUPAC) DNA encoding a protein."));

  GENALG_RETURN_IF_ERROR(registry->RegisterOperator(
      {"translate_frame", {S(kSortNucSeq), S(kSortInt)}, S(kSortProtSeq)},
      [](const std::vector<Value>& args) -> Result<Value> {
        GENALG_ASSIGN_OR_RETURN(NucleotideSequence s, args[0].AsNucSeq());
        GENALG_ASSIGN_OR_RETURN(int64_t frame, args[1].AsInt());
        GENALG_ASSIGN_OR_RETURN(
            ProteinSequence p,
            gdt::TranslateFrame(s, static_cast<int>(frame)));
        return Value::ProtSeq(std::move(p));
      },
      "Direct translation of one reading frame (+-1..3)."));

  GENALG_RETURN_IF_ERROR(registry->RegisterOperator(
      {"longest_orf_length", {S(kSortNucSeq)}, S(kSortInt)},
      [](const std::vector<Value>& args) -> Result<Value> {
        GENALG_ASSIGN_OR_RETURN(NucleotideSequence s, args[0].AsNucSeq());
        auto orf = gdt::LongestOrf(s, 1);
        if (orf.status().IsNotFound()) return Value::Int(0);
        if (!orf.ok()) return orf.status();
        return Value::Int(static_cast<int64_t>(orf->protein.size()));
      },
      "Residue count of the longest ORF over all six frames (0 if none)."));

  GENALG_RETURN_IF_ERROR(registry->RegisterOperator(
      {"kmer_distance", {S(kSortNucSeq), S(kSortNucSeq)}, S(kSortReal)},
      [](const std::vector<Value>& args) -> Result<Value> {
        GENALG_ASSIGN_OR_RETURN(NucleotideSequence a, args[0].AsNucSeq());
        GENALG_ASSIGN_OR_RETURN(NucleotideSequence b, args[1].AsNucSeq());
        GENALG_ASSIGN_OR_RETURN(double d, gdt::KmerProfileDistance(a, b));
        return Value::Real(d);
      },
      "Alignment-free Bray-Curtis distance of 4-mer profiles."));

  GENALG_RETURN_IF_ERROR(registry->RegisterOperator(
      {"molecular_weight", {S(kSortProtSeq)}, S(kSortReal)},
      [](const std::vector<Value>& args) -> Result<Value> {
        GENALG_ASSIGN_OR_RETURN(ProteinSequence s, args[0].AsProtSeq());
        return Value::Real(s.MolecularWeightDaltons());
      },
      "Approximate molecular weight in daltons."));

  // -------------------------------------------------------- Accessors.
  GENALG_RETURN_IF_ERROR(registry->RegisterOperator(
      {"sequence_of", {S(kSortGene)}, S(kSortNucSeq)},
      [](const std::vector<Value>& args) -> Result<Value> {
        GENALG_ASSIGN_OR_RETURN(gdt::Gene g, args[0].AsGene());
        return Value::NucSeq(g.sequence);
      },
      "The raw sequence payload of a GDT value."));
  GENALG_RETURN_IF_ERROR(registry->RegisterOperator(
      {"sequence_of", {S(kSortMRna)}, S(kSortNucSeq)},
      [](const std::vector<Value>& args) -> Result<Value> {
        GENALG_ASSIGN_OR_RETURN(gdt::MRna m, args[0].AsMRna());
        return Value::NucSeq(m.sequence);
      }));
  GENALG_RETURN_IF_ERROR(registry->RegisterOperator(
      {"sequence_of", {S(kSortProtein)}, S(kSortProtSeq)},
      [](const std::vector<Value>& args) -> Result<Value> {
        GENALG_ASSIGN_OR_RETURN(gdt::Protein p, args[0].AsProtein());
        return Value::ProtSeq(p.sequence);
      }));

  GENALG_RETURN_IF_ERROR(registry->RegisterOperator(
      {"confidence_of", {S(kSortGene)}, S(kSortReal)},
      [](const std::vector<Value>& args) -> Result<Value> {
        GENALG_ASSIGN_OR_RETURN(gdt::Gene g, args[0].AsGene());
        return Value::Real(g.confidence);
      },
      "The uncertainty tag of a GDT value (Sec. 4.3 / C9)."));
  GENALG_RETURN_IF_ERROR(registry->RegisterOperator(
      {"confidence_of", {S(kSortMRna)}, S(kSortReal)},
      [](const std::vector<Value>& args) -> Result<Value> {
        GENALG_ASSIGN_OR_RETURN(gdt::MRna m, args[0].AsMRna());
        return Value::Real(m.confidence);
      }));
  GENALG_RETURN_IF_ERROR(registry->RegisterOperator(
      {"confidence_of", {S(kSortProtein)}, S(kSortReal)},
      [](const std::vector<Value>& args) -> Result<Value> {
        GENALG_ASSIGN_OR_RETURN(gdt::Protein p, args[0].AsProtein());
        return Value::Real(p.confidence);
      }));

  GENALG_RETURN_IF_ERROR(registry->RegisterOperator(
      {"id_of", {S(kSortGene)}, S(kSortString)},
      [](const std::vector<Value>& args) -> Result<Value> {
        GENALG_ASSIGN_OR_RETURN(gdt::Gene g, args[0].AsGene());
        return Value::String(g.id);
      },
      "The accession / identifier of a GDT value."));
  GENALG_RETURN_IF_ERROR(registry->RegisterOperator(
      {"id_of", {S(kSortProtein)}, S(kSortString)},
      [](const std::vector<Value>& args) -> Result<Value> {
        GENALG_ASSIGN_OR_RETURN(gdt::Protein p, args[0].AsProtein());
        return Value::String(p.id);
      }));

  // --------------------------------------------------------- Parsers.
  GENALG_RETURN_IF_ERROR(registry->RegisterOperator(
      {"parse_dna", {S(kSortString)}, S(kSortNucSeq)},
      [](const std::vector<Value>& args) -> Result<Value> {
        GENALG_ASSIGN_OR_RETURN(std::string s, args[0].AsString());
        GENALG_ASSIGN_OR_RETURN(NucleotideSequence n,
                                NucleotideSequence::Dna(s));
        return Value::NucSeq(std::move(n));
      },
      "Parses an IUPAC DNA string into a nucleotide sequence."));
  GENALG_RETURN_IF_ERROR(registry->RegisterOperator(
      {"parse_protein", {S(kSortString)}, S(kSortProtSeq)},
      [](const std::vector<Value>& args) -> Result<Value> {
        GENALG_ASSIGN_OR_RETURN(std::string s, args[0].AsString());
        GENALG_ASSIGN_OR_RETURN(ProteinSequence p,
                                ProteinSequence::FromString(s));
        return Value::ProtSeq(std::move(p));
      },
      "Parses a residue string into a protein sequence."));

  // The Sec. 4.3 case: a signature whose operational semantics biology
  // does not yet provide. Terms using it type-check; evaluation reports
  // Unimplemented instead of fabricating an answer.
  GENALG_RETURN_IF_ERROR(registry->DeclareOperator(
      {"fold", {S(kSortProtein)}, S(kSortString)},
      "Tertiary-structure prediction: declared signature, no operational "
      "semantics (the paper's splice dilemma, Sec. 4.3)."));

  return Status::OK();
}

}  // namespace genalg::algebra
