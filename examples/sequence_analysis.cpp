// Sequence-analysis workbench: the algebra's analysis operations on a
// synthetic genome — ORF finding, motif scanning, restriction digestion,
// alignment, and index-accelerated substring search (Sec. 6.5).
//
// Run:  ./build/examples/sequence_analysis

#include <cstdio>

#include "align/aligner.h"
#include "base/rng.h"
#include "gdt/entities.h"
#include "gdt/ops.h"
#include "index/kmer_index.h"
#include "index/suffix_array.h"
#include "seq/nucleotide_sequence.h"

int main() {
  using namespace genalg;

  // A 50 kb synthetic chromosome with a real gene planted inside.
  Rng rng(2026);
  std::string dna = rng.RandomDna(50000);
  const std::string planted_gene =
      "ATGGCTAAAGGTGAACTGCTGGAAAAACTG" "GTAAGTCCAG"  // Exon 1 + intron...
      "TTTCAG" "GCTGCTGAAGCTTAA";                    // ...+ exon 2.
  dna.replace(20000, planted_gene.size(), planted_gene);
  auto chromosome = seq::NucleotideSequence::Dna(dna).value();
  std::printf("chromosome: %zu bp, GC %.3f, packed into %zu bytes\n",
              chromosome.size(), chromosome.GcContent(),
              chromosome.PackedBytes());

  // ---- ORF survey over all six frames.
  auto orfs = gdt::FindOrfs(chromosome, 25);
  std::printf("\nORFs of >= 25 codons: %zu\n", orfs->size());
  size_t shown = 0;
  for (const gdt::Orf& orf : *orfs) {
    std::printf("  frame %+d [%llu, %llu) -> %zu aa: %.20s...\n", orf.frame,
                static_cast<unsigned long long>(orf.begin),
                static_cast<unsigned long long>(orf.end),
                orf.protein.size(), orf.protein.ToString().c_str());
    if (++shown == 5) break;
  }

  // ---- Motif scanning with IUPAC ambiguity: find TATA-like boxes.
  auto tata = seq::NucleotideSequence::Dna("TATAWAW").value();
  auto hits = gdt::FindMotif(chromosome, tata);
  std::printf("\nTATAWAW motif hits: %zu (first at %llu)\n", hits.size(),
              hits.empty() ? 0ULL
                           : static_cast<unsigned long long>(hits[0]));

  // ---- Restriction digestion.
  for (const char* enzyme_name : {"EcoRI", "NotI"}) {
    auto enzyme = gdt::EnzymeByName(enzyme_name).value();
    auto fragments = gdt::Digest(chromosome, enzyme);
    size_t longest = 0;
    for (const auto& fragment : *fragments) {
      longest = std::max(longest, fragment.size());
    }
    std::printf("%s digest: %zu fragments, longest %zu bp\n", enzyme_name,
                fragments->size(), longest);
  }

  // ---- Index-accelerated search (Sec. 6.5): suffix array vs scan.
  index::SuffixArray sa = index::SuffixArray::Build(chromosome);
  std::string probe = dna.substr(20000, 24);
  auto positions = sa.FindAll(probe);
  std::printf("\nsuffix array finds probe at %zu position(s); "
              "longest repeated substring in the chromosome: %zu bp\n",
              positions.size(), sa.LongestRepeatedSubstring());

  // ---- Seeded similarity: recover a noisy read's origin.
  std::string read = dna.substr(31000, 400);
  for (size_t i = 0; i < read.size(); i += 23) read[i] = rng.Pick("ACGT");
  std::vector<seq::NucleotideSequence> corpus;
  for (size_t off = 0; off + 1000 <= dna.size(); off += 1000) {
    corpus.push_back(
        seq::NucleotideSequence::Dna(dna.substr(off, 1000)).value());
  }
  auto kmer_index = index::KmerIndex::Build(corpus, 13).value();
  auto read_seq = seq::NucleotideSequence::Dna(read).value();
  auto candidates = kmer_index.FindCandidates(read_seq, 3);
  if (!candidates.empty()) {
    std::printf("k-mer index maps the noisy read to chunk %llu "
                "(%u shared 13-mers)\n",
                static_cast<unsigned long long>(candidates[0].doc),
                candidates[0].shared_kmers);
    // Confirm with a local alignment against the winning chunk.
    auto alignment = align::LocalAlign(read_seq, corpus[candidates[0].doc]);
    if (alignment.ok()) {
      std::printf("local alignment identity: %.3f\n",
                  alignment->Identity());
    }
  }

  // ---- The resembles predicate (Sec. 6.3).
  auto original = seq::NucleotideSequence::Dna(dna.substr(31000, 400)).value();
  std::printf("resembles(read, origin): %s\n",
              *align::Resembles(read_seq, original, 0.9, 100) ? "true"
                                                              : "false");
  return 0;
}
