// Ablation A3 (Sec. 6.5): "a need arises for indexing these data by
// using domain-specific, i.e., genomic, indexing techniques. These should
// support, e.g., similarity or substructure search on nucleotide
// sequences."
//
// Substructure search (`contains`) is measured three ways — naive scan,
// suffix array, k-mer prefilter + verify — over a corpus-size sweep, and
// similarity search (`resembles`) two ways — all-pairs local alignment vs
// k-mer seeded candidates + alignment.
//
// Expected shape: indexes beat the scan by orders of magnitude, with the
// gap growing with corpus size; seeding reduces similarity search from
// O(n) alignments to a handful.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "align/aligner.h"
#include "base/rng.h"
#include "gdt/ops.h"
#include "index/kmer_index.h"
#include "index/suffix_array.h"
#include "seq/nucleotide_sequence.h"

namespace genalg::bench {
namespace {

using seq::NucleotideSequence;

constexpr const char* kNeedle = "ATTGCCATAATTGCCATAAT";  // 20-mer.

struct Corpus {
  std::vector<NucleotideSequence> docs;
  std::string concatenated;

  static Corpus Make(size_t n_docs, size_t doc_len) {
    Corpus corpus;
    Rng rng(7070);
    for (size_t i = 0; i < n_docs; ++i) {
      std::string dna = rng.RandomDna(doc_len);
      if (i % 10 == 3) dna.replace(doc_len / 3, 20, kNeedle);
      corpus.concatenated += dna;
      corpus.docs.push_back(NucleotideSequence::Dna(dna).value());
    }
    return corpus;
  }
};

void BM_ContainsNaiveScan(benchmark::State& state) {
  Corpus corpus = Corpus::Make(static_cast<size_t>(state.range(0)), 1000);
  auto needle = NucleotideSequence::Dna(kNeedle).value();
  for (auto _ : state) {
    size_t hits = 0;
    for (const auto& doc : corpus.docs) {
      if (gdt::Contains(doc, needle)) ++hits;
    }
    benchmark::DoNotOptimize(hits);
  }
  state.counters["docs"] = static_cast<double>(state.range(0));
}

void BM_ContainsSuffixArray(benchmark::State& state) {
  Corpus corpus = Corpus::Make(static_cast<size_t>(state.range(0)), 1000);
  std::vector<index::SuffixArray> arrays;
  for (const auto& doc : corpus.docs) {
    arrays.push_back(index::SuffixArray::Build(doc));
  }
  for (auto _ : state) {
    size_t hits = 0;
    for (const auto& sa : arrays) {
      if (sa.Contains(kNeedle)) ++hits;
    }
    benchmark::DoNotOptimize(hits);
  }
  state.counters["docs"] = static_cast<double>(state.range(0));
}

void BM_ContainsKmerPrefilter(benchmark::State& state) {
  Corpus corpus = Corpus::Make(static_cast<size_t>(state.range(0)), 1000);
  auto idx = index::KmerIndex::Build(corpus.docs, 11).value();
  auto needle = NucleotideSequence::Dna(kNeedle).value();
  for (auto _ : state) {
    // Candidates hold every probed k-mer; verify each with a scan.
    size_t hits = 0;
    for (uint64_t doc : idx.ContainsCandidates(needle)) {
      if (gdt::Contains(corpus.docs[doc], needle)) ++hits;
    }
    benchmark::DoNotOptimize(hits);
  }
  state.counters["docs"] = static_cast<double>(state.range(0));
}

void BM_SuffixArrayBuild(benchmark::State& state) {
  Rng rng(7171);
  std::string text = rng.RandomDna(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto sa = index::SuffixArray::Build(text);
    benchmark::DoNotOptimize(sa.size());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}

void BM_KmerIndexBuild(benchmark::State& state) {
  Corpus corpus = Corpus::Make(static_cast<size_t>(state.range(0)), 1000);
  for (auto _ : state) {
    auto idx = index::KmerIndex::Build(corpus.docs, 11).value();
    benchmark::DoNotOptimize(idx.k());
  }
  state.counters["docs"] = static_cast<double>(state.range(0));
}

// Similarity: find which document a noisy 300-base read came from.
void BM_ResemblesAllPairsAlignment(benchmark::State& state) {
  Corpus corpus = Corpus::Make(static_cast<size_t>(state.range(0)), 1000);
  std::string read = corpus.docs[corpus.docs.size() / 2].ToString()
                         .substr(100, 300);
  Rng rng(7272);
  for (size_t i = 0; i < read.size(); i += 29) read[i] = rng.Pick("ACGT");
  auto read_seq = NucleotideSequence::Dna(read).value();
  for (auto _ : state) {
    int best_doc = -1;
    int64_t best_score = 0;
    for (size_t d = 0; d < corpus.docs.size(); ++d) {
      auto alignment = align::LocalAlign(read_seq, corpus.docs[d]);
      if (alignment.ok() && alignment->score > best_score) {
        best_score = alignment->score;
        best_doc = static_cast<int>(d);
      }
    }
    benchmark::DoNotOptimize(best_doc);
  }
  state.counters["docs"] = static_cast<double>(state.range(0));
}

void BM_ResemblesSeededAlignment(benchmark::State& state) {
  Corpus corpus = Corpus::Make(static_cast<size_t>(state.range(0)), 1000);
  auto idx = index::KmerIndex::Build(corpus.docs, 13).value();
  std::string read = corpus.docs[corpus.docs.size() / 2].ToString()
                         .substr(100, 300);
  Rng rng(7272);
  for (size_t i = 0; i < read.size(); i += 29) read[i] = rng.Pick("ACGT");
  auto read_seq = NucleotideSequence::Dna(read).value();
  for (auto _ : state) {
    auto candidates = idx.FindCandidates(read_seq, 3);
    int best_doc = -1;
    int64_t best_score = 0;
    size_t tried = 0;
    for (const auto& candidate : candidates) {
      if (++tried > 3) break;  // Top seeded candidates only.
      auto alignment =
          align::LocalAlign(read_seq, corpus.docs[candidate.doc]);
      if (alignment.ok() && alignment->score > best_score) {
        best_score = alignment->score;
        best_doc = static_cast<int>(candidate.doc);
      }
    }
    benchmark::DoNotOptimize(best_doc);
  }
  state.counters["docs"] = static_cast<double>(state.range(0));
}

BENCHMARK(BM_ContainsNaiveScan)->Arg(16)->Arg(64)->Arg(256);
BENCHMARK(BM_ContainsSuffixArray)->Arg(16)->Arg(64)->Arg(256);
BENCHMARK(BM_ContainsKmerPrefilter)->Arg(16)->Arg(64)->Arg(256);
BENCHMARK(BM_SuffixArrayBuild)->Arg(10000)->Arg(100000);
BENCHMARK(BM_KmerIndexBuild)->Arg(64)->Arg(256);
BENCHMARK(BM_ResemblesAllPairsAlignment)->Arg(8)->Arg(32);
BENCHMARK(BM_ResemblesSeededAlignment)->Arg(8)->Arg(32);

}  // namespace
}  // namespace genalg::bench

BENCHMARK_MAIN();
