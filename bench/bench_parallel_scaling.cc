// Parallel-scaling trajectory: measures the three pooled hot paths —
// KmerIndex::Build, EtlPipeline::InitialLoad, and batched seed-and-extend
// (BatchResembles over KmerIndex candidates) — at 1/2/4/8 threads and
// writes the measurements to BENCH_parallel_scaling.json in the repo
// root. Speedups are relative to the 1-thread run of the same path; on a
// single-core host every ratio degenerates to ~1, so the JSON also
// records hardware_concurrency to make such runs self-describing.
//
// Unlike the figure benchmarks this one drives explicit ThreadPool
// instances instead of GENALG_THREADS, so one process sweeps every size.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "align/aligner.h"
#include "base/rng.h"
#include "base/thread_pool.h"
#include "bench_util.h"
#include "index/kmer_index.h"
#include "seq/nucleotide_sequence.h"

namespace genalg::bench {
namespace {

using seq::NucleotideSequence;

constexpr size_t kThreadSweep[] = {1, 2, 4, 8};

double MedianMs(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

// Runs `body` a few times and returns the median wall-clock milliseconds.
template <typename Fn>
double TimeMs(int repeats, Fn&& body) {
  std::vector<double> samples;
  samples.reserve(repeats);
  for (int r = 0; r < repeats; ++r) {
    auto start = std::chrono::steady_clock::now();
    body();
    auto stop = std::chrono::steady_clock::now();
    samples.push_back(
        std::chrono::duration<double, std::milli>(stop - start).count());
  }
  return MedianMs(std::move(samples));
}

std::vector<NucleotideSequence> MakeIndexCorpus(size_t docs, size_t len) {
  Rng rng(8181);
  std::vector<NucleotideSequence> corpus;
  corpus.reserve(docs);
  for (size_t i = 0; i < docs; ++i) {
    corpus.push_back(NucleotideSequence::Dna(rng.RandomDna(len)).value());
  }
  return corpus;
}

double BenchIndexBuild(ThreadPool* pool,
                       const std::vector<NucleotideSequence>& corpus) {
  return TimeMs(3, [&] {
    auto idx = index::KmerIndex::Build(corpus, 13, pool).value();
    if (idx.k() != 13) abort();
  });
}

double BenchInitialLoad(ThreadPool* pool) {
  // The standard synthetic corpus of the figure benchmarks: populated
  // sources cycling over capability/representation classes.
  return TimeMs(3, [&] {
    auto stack = Stack::Make();
    auto sources = MakeSources(8, 24, 600);
    etl::EtlPipeline pipeline(stack->warehouse.get(), pool);
    for (auto& source : sources) {
      if (!pipeline.AddSource(source.get()).ok()) abort();
    }
    if (!pipeline.InitialLoad().ok()) abort();
  });
}

double BenchSeedAndExtend(ThreadPool* pool,
                          const std::vector<NucleotideSequence>& corpus,
                          const index::KmerIndex& idx) {
  // A noisy read seeded against the index; every ranked candidate is
  // verified by the `resembles` engine, whose lane passes spread over the
  // pool.
  Rng rng(8282);
  std::string read = corpus[corpus.size() / 2].ToString().substr(50, 400);
  for (size_t i = 0; i < read.size(); i += 31) read[i] = rng.Pick("ACGT");
  auto query = NucleotideSequence::Dna(read).value();
  auto candidates = idx.FindCandidates(query, 1);
  std::vector<std::pair<const NucleotideSequence*, const NucleotideSequence*>>
      pairs;
  pairs.reserve(candidates.size());
  for (const auto& candidate : candidates) {
    pairs.emplace_back(&query, &corpus[candidate.doc]);
  }
  return TimeMs(3, [&] {
    auto verdicts = align::BatchResembles(pairs, 0.8, 16, pool).value();
    // The read's home document must be found.
    if (verdicts.size() != pairs.size() ||
        std::none_of(verdicts.begin(), verdicts.end(),
                     [](const auto& v) { return v.hit; })) {
      abort();
    }
  });
}

struct PathResult {
  const char* name;
  double ms[4];  // Indexed like kThreadSweep.
};

}  // namespace
}  // namespace genalg::bench

int main(int argc, char** argv) {
  using namespace genalg::bench;

#ifndef GENALG_REPO_ROOT
#define GENALG_REPO_ROOT "."
#endif
  std::string out_path = argc > 1
                             ? argv[1]
                             : std::string(GENALG_REPO_ROOT) +
                                   "/BENCH_parallel_scaling.json";

  auto corpus = MakeIndexCorpus(192, 2000);
  genalg::ThreadPool warm(1);
  auto idx = genalg::index::KmerIndex::Build(corpus, 13, &warm).value();

  // Untimed warmup so the first timed configuration does not absorb
  // allocator growth and page-fault costs on behalf of the others.
  BenchIndexBuild(&warm, corpus);
  BenchInitialLoad(&warm);
  BenchSeedAndExtend(&warm, corpus, idx);

  PathResult paths[] = {{"kmer_index_build", {}},
                        {"etl_initial_load", {}},
                        {"seed_and_extend", {}}};
  for (size_t t = 0; t < 4; ++t) {
    genalg::ThreadPool pool(kThreadSweep[t]);
    paths[0].ms[t] = BenchIndexBuild(&pool, corpus);
    paths[1].ms[t] = BenchInitialLoad(&pool);
    paths[2].ms[t] = BenchSeedAndExtend(&pool, corpus, idx);
    std::printf("threads=%zu  build=%.2fms  load=%.2fms  extend=%.2fms\n",
                kThreadSweep[t], paths[0].ms[t], paths[1].ms[t],
                paths[2].ms[t]);
  }

  FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"benchmark\": \"parallel_scaling\",\n");
  std::fprintf(out, "  \"hardware_concurrency\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(out, "  \"corpus\": {\"docs\": 192, \"doc_len\": 2000, "
                    "\"sources\": 8, \"records_per_source\": 24},\n");
  std::fprintf(out, "  \"paths\": [\n");
  for (size_t p = 0; p < 3; ++p) {
    std::fprintf(out, "    {\"name\": \"%s\", \"runs\": [", paths[p].name);
    for (size_t t = 0; t < 4; ++t) {
      std::fprintf(
          out,
          "%s{\"threads\": %zu, \"ms\": %.3f, \"speedup_vs_1t\": %.3f}",
          t == 0 ? "" : ", ", kThreadSweep[t], paths[p].ms[t],
          paths[p].ms[t] > 0 ? paths[p].ms[0] / paths[p].ms[t] : 0.0);
    }
    std::fprintf(out, "]}%s\n", p + 1 < 3 ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
