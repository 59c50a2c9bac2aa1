// Parallel-scaling trajectory: measures the two pooled hot paths —
// EtlPipeline::InitialLoad and batched seed-and-extend (BatchResembles
// over KmerIndex candidates) — at 1/2/4/8 threads, plus the serial
// KmerIndex::Build (median and IQR over its reps), and writes the
// measurements to BENCH_parallel_scaling.json in the repo root. Speedups
// are relative to the 1-thread run of the same path; the JSON records
// nproc, the lane ISA and the compiler to make each run self-describing.
// Seed-and-extend also records the lane passes its call fills: a call
// that fills fewer passes than the pool has threads cannot scale.
//
// Unlike the figure benchmarks this one drives explicit ThreadPool
// instances instead of GENALG_THREADS, so one process sweeps every size.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "align/aligner.h"
#include "align/kernels.h"
#include "base/rng.h"
#include "base/thread_pool.h"
#include "bench_util.h"
#include "index/kmer_index.h"
#include "obs/metrics.h"
#include "seq/nucleotide_sequence.h"

namespace genalg::bench {
namespace {

using seq::NucleotideSequence;

constexpr size_t kThreadSweep[] = {1, 2, 4, 8};

// Wall-clock milliseconds of each of `repeats` runs of `body`.
template <typename Fn>
std::vector<double> SampleMs(int repeats, Fn&& body) {
  std::vector<double> samples;
  samples.reserve(repeats);
  for (int r = 0; r < repeats; ++r) {
    auto start = std::chrono::steady_clock::now();
    body();
    auto stop = std::chrono::steady_clock::now();
    samples.push_back(
        std::chrono::duration<double, std::milli>(stop - start).count());
  }
  std::sort(samples.begin(), samples.end());
  return samples;
}

// The sample at quantile q of sorted `samples`.
double At(const std::vector<double>& samples, double q) {
  return samples[static_cast<size_t>(q * (samples.size() - 1) + 0.5)];
}

// Runs `body` a few times and returns the median wall-clock milliseconds.
template <typename Fn>
double TimeMs(int repeats, Fn&& body) {
  return At(SampleMs(repeats, body), 0.5);
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

constexpr int kBuildReps = 15;

// The serial build's sorted per-rep milliseconds.
std::vector<double> BenchIndexBuild(
    const std::vector<NucleotideSequence>& corpus) {
  return SampleMs(kBuildReps, [&] {
    auto idx = index::KmerIndex::Build(corpus, 13).value();
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

// Returns the median ms; `*passes` gets the lane passes one call fills.
double BenchSeedAndExtend(ThreadPool* pool,
                          const std::vector<NucleotideSequence>& corpus,
                          const index::KmerIndex& idx, size_t* passes) {
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
  obs::Counter* confirm_dps =
      obs::Registry::Global().GetCounter("align.resembles.confirm_dps");
  const uint64_t before = confirm_dps->value();
  (void)align::BatchResembles(pairs, 0.8, 16, pool).value();
  // The pairs that reach a stats pass, packed StatsLanes() a pass; a lone
  // last pair runs scalar.
  const size_t lanes = align::StatsLanes();
  const size_t stats_pairs = confirm_dps->value() - before;
  *passes = stats_pairs / lanes + (stats_pairs % lanes > 1 ? 1 : 0);
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

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

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
  auto idx = genalg::index::KmerIndex::Build(corpus, 13).value();

  // Untimed warmup so the first timed configuration does not absorb
  // allocator growth and page-fault costs on behalf of the others.
  genalg::ThreadPool warm(1);
  size_t passes = 0;
  BenchInitialLoad(&warm);
  BenchSeedAndExtend(&warm, corpus, idx, &passes);

  const std::vector<double> build = BenchIndexBuild(corpus);
  std::printf("build (serial, %d reps): median=%.2fms iqr=%.2fms\n",
              kBuildReps, At(build, 0.5), At(build, 0.75) - At(build, 0.25));
  PathResult paths[] = {{"etl_initial_load", {}}, {"seed_and_extend", {}}};
  for (size_t t = 0; t < 4; ++t) {
    genalg::ThreadPool pool(kThreadSweep[t]);
    paths[0].ms[t] = BenchInitialLoad(&pool);
    paths[1].ms[t] = BenchSeedAndExtend(&pool, corpus, idx, &passes);
    std::printf("threads=%zu  load=%.2fms  extend=%.2fms (%zu passes)\n",
                kThreadSweep[t], paths[0].ms[t], paths[1].ms[t], passes);
  }

  FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  const size_t lanes = genalg::align::StatsLanes();
  std::fprintf(out, "{\n  \"benchmark\": \"parallel_scaling\",\n");
  std::fprintf(out,
               "  \"machine\": {\"nproc\": %u, \"compiler\": \"%s\", "
               "\"lane_isa\": \"%s\"},\n",
               std::thread::hardware_concurrency(), kCompiler,
               lanes == 32 ? "avx512bw" : lanes == 16 ? "avx2" : "sse2");
  std::fprintf(out, "  \"corpus\": {\"docs\": 192, \"doc_len\": 2000, "
                    "\"k\": 13, \"sources\": 8, "
                    "\"records_per_source\": 24},\n");
  std::fprintf(out,
               "  \"kmer_index_build\": {\"threads\": 1, \"reps\": %d, "
               "\"median_ms\": %.3f, \"iqr_ms\": %.3f},\n",
               kBuildReps, At(build, 0.5), At(build, 0.75) - At(build, 0.25));
  std::fprintf(out, "  \"paths\": [\n");
  for (size_t p = 0; p < 2; ++p) {
    std::fprintf(out, "    {\"name\": \"%s\", ", paths[p].name);
    if (p == 1) {
      std::fprintf(out, "\"lanes\": %zu, \"lane_passes_per_call\": %zu, ",
                   lanes, passes);
    }
    std::fprintf(out, "\"runs\": [");
    for (size_t t = 0; t < 4; ++t) {
      std::fprintf(
          out,
          "%s{\"threads\": %zu, \"ms\": %.3f, \"speedup_vs_1t\": %.3f}",
          t == 0 ? "" : ", ", kThreadSweep[t], paths[p].ms[t],
          paths[p].ms[t] > 0 ? paths[p].ms[0] / paths[p].ms[t] : 0.0);
    }
    std::fprintf(out, "]}%s\n", p + 1 < 2 ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
