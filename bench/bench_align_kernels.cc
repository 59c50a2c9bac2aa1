// Alignment-kernel ablation: times the full-traceback Smith–Waterman DP
// against the linear-memory kernels it was refactored into — the rolling
// two-row Gotoh score kernel and the stats kernel that carries the traced
// path's length and identities forward — over a length sweep, and writes
// BENCH_align_kernels.json to the repo root. Alongside wall-clock it
// records the peak DP working-set of each kernel (analytic, from the
// layouts: three int64 matrices for the full DP vs three int32 rows for
// the kernels), which is the O(n*m) → O(min(n,m)) claim in numbers.
//
// Every timed kernel call is checked against the full DP first, so a run
// that produced a wrong score or statistic aborts instead of reporting it.
//
// The lane rows time LocalAlignStatsPairs on one thread in both of its
// forms: the shared form the SQL filter runs (120 rows of 300-700 bp
// against one mutated 40 or 200 bp pattern), and the pair form the
// integrator and the mediator run (128 pairs of 300-700 bp, half of them
// a sequence and its mutated copy, half unrelated), scalar LocalAlignStats
// pair by pair against the 8-lane (SSE2) kernel and, where the CPU has
// them, the 16-lane (AVX2) and 32-lane (AVX-512BW) kernels. Each lane
// width is checked against scalar before it is timed, and the widths
// checked are printed. Each rep times scalar and then every width, so a
// width's speed-up over scalar comes from back-to-back calls; the JSON
// records the median and IQR of pairs/s and of that ratio over the reps,
// the ISA the dispatch picks, nproc and the compiler. Host load on a
// shared machine moves pairs/s from run to run; the ratio moves less.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "align/aligner.h"
#include "align/kernels.h"
#include "base/rng.h"
#include "seq/nucleotide_sequence.h"

namespace genalg::bench {
namespace {

constexpr size_t kLengths[] = {250, 500, 1000, 2000};
constexpr size_t kNumLengths = sizeof(kLengths) / sizeof(kLengths[0]);

double MedianMs(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

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

// A homologous pair: `b` is `a` with ~8% point mutations and a small
// prefix shift, so the optimal alignment hugs one diagonal — the regime
// the `resembles` hot path lives in.
struct Pair {
  std::string a;
  std::string b;
};

Pair MakeRelatedPair(Rng* rng, size_t length) {
  Pair p;
  p.a = rng->RandomDna(length);
  p.b = p.a;
  for (char& c : p.b) {
    if (rng->Bernoulli(0.08)) c = rng->Pick("ACGT");
  }
  const size_t shift = 1 + rng->Uniform(16);
  p.b = rng->RandomDna(shift) + p.b;
  p.b.resize(length);
  return p;
}

struct LengthResult {
  size_t length = 0;
  double full_dp_ms = 0;
  double score_only_ms = 0;
  double stats_ms = 0;
  size_t full_dp_bytes = 0;
  size_t score_only_bytes = 0;
  size_t stats_bytes = 0;
};

LengthResult RunLength(size_t length) {
  Rng rng(4242 + length);
  const Pair related = MakeRelatedPair(&rng, length);
  const auto& scoring = align::SubstitutionMatrix::Nucleotide();
  const align::GapPenalties gaps;

  const align::Alignment full =
      align::LocalAlign(related.a, related.b, scoring, gaps).value();
  const int64_t truth = full.score;
  align::AlignScratch scratch;
  if (align::LocalAlignScore(related.a, related.b, scoring, gaps,
                             &scratch)
          .value() != truth) {
    std::abort();
  }
  const align::AlignmentStats stats =
      align::LocalAlignStats(related.a, related.b, scoring, gaps, &scratch)
          .value();
  if (stats.score != truth || stats.length != full.Length() ||
      stats.identities != full.Identities()) {
    std::abort();
  }

  LengthResult out;
  out.length = length;
  const int repeats = length >= 2000 ? 3 : 5;
  out.full_dp_ms = TimeMs(repeats, [&] {
    if (align::LocalAlign(related.a, related.b, scoring, gaps)->score !=
        truth) {
      std::abort();
    }
  });
  out.score_only_ms = TimeMs(repeats, [&] {
    if (align::LocalAlignScore(related.a, related.b, scoring, gaps,
                               &scratch)
            .value() != truth) {
      std::abort();
    }
  });
  out.stats_ms = TimeMs(repeats, [&] {
    if (align::LocalAlignStats(related.a, related.b, scoring, gaps,
                               &scratch)
            .value()
            .length != stats.length) {
      std::abort();
    }
  });
  // Peak DP working set, from the layouts. Full DP: three int64 layers
  // of (n+1)*(m+1) cells. Score-only: three int32 rows of min(n,m)+1
  // cells plus the two uint8 code strings. Stats: one row of StatsCell
  // (three int32 values and three packed uint64 path statistics) plus
  // the code strings.
  const size_t cells = (length + 1) * (length + 1);
  out.full_dp_bytes = 3 * cells * sizeof(int64_t);
  out.score_only_bytes =
      3 * (length + 1) * sizeof(int32_t) + 2 * length * sizeof(uint8_t);
  out.stats_bytes = (length + 1) * sizeof(align::AlignScratch::StatsCell) +
                    2 * length * sizeof(uint8_t);
  return out;
}

// The end-to-end predicate: `resembles` over a mixed batch of related
// and unrelated pairs, old route (full DP for every pair) vs
// BatchResembles on one thread, in two regimes: the permissive default
// (80% over >= 16 bases) and a stringent entity-matching config (90% over
// >= 200 bases).
struct PredicateResult {
  const char* name = "";
  double min_identity = 0;
  size_t min_overlap = 0;
  size_t pairs = 0;
  double full_dp_ms = 0;
  double batch_ms = 0;
};

PredicateResult RunPredicate(const char* name, double min_identity,
                             size_t min_overlap) {
  Rng rng(99);
  std::vector<seq::NucleotideSequence> store;
  for (int i = 0; i < 40; ++i) {
    if (i % 4 == 0 && !store.empty()) {
      std::string s = store[store.size() - 1].ToString();
      for (char& c : s) {
        if (rng.Bernoulli(0.1)) c = rng.Pick("ACGT");
      }
      store.push_back(seq::NucleotideSequence::Dna(s).value());
    } else {
      store.push_back(
          seq::NucleotideSequence::Dna(rng.RandomDna(600)).value());
    }
  }
  std::vector<std::pair<const seq::NucleotideSequence*,
                        const seq::NucleotideSequence*>>
      pairs;
  for (size_t i = 0; i + 1 < store.size(); ++i) {
    pairs.emplace_back(&store[i], &store[i + 1]);
  }

  PredicateResult out;
  out.name = name;
  out.min_identity = min_identity;
  out.min_overlap = min_overlap;
  out.pairs = pairs.size();
  // Baseline: verdicts from the full alignment, pair by pair.
  std::vector<bool> want;
  for (const auto& [a, b] : pairs) {
    auto best = align::LocalAlign(*a, *b).value();
    want.push_back(best.Length() >= min_overlap &&
                   best.Identity() >= min_identity);
  }
  out.full_dp_ms = TimeMs(3, [&] {
    for (size_t i = 0; i < pairs.size(); ++i) {
      auto best = align::LocalAlign(*pairs[i].first, *pairs[i].second)
                      .value();
      if ((best.Length() >= min_overlap &&
           best.Identity() >= min_identity) != want[i]) {
        std::abort();
      }
    }
  });
  ThreadPool serial(1);
  out.batch_ms = TimeMs(3, [&] {
    auto got =
        align::BatchResembles(pairs, min_identity, min_overlap, &serial)
            .value();
    for (size_t i = 0; i < pairs.size(); ++i) {
      if (got[i].hit != want[i]) std::abort();
    }
  });
  return out;
}

// Median and interquartile range of a sample.
struct Spread {
  double median = 0;
  double iqr = 0;
};

Spread SpreadOf(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const auto at = [&](double q) {
    return samples[static_cast<size_t>(q * (samples.size() - 1) + 0.5)];
  };
  return Spread{at(0.5), at(0.75) - at(0.25)};
}

constexpr size_t kWidths[] = {8, 16, 32};
constexpr const char* kIsa[] = {"sse2", "avx2", "avx512bw"};

struct LaneResult {
  std::string workload;
  size_t pairs = 0;
  Spread scalar;      // Pairs per second.
  Spread lanes[3];    // Per width of kWidths; zero where the CPU lacks it.
  Spread vs_scalar[3];  // Per rep, scalar time over the width's time.
  std::string verified;  // The lane widths checked against scalar.
};

LaneResult TimeLanes(
    std::string workload,
    const std::vector<std::pair<std::string_view, std::string_view>>& pairs) {
  constexpr int kReps = 15;
  const auto& scoring = align::SubstitutionMatrix::Nucleotide();
  const align::GapPenalties gaps;
  ThreadPool serial(1);
  align::AlignScratch scratch;
  std::vector<align::AlignmentStats> want;
  for (const auto& [a, b] : pairs) {
    want.push_back(align::LocalAlignStats(a, b, scoring, gaps).value());
  }
  LaneResult out;
  out.workload = std::move(workload);
  out.pairs = pairs.size();
  size_t widths = 0;
  for (size_t w = 0; w < 3 && kWidths[w] <= align::StatsLanes(); ++w) {
    const auto got =
        align::LocalAlignStatsPairs(pairs, scoring, gaps, kWidths[w], &serial)
            .value();
    for (size_t k = 0; k < want.size(); ++k) {
      if (got[k].score != want[k].score || got[k].length != want[k].length ||
          got[k].identities != want[k].identities) {
        std::fprintf(stderr, "%zu lanes disagree with scalar on pair %zu\n",
                     kWidths[w], k);
        std::abort();
      }
    }
    out.verified += (out.verified.empty() ? "" : ",") +
                    std::to_string(kWidths[w]);
    ++widths;
  }
  const auto seconds = [](auto&& body) {
    auto start = std::chrono::steady_clock::now();
    body();
    auto stop = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(stop - start).count();
  };
  std::vector<double> scalar, lanes[3], ratio[3];
  for (int r = 0; r <= kReps; ++r) {  // Rep 0 warms up.
    const double scalar_s = seconds([&] {
      for (size_t k = 0; k < pairs.size(); ++k) {
        if (align::LocalAlignStats(pairs[k].first, pairs[k].second, scoring,
                                   gaps, &scratch)
                ->score != want[k].score) {
          std::abort();
        }
      }
    });
    if (r > 0) scalar.push_back(pairs.size() / scalar_s);
    for (size_t w = 0; w < widths; ++w) {
      const double lane_s = seconds([&] {
        if (align::LocalAlignStatsPairs(pairs, scoring, gaps, kWidths[w],
                                        &serial)
                ->size() != pairs.size()) {
          std::abort();
        }
      });
      if (r == 0) continue;
      lanes[w].push_back(pairs.size() / lane_s);
      ratio[w].push_back(scalar_s / lane_s);
    }
  }
  out.scalar = SpreadOf(scalar);
  for (size_t w = 0; w < widths; ++w) {
    out.lanes[w] = SpreadOf(lanes[w]);
    out.vs_scalar[w] = SpreadOf(ratio[w]);
  }
  return out;
}

// The shared form: 120 rows against one pattern cut from one of them and
// mutated at 5% of its bases.
LaneResult RunSharedLanes(size_t pattern_length) {
  Rng rng(7100 + pattern_length);
  std::vector<std::string> rows;
  for (int i = 0; i < 120; ++i) {
    rows.push_back(rng.RandomDna(300 + rng.Uniform(401)));
  }
  const std::string& home = rows[rng.Uniform(rows.size())];
  std::string b = home.substr(rng.Uniform(home.size() - pattern_length),
                              pattern_length);
  for (size_t k = 0; k < pattern_length / 20; ++k) {
    b[rng.Uniform(b.size())] = rng.Pick("ACGT");
  }
  std::vector<std::pair<std::string_view, std::string_view>> pairs;
  for (const std::string& a : rows) pairs.emplace_back(a, b);
  return TimeLanes("shared_" + std::to_string(pattern_length) + "bp", pairs);
}

// The pair form: 128 pairs of 300-700 bp, every other one a sequence and
// a copy with 8% substitutions and a few short indels.
LaneResult RunPairLanes() {
  Rng rng(7300);
  std::vector<std::pair<std::string, std::string>> store;
  for (int i = 0; i < 128; ++i) {
    std::string a = rng.RandomDna(300 + rng.Uniform(401));
    std::string b;
    if (i % 2 == 0) {
      for (size_t k = 0; k < a.size(); ++k) {
        if (rng.Bernoulli(0.01)) continue;
        if (rng.Bernoulli(0.01)) b += rng.RandomDna(1 + rng.Uniform(3));
        b.push_back(rng.Bernoulli(0.08) ? rng.Pick("ACGT") : a[k]);
      }
    } else {
      b = rng.RandomDna(300 + rng.Uniform(401));
    }
    store.emplace_back(std::move(a), std::move(b));
  }
  std::vector<std::pair<std::string_view, std::string_view>> pairs(
      store.begin(), store.end());
  return TimeLanes("pairs_300_700bp", pairs);
}

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
                                   "/BENCH_align_kernels.json";

  // Untimed warmup at the largest size.
  RunLength(kLengths[kNumLengths - 1]);

  LengthResult results[kNumLengths];
  for (size_t i = 0; i < kNumLengths; ++i) {
    results[i] = RunLength(kLengths[i]);
    std::printf(
        "len=%-5zu full=%.2fms score=%.2fms (%.1fx) stats=%.2fms "
        "(%.1fx)\n",
        results[i].length, results[i].full_dp_ms, results[i].score_only_ms,
        results[i].full_dp_ms / results[i].score_only_ms,
        results[i].stats_ms, results[i].full_dp_ms / results[i].stats_ms);
  }
  PredicateResult predicates[] = {
      RunPredicate("permissive", 0.8, 16),
      RunPredicate("stringent", 0.9, 200),
  };
  for (const PredicateResult& p : predicates) {
    std::printf(
        "resembles[%s id>=%.2f len>=%zu] x%zu pairs: full=%.2fms "
        "batch=%.2fms (%.1fx)\n",
        p.name, p.min_identity, p.min_overlap, p.pairs, p.full_dp_ms,
        p.batch_ms, p.full_dp_ms / p.batch_ms);
  }

  LaneResult lanes[] = {RunSharedLanes(40), RunSharedLanes(200),
                        RunPairLanes()};
  for (const LaneResult& l : lanes) {
    std::printf("lanes[%s x %zu] pairs/s: scalar=%.0f", l.workload.c_str(),
                l.pairs, l.scalar.median);
    for (size_t w = 0; w < 3; ++w) {
      std::printf(" %s=%.0f (%.2fx)", kIsa[w], l.lanes[w].median,
                  l.vs_scalar[w].median);
    }
    std::printf("; lane widths verified against scalar: %s\n",
                l.verified.c_str());
  }

  FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"benchmark\": \"align_kernels\",\n");
  std::fprintf(out,
               "  \"setup\": {\"pair\": \"8%% mutated copy, shifted\", "
               "\"gap_open\": -5, \"gap_extend\": -1, "
               "\"threads\": 1},\n");
  std::fprintf(out, "  \"lengths\": [\n");
  for (size_t i = 0; i < kNumLengths; ++i) {
    const LengthResult& r = results[i];
    std::fprintf(
        out,
        "    {\"length\": %zu, \"full_dp_ms\": %.3f, "
        "\"score_only_ms\": %.3f, \"score_only_speedup\": %.2f, "
        "\"stats_ms\": %.3f, \"stats_speedup\": %.2f, "
        "\"full_dp_peak_bytes\": %zu, \"score_only_peak_bytes\": %zu, "
        "\"stats_peak_bytes\": %zu}%s\n",
        r.length, r.full_dp_ms, r.score_only_ms,
        r.full_dp_ms / r.score_only_ms, r.stats_ms,
        r.full_dp_ms / r.stats_ms, r.full_dp_bytes, r.score_only_bytes,
        r.stats_bytes, i + 1 < kNumLengths ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"resembles_predicate\": [\n");
  for (size_t p = 0; p < 2; ++p) {
    const PredicateResult& r = predicates[p];
    std::fprintf(out,
                 "    {\"config\": \"%s\", \"min_identity\": %.2f, "
                 "\"min_overlap\": %zu, \"pairs\": %zu, "
                 "\"full_dp_ms\": %.3f, \"batch_resembles_ms\": %.3f, "
                 "\"speedup\": %.2f}%s\n",
                 r.name, r.min_identity, r.min_overlap, r.pairs,
                 r.full_dp_ms, r.batch_ms, r.full_dp_ms / r.batch_ms,
                 p + 1 < 2 ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out,
               "  \"machine\": {\"nproc\": %u, \"compiler\": \"%s\", "
               "\"lane_isa\": \"%s\"},\n",
               std::thread::hardware_concurrency(), kCompiler,
               genalg::align::StatsLanes() == 32   ? "avx512bw"
               : genalg::align::StatsLanes() == 16 ? "avx2"
                                                   : "sse2");
  std::fprintf(out, "  \"lanes\": [\n");
  for (size_t i = 0; i < 3; ++i) {
    const LaneResult& l = lanes[i];
    std::fprintf(out,
                 "    {\"workload\": \"%s\", \"pairs\": %zu, "
                 "\"reps\": 15, \"scalar_pairs_per_s\": %.0f, "
                 "\"scalar_iqr\": %.0f",
                 l.workload.c_str(), l.pairs, l.scalar.median, l.scalar.iqr);
    for (size_t w = 0; w < 3; ++w) {
      std::fprintf(out,
                   ", \"%s_pairs_per_s\": %.0f, \"%s_iqr\": %.0f, "
                   "\"%s_vs_scalar\": %.2f, \"%s_vs_scalar_iqr\": %.2f",
                   kIsa[w], l.lanes[w].median, kIsa[w], l.lanes[w].iqr,
                   kIsa[w], l.vs_scalar[w].median, kIsa[w],
                   l.vs_scalar[w].iqr);
    }
    std::fprintf(out, ", \"verified_lanes\": [%s]}%s\n",
                 l.verified.c_str(), i + 1 < 3 ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
