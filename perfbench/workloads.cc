#include "workloads.h"

#include <malloc.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <thread>

#include "align/aligner.h"
#include "base/bytes.h"
#include "base/rng.h"
#include "bql/bql.h"
#include "checker.h"
#include "net/client.h"
#include "net/frame.h"
#include "obs/metrics.h"
#include "seq/nucleotide_sequence.h"
#include "stack.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
namespace udb = genalg::udb;
using genalg::Result;
using genalg::Status;
using genalg::obs::MetricsSnapshot;

enum class Kind { kLookup, kSimilarity, kRefresh };

struct Query {
  std::string bql;
  std::string type;
};

struct Config {
  StackOptions stack;
  size_t clients = 2;
  /// The timed window is served as this many equal segments, each followed
  /// by an in-process chunk on the next CPU of the rotation. End-to-end
  /// figures are medians over segments, so a stretch of host noise spoils
  /// only some of them; the tail pools the reads of all segments, since
  /// one segment has too few beyond the percentile. A multiple of the CPU
  /// count keeps the pinned work balanced over the CPUs.
  size_t segments = 8;
  size_t setup_reps = 5;
  double warmup_s = 0.2;  ///< Per segment, before its timed part.
  /// The workload's fixed tail percentile; a 32 s run has at least ten
  /// samples beyond it.
  double tail_q = 0.99;
  /// Minimum length of one in-process chunk (at least one pass).
  double inproc_chunk_s = 0.25;
  /// refresh: the writer's open-loop round period.
  double writer_period_s = 0;
  /// refresh: in segment s every thread of the served path runs on CPU s
  /// of the rotation and the writer on CPU s + 1, so each run weighs every
  /// CPU of a shared host equally instead of wherever the scheduler put
  /// the reader.
  bool pin_served = false;
  /// lookup/similarity: uncontended refresh rounds on a stack of their
  /// own, spread evenly over the segments, each on the next CPU of the
  /// rotation.
  size_t idle_rounds = 0;
  /// File-backed database with a write-ahead log (fsync every commit).
  bool wal = false;
};

Config MakeConfig(Kind kind, uint64_t seed) {
  Config c;
  c.stack.seed = seed;
  c.stack.worker_threads = 4;
  switch (kind) {
    case Kind::kLookup:
      c.stack.records_per_source = 100;
      c.stack.pool_pages = 4096;
      c.stack.evolve_p_update = 0.05;
      c.tail_q = 0.999;
      c.idle_rounds = 240;
      break;
    case Kind::kSimilarity:
      c.stack.records_per_source = 30;
      c.stack.pool_pages = 4096;
      c.setup_reps = 9;
      c.warmup_s = 0;
      c.tail_q = 0.90;
      c.inproc_chunk_s = 0;
      // About 18 updates a round, so a round's time averages over many
      // records rather than hanging on which few were drawn.
      c.stack.evolve_p_update = 0.15;
      c.idle_rounds = 160;
      break;
    case Kind::kRefresh:
      c.stack.records_per_source = 150;
      c.stack.pool_pages = 20;
      c.wal = true;
      c.stack.evolve_p_update = 0.004;
      c.stack.evolve_p_churn = 0.25;
      // One reader: a second one mostly measures contention on the buffer
      // pool's mutex, which made the figures swing with host noise.
      c.clients = 1;
      // One read in about 75 waits behind a round, so p99.5 sits in the
      // middle of those waits whatever the read rate.
      c.tail_q = 0.995;
      // Eight rounds a second: the round and tail figures are medians over
      // enough rounds that the draw of deltas hardly moves them.
      c.writer_period_s = 0.125;
      c.setup_reps = 3;
      c.pin_served = true;
      c.segments = 16;
      break;
  }
  return c;
}

// ------------------------------------------------------------- Inputs.

struct LoadedRow {
  std::string accession;
  std::string text;
  genalg::seq::NucleotideSequence seq;
};

Result<std::vector<LoadedRow>> LoadedRows(udb::Database* db) {
  GENALG_ASSIGN_OR_RETURN(const udb::TableSchema* schema,
                          db->GetSchema("sequences"));
  GENALG_ASSIGN_OR_RETURN(size_t acc_col, schema->ColumnIndex("accession"));
  GENALG_ASSIGN_OR_RETURN(size_t seq_col, schema->ColumnIndex("seq"));
  GENALG_ASSIGN_OR_RETURN(std::vector<udb::Row> rows,
                          db->ScanTable("sequences"));
  std::vector<LoadedRow> out;
  for (const udb::Row& row : rows) {
    LoadedRow loaded;
    GENALG_ASSIGN_OR_RETURN(loaded.accession, row[acc_col].AsString());
    GENALG_ASSIGN_OR_RETURN(udb::UdtPayload udt, row[seq_col].AsUdt());
    genalg::BytesReader reader(udt.bytes);
    GENALG_ASSIGN_OR_RETURN(loaded.seq,
                            genalg::seq::NucleotideSequence::Deserialize(
                                &reader));
    loaded.text = loaded.seq.ToString();
    out.push_back(std::move(loaded));
  }
  // Physical order is not part of the contract; draw from a stable one.
  std::sort(out.begin(), out.end(),
            [](const LoadedRow& a, const LoadedRow& b) {
              return a.accession < b.accession;
            });
  return out;
}

/// A window of plain ACGT cut from a random loaded sequence.
std::string CutWindow(genalg::Rng* rng, const std::vector<LoadedRow>& rows,
                      size_t length) {
  for (;;) {
    const std::string& text = rows[rng->Uniform(rows.size())].text;
    if (text.size() < length) continue;
    std::string window =
        text.substr(rng->Uniform(text.size() - length + 1), length);
    if (window.find_first_not_of("ACGT") == std::string::npos) return window;
  }
}

std::string Mutate(genalg::Rng* rng, std::string dna, size_t substitutions) {
  static constexpr char kBases[] = "ACGT";
  for (size_t i = 0; i < substitutions; ++i) {
    size_t at = rng->Uniform(dna.size());
    size_t base = std::string_view(kBases).find(dna[at]);
    dna[at] = kBases[(base + 1 + rng->Uniform(3)) % 4];
  }
  return dna;
}

std::string Fixed(double value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", value);
  return buf;
}

/// lookup: two B+-tree feature probes per k-mer containment probe.
std::vector<Query> LookupPool(genalg::Rng* rng,
                              const std::vector<LoadedRow>& rows) {
  std::vector<Query> pool;
  for (int i = 0; i < 24; ++i) {
    for (int j = 0; j < 2; ++j) {
      pool.push_back({"find features of " +
                          rows[rng->Uniform(rows.size())].accession,
                      "features_of"});
    }
    pool.push_back({"find sequences containing " +
                        CutWindow(rng, rows, 10 + rng->Uniform(3)),
                    "containing"});
  }
  return pool;
}

/// similarity: 40 bp patterns (2 substitutions) outnumber 200 bp ones
/// (8 substitutions) three to one, so the median sits inside the 40 bp
/// class; each pattern is asked as a count and as a first-10 find.
std::vector<Query> SimilarityPool(genalg::Rng* rng,
                                  const std::vector<LoadedRow>& rows) {
  std::vector<Query> pool;
  for (int i = 0; i < 2; ++i) {
    std::string long_pattern = Mutate(rng, CutWindow(rng, rows, 200), 8);
    for (int j = 0; j < 3; ++j) {
      std::string pattern = Mutate(rng, CutWindow(rng, rows, 40), 2);
      pool.push_back({"count sequences resembling " + pattern,
                      "count_resembling_40"});
      pool.push_back({"find sequences resembling " + pattern + " first 10",
                      "find_resembling_40"});
    }
    pool.push_back({"count sequences resembling " + long_pattern,
                    "count_resembling_200"});
    pool.push_back({"find sequences resembling " + long_pattern +
                        " first 10",
                    "find_resembling_200"});
  }
  return pool;
}

/// refresh: analytical scans over the whole sequences table.
std::vector<Query> RefreshPool(genalg::Rng* rng) {
  std::vector<Query> pool;
  for (int i = 0; i < 4; ++i) {
    pool.push_back({"show gc of sequences with gc above " +
                        Fixed(0.49 + 0.02 * rng->NextDouble()),
                    "show_gc"});
    pool.push_back({"count sequences with length above " +
                        std::to_string(rng->UniformInt(300, 700)),
                    "count_length"});
    pool.push_back({"find sequences with confidence above " +
                        Fixed(0.5 + 0.4 * rng->NextDouble()),
                    "find_confidence"});
  }
  return pool;
}

// ------------------------------------------------------ In-process path.

/// The expected answers: one untimed pass of bql::RunBql over the pool.
bool ExpectedAnswers(udb::Database* db, const std::vector<Query>& pool,
                     std::vector<Answer>* answers,
                     std::vector<std::string>* problems) {
  for (const Query& query : pool) {
    auto result = genalg::bql::RunBql(db, query.bql);
    if (!result.ok()) {
      problems->push_back("in-process '" + query.bql +
                          "': " + result.status().ToString());
      return false;
    }
    answers->push_back(Canonical(*result));
  }
  return true;
}

/// One timed in-process chunk: passes of the query stream through
/// bql::RunBql on one thread, pinned to CPU `slot` of the rotation, until
/// `min_s` has elapsed (at least one pass). `check` returns "" for a
/// correct answer of query i. Returns the chunk's median latency.
double InprocChunk(udb::Database* db, const std::vector<Query>& pool,
                   CpuRotation* cpus, size_t slot, double min_s,
                   const std::function<std::string(size_t, const Answer&)>&
                       check,
                   std::vector<std::string>* problems) {
  cpus->Select(slot);
  std::vector<double> latency_ms;
  const Clock::time_point start = Clock::now();
  do {
    for (size_t i = 0; i < pool.size(); ++i) {
      const Clock::time_point t0 = Clock::now();
      auto result = genalg::bql::RunBql(db, pool[i].bql);
      latency_ms.push_back(MicrosBetween(t0, Clock::now()) / 1000.0);
      std::string d = result.ok() ? check(i, Canonical(*result))
                                  : result.status().ToString();
      if (!d.empty() && problems->size() < 20) {
        problems->push_back("in-process '" + pool[i].bql + "': " + d);
      }
    }
  } while (SecondsBetween(start, Clock::now()) < min_s);
  cpus->Restore();  // The next segment's threads must not inherit the pin.
  return Median(latency_ms);
}

// --------------------------------------------------------- Served path.

struct ReadRecord {
  uint32_t query;
  bool timed;  // Sent after the warm-up.
  int64_t send_ns;
  int64_t reply_ns;
  uint64_t digest;
};

struct ClientLog {
  std::vector<double> latency_ms;  // Correct timed reads.
  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t wrong = 0;
  uint64_t rejected = 0;
  uint64_t timeouts = 0;
  uint64_t errors = 0;
  std::vector<ReadRecord> reads;  // refresh: checked after the twin replay.
  std::vector<std::string> problems;
  SpanLog spans{true};
};

struct Round {
  int64_t due_ns;
  int64_t start_ns;
  int64_t end_ns;
  std::string error;  // Empty when the round committed.
};

struct ServedResult {
  std::vector<ClientLog> clients;
  std::vector<Round> rounds;
  double wall_s = 0;
  MetricsSnapshot delta;  // Registry delta over the timed window.
};

int64_t NanosSince(Clock::time_point origin, Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin)
      .count();
}

Clock::duration Secs(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

/// One segment: closed-loop clients (one outstanding query each) against
/// the in-process server for `seconds` after a warm-up; in refresh the
/// writer thread runs rounds on an open-loop schedule beside them. With
/// `traced`, every read is wrapped in a span.
ServedResult Serve(Stack* stack, const Config& config,
                   const std::vector<Query>& pool,
                   const std::vector<Answer>* expected, double seconds,
                   bool traced, Clock::time_point origin, CpuRotation* cpus,
                   size_t slot) {
  ServedResult out;
  out.clients.resize(config.clients);
  const uint16_t port = stack->server->port();
  std::atomic<size_t> ready{0};
  std::atomic<bool> go{false};
  Clock::time_point t0;
  Clock::time_point t_end;

  auto client_body = [&](size_t c) {
    ClientLog& log = out.clients[c];
    auto connected = genalg::net::GenAlgClient::Connect(
        "127.0.0.1", port, "perfbench-" + std::to_string(c));
    ready.fetch_add(1);
    if (!connected.ok()) {
      log.problems.push_back("connect: " + connected.status().ToString());
      return;
    }
    auto& client = *connected;
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    size_t next = c * pool.size() / config.clients;
    uint64_t request = static_cast<uint64_t>(c + 1) << 40;
    for (;;) {
      const Clock::time_point send = Clock::now();
      if (send >= t_end) break;
      const bool timed = send >= t0;
      const uint32_t qi = static_cast<uint32_t>(next++ % pool.size());
      int32_t span = traced ? log.spans.Open("served.query", ++request) : -1;
      auto result = client->QueryAll(pool[qi].bql);
      const Clock::time_point reply = Clock::now();
      log.spans.Close(span);
      if (timed) ++log.attempted;
      if (!result.ok()) {
        const Status& s = result.status();
        if (timed) {
          if (s.IsResourceExhausted()) {
            ++log.rejected;
          } else if (s.message().rfind("timeout", 0) == 0) {
            ++log.timeouts;
          } else {
            ++log.errors;
          }
        }
        if (log.problems.size() < 5) {
          log.problems.push_back("served '" + pool[qi].bql +
                                 "': " + s.ToString());
        }
        if (!client->connected() && !client->Reconnect().ok()) return;
        continue;
      }
      Answer answer = Canonical(*result);
      if (expected == nullptr) {
        // refresh: checked against the twin's rounds after the window.
        log.reads.push_back({qi, timed, NanosSince(origin, send),
                             NanosSince(origin, reply), Digest(answer)});
      } else if (std::string d = Diff((*expected)[qi], answer); !d.empty()) {
        if (timed) ++log.wrong;
        if (log.problems.size() < 5) {
          log.problems.push_back("served '" + pool[qi].bql + "': " + d);
        }
        continue;
      }
      if (!timed) continue;
      ++log.ok;
      log.latency_ms.push_back(MicrosBetween(send, reply) / 1000.0);
    }
  };

  auto writer_body = [&]() {
    if (config.pin_served) cpus->Select(slot + 1);
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    for (size_t k = 1;; ++k) {
      const Clock::time_point due =
          t0 + Secs(config.writer_period_s * static_cast<double>(k));
      if (due >= t_end) break;
      std::this_thread::sleep_until(due);
      const Clock::time_point start = Clock::now();
      auto stats = stack->RefreshRound();
      const Clock::time_point end = Clock::now();
      out.rounds.push_back({NanosSince(origin, due), NanosSince(origin, start),
                            NanosSince(origin, end),
                            stats.ok() ? "" : stats.status().ToString()});
    }
  };

  // Pinned before the clients connect: the session readers the acceptor
  // starts for them inherit the pin.
  if (config.pin_served) cpus->SelectAll(slot);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < config.clients; ++c) {
    threads.emplace_back(client_body, c);
  }
  while (ready.load() < config.clients) std::this_thread::yield();
  t0 = Clock::now() + Secs(config.warmup_s);
  t_end = t0 + Secs(seconds);
  if (config.writer_period_s > 0) threads.emplace_back(writer_body);
  go.store(true, std::memory_order_release);

  std::this_thread::sleep_until(t0);
  MetricsSnapshot before = genalg::obs::Registry::Global().Snapshot();
  for (auto& thread : threads) thread.join();
  const Clock::time_point done = Clock::now();
  out.delta = genalg::obs::Registry::Global().Snapshot().Since(before);
  out.wall_s = SecondsBetween(t0, done);
  if (config.pin_served) cpus->RestoreAll();
  return out;
}

// -------------------------------------------------------- Layer pass.

struct LayerStats {
  std::map<std::string, std::vector<double>> execute_us_by_type;
  uint64_t queries = 0;       // First pass (exact counts).
  uint64_t rows_scanned = 0;
  uint64_t result_rows = 0;
  uint64_t resembles_rows = 0;
  uint64_t page_bytes = 0;
  MetricsSnapshot delta;      // First pass.
};

/// The traced single-threaded decomposition of each query into the calls
/// the serving path makes: parse + compile (bql), Execute (udb, with the
/// align/index kernels inside it), and the result-page codec (net).
/// Passes rotate over the CPUs (see CpuRotation); exact counts come from
/// the first pass.
bool LayerPass(udb::Database* db, const std::vector<Query>& pool,
               const std::vector<Answer>& answers, double min_s,
               SpanLog* spans, LayerStats* stats,
               std::vector<std::string>* problems) {
  const Clock::time_point start = Clock::now();
  CpuRotation cpus;
  uint64_t request = 0;
  for (size_t pass = 0;
       pass % cpus.cycle() != 0 || pass == 0 ||
       SecondsBetween(start, Clock::now()) < min_s;
       ++pass) {
    const bool first = pass == 0;
    cpus.Select(pass);
    MetricsSnapshot before = genalg::obs::Registry::Global().Snapshot();
    for (size_t i = 0; i < pool.size(); ++i) {
      ScopedSpan root(spans, "inproc.query", ++request);
      int32_t span = spans->Open("bql.parse_compile", request, root.id());
      auto parsed = genalg::bql::ParseBql(pool[i].bql);
      if (!parsed.ok()) {
        problems->push_back("parse '" + pool[i].bql + "'");
        return false;
      }
      const std::string sql = parsed->Compile();
      spans->Close(span);

      span = spans->Open("udb.execute", request, root.id());
      auto result = db->Execute(sql);
      spans->Close(span);
      stats->execute_us_by_type[pool[i].type].push_back(
          spans->DurationUs(span));
      if (!result.ok()) {
        problems->push_back("execute '" + sql +
                            "': " + result.status().ToString());
        return false;
      }
      const uint64_t scanned = db->last_rows_scanned();
      // Exactly the pages the server would ship (256 rows each).
      uint64_t bytes = 0;
      udb::QueryResult decoded;
      {
        ScopedSpan codec(spans, "net.page_codec", request, root.id());
        genalg::net::QueryMsg query_msg;
        query_msg.query_id = request;
        query_msg.bql = pool[i].bql;
        bytes += genalg::net::kFrameHeaderBytes + 1 +
                 query_msg.Encode().size();
        const size_t total = result->rows.size();
        size_t offset = 0;
        uint32_t index = 0;
        do {
          genalg::net::ResultPageMsg page;
          page.query_id = request;
          page.page_index = index;
          size_t end = std::min(total, offset + 256);
          page.rows.assign(result->rows.begin() + offset,
                           result->rows.begin() + end);
          offset = end;
          page.last = offset >= total;
          if (index == 0) page.columns = result->columns;
          if (page.last) page.message = result->message;
          std::vector<uint8_t> body = page.Encode();
          bytes += genalg::net::kFrameHeaderBytes + 1 + body.size();
          auto back = genalg::net::ResultPageMsg::Decode(body);
          if (!back.ok()) {
            problems->push_back("page decode failed");
            return false;
          }
          if (index == 0) decoded.columns = back->columns;
          decoded.message = back->message;
          for (auto& row : back->rows) decoded.rows.push_back(std::move(row));
          ++index;
        } while (offset < total);
      }
      if (std::string d = Diff(answers[i], Canonical(decoded)); !d.empty()) {
        problems->push_back("layer pass '" + pool[i].bql + "': " + d);
      }
      if (first) {
        ++stats->queries;
        stats->rows_scanned += scanned;
        stats->result_rows += result->rows.size();
        stats->page_bytes += bytes;
        if (pool[i].bql.find("resembling") != std::string::npos) {
          stats->resembles_rows += scanned;
        }
      }
    }
    if (first) {
      stats->delta = genalg::obs::Registry::Global().Snapshot().Since(before);
    }
  }
  return true;
}

// ------------------------------------------------------------ Helpers.

double HistogramMean(const MetricsSnapshot& s, const std::string& name) {
  auto it = s.histograms.find(name);
  if (it == s.histograms.end() || it->second.count == 0) return 0;
  return static_cast<double>(it->second.sum) /
         static_cast<double>(it->second.count);
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

void Accumulate(MetricsSnapshot* sum, const MetricsSnapshot& delta) {
  for (const auto& [name, v] : delta.counters) sum->counters[name] += v;
  for (const auto& [name, h] : delta.histograms) {
    auto& total = sum->histograms[name];
    total.count += h.count;
    total.sum += h.sum;
  }
}

/// A field of /proc/self/status in MB: VmHWM (peak) or VmRSS (now).
double StatusMb(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      return std::stod(line.substr(field.size() + 1)) / 1024.0;
    }
  }
  return 0;
}

std::string Join(const std::vector<double>& v) {
  std::string s;
  for (double x : v) s += (s.empty() ? "" : ",") + Fixed(x);
  return s;
}

/// Builds the stack `config.setup_reps` times and keeps the last one.
/// All but the last build run in forked children, so the measured process
/// carries no heap left over from earlier set-ups; it must still be
/// single-threaded when this is called.
std::unique_ptr<Stack> SetUp(const Config& config, const std::string& dir,
                             std::vector<SetupTimes>* times) {
  auto options_for = [&](size_t rep) {
    StackOptions options = config.stack;
    if (config.wal) {
      options.wal_dir = dir + "/db" + std::to_string(rep);
      fs::remove_all(options.wal_dir);
      fs::create_directories(options.wal_dir);
    }
    return options;
  };
  for (size_t rep = 0; rep + 1 < config.setup_reps; ++rep) {
    int fds[2];
    if (pipe(fds) != 0) return nullptr;
    const pid_t pid = fork();
    if (pid < 0) return nullptr;
    if (pid == 0) {
      close(fds[0]);
      SetupTimes t;
      auto built = BuildStack(options_for(rep), &t);
      bool ok = built.ok();
      built = Status::OK();  // Tears the stack down (drains its server).
      ok = ok && write(fds[1], &t, sizeof t) == sizeof t;
      _exit(ok ? 0 : 1);
    }
    close(fds[1]);
    SetupTimes t;
    const bool got = read(fds[0], &t, sizeof t) == sizeof t;
    close(fds[0]);
    int status = 0;
    waitpid(pid, &status, 0);
    if (!got || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      return nullptr;
    }
    times->push_back(t);
    if (config.wal) fs::remove_all(dir + "/db" + std::to_string(rep));
  }
  SetupTimes t;
  auto built = BuildStack(options_for(config.setup_reps), &t);
  if (!built.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n",
                 built.status().ToString().c_str());
    return nullptr;
  }
  times->push_back(t);
  return std::move(*built);
}

/// Feature lookups against a filtered table scan, and `resembles` counts
/// against align::Resembles on every (pattern, row) pair: oracles that
/// bypass the executor. Returns the mean time of one Resembles call.
double CheckOracles(Kind kind, udb::Database* db,
                    const std::vector<Query>& pool,
                    const std::vector<Answer>& expected,
                    const std::vector<LoadedRow>& rows, RunOutput* out) {
  auto& problems = out->problems;
  if (kind == Kind::kLookup) {
    auto schema = db->GetSchema("features");
    auto table = db->ScanTable("features");
    if (!schema.ok() || !table.ok()) {
      problems.push_back("feature oracle: cannot scan features");
      return 0;
    }
    std::vector<size_t> cols;
    for (const char* name : {"accession", "fid", "kind", "begin", "fin",
                             "strand", "confidence"}) {
      cols.push_back(*(*schema)->ColumnIndex(name));
    }
    size_t checked = 0;
    for (size_t i = 0; i < pool.size(); ++i) {
      if (pool[i].type != "features_of") continue;
      const std::string acc = pool[i].bql.substr(pool[i].bql.rfind(' ') + 1);
      udb::QueryResult oracle;
      oracle.columns = expected[i].columns;
      for (const udb::Row& row : *table) {
        if (*row[cols[0]].AsString() != acc) continue;
        udb::Row projected;
        for (size_t col : cols) projected.push_back(row[col]);
        oracle.rows.push_back(std::move(projected));
      }
      if (std::string d = DiffUnordered(expected[i], Canonical(oracle));
          !d.empty()) {
        problems.push_back("feature oracle for " + acc + ": " + d);
      }
      ++checked;
    }
    out->notes.push_back("oracle: " + std::to_string(checked) +
                         " feature lookups checked against a table scan");
    return 0;
  }
  if (kind != Kind::kSimilarity) return 0;
  size_t pairs = 0;
  double total_us = 0;
  for (size_t i = 0; i < pool.size(); ++i) {
    if (pool[i].type.rfind("count_", 0) != 0) continue;
    const std::string text = pool[i].bql.substr(pool[i].bql.rfind(' ') + 1);
    auto pattern = genalg::seq::NucleotideSequence::Dna(text);
    int64_t hits = 0;
    for (const LoadedRow& row : rows) {
      const Clock::time_point t = Clock::now();
      auto verdict = genalg::align::Resembles(row.seq, *pattern);
      total_us += MicrosBetween(t, Clock::now());
      ++pairs;
      hits += verdict.ok() && *verdict ? 1 : 0;
    }
    udb::QueryResult oracle;
    oracle.columns = expected[i].columns;
    oracle.rows.push_back({udb::Datum::Int(hits)});
    if (std::string d = Diff(expected[i], Canonical(oracle)); !d.empty()) {
      problems.push_back("resembles oracle for '" + pool[i].bql + "': " + d);
    }
  }
  out->notes.push_back("oracle: " + std::to_string(pairs) +
                       " (pattern, row) pairs through align::Resembles");
  return Ratio(total_us, static_cast<double>(pairs));
}

/// refresh: rebuilds a twin stack from the same seed, replays `rounds`
/// rounds, and returns versions[q][k], the digest of query q's answer
/// after round k (round 0: the initial load). `final_answers` gets the
/// answers after the last round.
bool ReplayTwin(const Config& config, const std::vector<Query>& pool,
                size_t rounds, std::vector<std::vector<uint64_t>>* versions,
                std::vector<Answer>* final_answers) {
  StackOptions options = config.stack;
  options.worker_threads = 0;
  options.pool_pages = 8192;
  SetupTimes ignored;
  auto twin = BuildStack(options, &ignored);
  if (!twin.ok()) return false;
  versions->assign(pool.size(), {});
  for (size_t k = 0; k <= rounds; ++k) {
    if (k > 0 && !(*twin)->RefreshRound().ok()) return false;
    for (size_t q = 0; q < pool.size(); ++q) {
      auto result = genalg::bql::RunBql((*twin)->db.get(), pool[q].bql);
      if (!result.ok()) return false;
      Answer answer = Canonical(*result);
      (*versions)[q].push_back(Digest(answer));
      if (k == rounds) final_answers->push_back(std::move(answer));
    }
  }
  return true;
}

}  // namespace

bool IsWorkload(const std::string& name) {
  return name == "lookup" || name == "similarity" || name == "refresh";
}

bool RunWorkload(const RunOptions& options, RunOutput* out) {
  const Kind kind = options.workload == "lookup"       ? Kind::kLookup
                    : options.workload == "similarity" ? Kind::kSimilarity
                                                       : Kind::kRefresh;
  const Config config = MakeConfig(kind, options.seed);
  auto& problems = out->problems;
  fs::create_directories(options.work_dir);

  // ---- Set-up.
  std::vector<SetupTimes> setups;
  std::unique_ptr<Stack> stack = SetUp(config, options.work_dir, &setups);
  if (stack == nullptr) return false;
  std::vector<double> setup_s, load_s, index_s;
  for (const SetupTimes& t : setups) {
    setup_s.push_back(t.total_s);
    load_s.push_back(t.initial_load_s);
    index_s.push_back(t.index_build_s);
  }
  out->notes.push_back("setup_s reps: " + Join(setup_s) +
                       "; peak RSS after set-up " + Fixed(StatusMb("VmHWM")) +
                       " MB");
  // Hand the set-up's freed heap back, so the resident set sampled while
  // serving counts what the deployment holds, not what set-up left free.
  malloc_trim(0);

  auto rows = LoadedRows(stack->db.get());
  if (!rows.ok() || rows->empty()) {
    std::fprintf(stderr, "no loaded rows\n");
    return false;
  }
  genalg::Rng rng(options.seed * 1000003 + static_cast<uint64_t>(kind));
  const std::vector<Query> pool =
      kind == Kind::kLookup       ? LookupPool(&rng, *rows)
      : kind == Kind::kSimilarity ? SimilarityPool(&rng, *rows)
                                  : RefreshPool(&rng);

  // ---- Expected answers, in process at set-up (lookup, similarity).
  std::vector<Answer> expected;
  if (kind != Kind::kRefresh &&
      !ExpectedAnswers(stack->db.get(), pool, &expected, &problems)) {
    return false;
  }
  const double pair_us =
      CheckOracles(kind, stack->db.get(), pool, expected, *rows, out);

  // ---- lookup/similarity: the uncontended rounds run on a stack of their
  // own, so they change no answer the reads are checked against.
  std::unique_ptr<Stack> round_stack;
  if (config.idle_rounds > 0) {
    StackOptions round_options = config.stack;
    round_options.worker_threads = 0;
    SetupTimes ignored;
    auto built = BuildStack(round_options, &ignored);
    if (!built.ok()) {
      std::fprintf(stderr, "round stack: %s\n",
                   built.status().ToString().c_str());
      return false;
    }
    round_stack = std::move(*built);
  }
  Stack* const writer_stack =
      round_stack != nullptr ? round_stack.get() : stack.get();

  // ---- Timed segments, each followed by an in-process chunk.
  struct InprocRead {
    uint32_t query;
    size_t round;
    uint64_t digest;
  };
  std::vector<InprocRead> inproc_reads;  // refresh: checked by the twin.
  CpuRotation cpus;
  std::vector<Round> all_rounds;
  auto inproc_check = [&](size_t i, const Answer& answer) -> std::string {
    if (kind != Kind::kRefresh) return Diff(expected[i], answer);
    inproc_reads.push_back({static_cast<uint32_t>(i), all_rounds.size(),
                            Digest(answer)});
    return "";
  };

  const uint64_t rows_written_before = writer_stack->warehouse->rows_written();
  const Clock::time_point origin = Clock::now();
  const double segment_s =
      options.seconds / static_cast<double>(config.segments);
  std::vector<double> qps, p50, tail, traced_p50, inproc_p50, read_ms;
  std::vector<double> round_ms, late_ms;
  size_t failed_rounds = 0;
  double rss_mb = 0;  // Largest resident set sampled after a segment.
  MetricsSnapshot write_delta;  // Over the refresh rounds.
  std::string reads_per_segment;
  uint64_t attempted = 0, failed = 0, rejected = 0;
  MetricsSnapshot served_delta;  // Summed over untraced segments.
  const MetricsSnapshot loop_before =
      genalg::obs::Registry::Global().Snapshot();
  double served_wall_s = 0;
  SpanLog spans(options.trace);
  std::vector<ClientLog> logs;
  for (size_t s = 0; s < config.segments; ++s) {
    const bool traced = options.trace && s % 2 == 1;
    ServedResult served =
        Serve(stack.get(), config, pool,
              kind == Kind::kRefresh ? nullptr : &expected, segment_s, traced,
              origin, &cpus, s);
    std::vector<double> latency;
    uint64_t segment_ok = 0;
    for (ClientLog& log : served.clients) {
      latency.insert(latency.end(), log.latency_ms.begin(),
                     log.latency_ms.end());
      segment_ok += log.ok;
      attempted += log.attempted;
      failed += log.wrong + log.rejected + log.timeouts + log.errors;
      rejected += log.rejected;
      for (auto& p : log.problems) problems.push_back(p);
      if (traced) spans.Absorb(std::move(log.spans));
      logs.push_back(std::move(log));
    }
    for (Round& r : served.rounds) all_rounds.push_back(std::move(r));
    if (traced) {
      traced_p50.push_back(Median(latency));
    } else {
      qps.push_back(Ratio(static_cast<double>(segment_ok), served.wall_s));
      p50.push_back(Median(latency));
      tail.push_back(Quantile(latency, config.tail_q));
      read_ms.insert(read_ms.end(), latency.begin(), latency.end());
      served_wall_s += served.wall_s;
      Accumulate(&served_delta, served.delta);
    }
    reads_per_segment += (s == 0 ? "" : ",") + std::to_string(latency.size());
    rss_mb = std::max(rss_mb, StatusMb("VmRSS"));
    inproc_p50.push_back(InprocChunk(stack->db.get(), pool, &cpus, s,
                                     config.inproc_chunk_s, inproc_check,
                                     &problems));
    if (round_stack != nullptr) {
      const MetricsSnapshot before = genalg::obs::Registry::Global().Snapshot();
      for (size_t k = 0; k < config.idle_rounds / config.segments; ++k) {
        cpus.Select(round_ms.size());
        const Clock::time_point t = Clock::now();
        auto stats = round_stack->RefreshRound();
        round_ms.push_back(MicrosBetween(t, Clock::now()) / 1000.0);
        if (!stats.ok()) {
          ++failed_rounds;
          problems.push_back("refresh round: " + stats.status().ToString());
        }
      }
      cpus.Restore();
      Accumulate(&write_delta,
                 genalg::obs::Registry::Global().Snapshot().Since(before));
    }
  }
  rss_mb = std::max(rss_mb, StatusMb("VmRSS"));
  out->notes.push_back("peak RSS: " + Fixed(StatusMb("VmHWM")) +
                       " MB over the run, " + Fixed(rss_mb) +
                       " MB sampled while serving");
  out->notes.push_back("segments: reads " + reads_per_segment + "; qps " +
                       Join(qps) + "; p50 ms " + Join(p50) +
                       "; tail ms " + Join(tail) +
                       "; in-process p50 ms " + Join(inproc_p50));

  // ---- The writer's rounds; it runs in every segment, traced or not.
  if (kind == Kind::kRefresh) {
    write_delta = genalg::obs::Registry::Global().Snapshot().Since(loop_before);
    for (const Round& r : all_rounds) {
      round_ms.push_back(static_cast<double>(r.end_ns - r.due_ns) / 1e6);
      late_ms.push_back(static_cast<double>(r.start_ns - r.due_ns) / 1e6);
      if (!r.error.empty()) {
        ++failed_rounds;
        problems.push_back("refresh round: " + r.error);
      }
    }
  }

  // ---- Traced layer decomposition and idle pings.
  LayerStats layers;
  std::vector<double> ping_us;
  if (options.trace) {
    auto client = genalg::net::GenAlgClient::Connect(
        "127.0.0.1", stack->server->port(), "ping");
    if (!client.ok()) return false;
    for (uint64_t i = 0; i < 400; ++i) {
      ScopedSpan span(&spans, "net.ping", i);
      if (!(*client)->Ping().ok()) problems.push_back("ping failed");
    }
    ping_us = spans.DurationsUs("net.ping");
    std::vector<Answer> current = expected;
    if (kind == Kind::kRefresh &&
        !ExpectedAnswers(stack->db.get(), pool, &current, &problems)) {
      return false;
    }
    if (!LayerPass(stack->db.get(), pool, current,
                   kind == Kind::kLookup ? 1.0 : 0, &spans, &layers,
                   &problems)) {
      return false;
    }
  }

  const uint64_t rows_written =
      writer_stack->warehouse->rows_written() - rows_written_before;
  const size_t rounds = round_ms.size();

  if (kind == Kind::kRefresh) {
    // ---- Every read against the twin's round-by-round answers.
    std::vector<std::vector<uint64_t>> versions;
    std::vector<Answer> final_answers;
    if (!ReplayTwin(config, pool, rounds, &versions, &final_answers)) {
      problems.push_back("twin replay failed");
      return false;
    }
    // A read must match a round that was current at some instant between
    // its send and its reply; round k committed inside its RefreshRound
    // call, i.e. within [start_k, end_k].
    size_t bad = 0, bad_timed = 0, changed = 0;
    for (const ClientLog& log : logs) {
      for (const ReadRecord& read : log.reads) {
        size_t lo = 0, hi = 0;
        for (size_t k = 1; k <= rounds; ++k) {
          const Round& r = all_rounds[k - 1];
          if (r.end_ns < read.send_ns) lo = k;
          if (r.start_ns <= read.reply_ns) hi = k;
        }
        if (!CheckEpoch(versions[read.query], lo, hi, read.digest).empty()) {
          ++bad;
          if (read.timed) ++bad_timed;
        }
      }
    }
    if (bad > 0) {
      problems.push_back(std::to_string(bad) +
                         " served reads match no round in their window");
    }
    failed += bad_timed;
    size_t inproc_bad = 0;
    for (const InprocRead& read : inproc_reads) {
      if (versions[read.query][read.round] != read.digest) ++inproc_bad;
    }
    if (inproc_bad > 0) {
      problems.push_back(std::to_string(inproc_bad) +
                         " in-process reads differ from the twin");
    }
    for (size_t q = 0; q < pool.size(); ++q) {
      if (versions[q].front() != versions[q].back()) ++changed;
    }
    out->notes.push_back("refresh: " + std::to_string(changed) + " of " +
                         std::to_string(pool.size()) +
                         " queries changed answer over " +
                         std::to_string(rounds) + " rounds");
    if (changed == 0) problems.push_back("refresh rounds changed no answer");
    // Negative control on real round answers.
    for (size_t q = 0; q < pool.size(); ++q) {
      if (versions[q].front() == versions[q].back() ||
          final_answers[q].rows.empty()) {
        continue;
      }
      if (NegativeControl(final_answers[q], versions[q], rounds, rounds, 0) !=
          3) {
        problems.push_back("negative control: checker missed a perturbation");
      }
      break;
    }
  } else {
    // Negative control on the workload's own expected answers.
    size_t widest = 0, other = 0;
    for (size_t i = 0; i < expected.size(); ++i) {
      if (expected[i].rows.size() > expected[widest].rows.size()) widest = i;
    }
    for (size_t i = 0; i < expected.size(); ++i) {
      if (Digest(expected[i]) != Digest(expected[widest])) other = i;
    }
    std::vector<uint64_t> versions = {Digest(expected[other]),
                                      Digest(expected[widest])};
    if (expected[widest].rows.empty() ||
        NegativeControl(expected[widest], versions, 1, 1, 0) != 3) {
      problems.push_back("negative control: checker missed a perturbation");
    }
  }

  // ---- Workload properties the configuration promises.
  const uint64_t misses = served_delta.counter("udb.pool.misses");
  const uint64_t hits = served_delta.counter("udb.pool.hits");
  if (kind == Kind::kLookup && misses != 0) {
    problems.push_back("lookup: buffer-pool misses while timed");
  }
  if (kind == Kind::kRefresh && misses == 0) {
    problems.push_back("refresh: no buffer-pool misses while timed");
  }

  attempted += rounds;
  failed += failed_rounds;
  out->attempted = attempted;
  out->failed = failed;

  // ---- Fingerprint.
  uint64_t bases = 0;
  for (const LoadedRow& row : *rows) bases += row.text.size();
  auto feature_rows = stack->db->ScanTable("features");
  out->fingerprint = {
      {"workload", options.workload},
      {"seed", std::to_string(options.seed)},
      {"nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN))},
      {"compiler", __VERSION__},
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"worker_threads", std::to_string(config.stack.worker_threads)},
      {"etl_threads", std::to_string(kEtlThreads)},
      {"clients", std::to_string(config.clients)},
      {"loop", kind == Kind::kRefresh
                   ? "closed (reads) + open (writer, period " +
                         Fixed(config.writer_period_s) + " s)"
                   : "closed"},
      {"segments", std::to_string(config.segments)},
      {"served_cpus", config.pin_served
                          ? "segment s: served path on CPU s, writer on "
                            "CPU s+1 of the rotation"
                          : "unpinned"},
      {"pool_pages", std::to_string(config.stack.pool_pages)},
      {"db_pages", std::to_string(stack->disk->PageCount())},
      {"sequences_rows", std::to_string(rows->size())},
      {"features_rows",
       std::to_string(feature_rows.ok() ? feature_rows->size() : 0)},
      {"bases", std::to_string(bases)},
      {"query_pool", std::to_string(pool.size())},
      {"wal", config.wal ? "file-backed, fsync per commit (group size 1)"
                         : "off (in-memory pages)"},
      {"tail_percentile", Fixed(100 * config.tail_q)},
  };

  // ---- Metrics.
  const double read_p50 = Median(p50);
  const double inproc = Median(inproc_p50);
  out->notes.push_back(
      "reads: " + std::to_string(read_ms.size()) + " timed samples, " +
      std::to_string(static_cast<size_t>(
          static_cast<double>(read_ms.size()) * (1 - config.tail_q))) +
      " beyond p" + Fixed(100 * config.tail_q));
  out->notes.push_back("rounds: " + std::to_string(rounds) +
                       ", ms p10/p25/p50/p75/p90 " +
                       Join({Quantile(round_ms, 0.1), Quantile(round_ms, 0.25),
                             Median(round_ms), Quantile(round_ms, 0.75),
                             Quantile(round_ms, 0.9)}));
  if (kind == Kind::kRefresh) {
    out->notes.push_back("writer: " + std::to_string(rounds) +
                         " rounds, lateness p50 " + Fixed(Median(late_ms)) +
                         " ms, max " + Fixed(Quantile(late_ms, 1.0)) +
                         " ms; fsync mean " +
                         Fixed(HistogramMean(write_delta, "udb.wal.fsync_us")) +
                         " us, gate write wait mean " +
                         Fixed(HistogramMean(write_delta,
                                             "udb.gate.write_wait_us")) +
                         " us");
  }
  const double error_rate = Ratio(static_cast<double>(failed),
                                  static_cast<double>(attempted));
  if (!options.trace) {
    out->metrics = {
        {"qps", Median(qps), "1/s"},
        {"read_p50_ms", read_p50, "ms"},
        {"read_tail_ms", Quantile(read_ms, config.tail_q), "ms"},
        {"inproc_p50_ms", inproc, "ms"},
        {"success_rate", 1 - error_rate, "ratio"},
        {"refresh_p50_ms", Median(round_ms), "ms"},
        {"setup_s", Median(setup_s), "s"},
        {"peak_rss_mb", rss_mb, "MB"},
    };
    return true;
  }

  const MetricsSnapshot& d = layers.delta;
  const double q = static_cast<double>(layers.queries);
  const double parse_us = Median(spans.DurationsUs("bql.parse_compile"));
  const double execute_us = Median(spans.DurationsUs("udb.execute"));
  const double codec_us = Median(spans.DurationsUs("net.page_codec"));
  const double ping = Median(ping_us);
  const double traced = Median(traced_p50);
  for (const auto& [type, us] : layers.execute_us_by_type) {
    out->notes.push_back("udb.execute_us[" + type + "] p50 " +
                         Fixed(Median(us)) + " over " +
                         std::to_string(us.size()));
  }
  const uint64_t deltas = write_delta.counter("etl.deltas_applied");
  out->metrics = {
      {"net.ping_rtt_us", ping, "us"},
      {"net.page_codec_us", codec_us, "us"},
      {"net.bytes_per_query", Ratio(static_cast<double>(layers.page_bytes), q),
       "bytes"},
      {"server.tax_us", 1000 * (read_p50 - inproc), "us"},
      {"server.worker_us",
       HistogramMean(served_delta, "server.query_latency_us"), "us"},
      {"server.rejected", static_cast<double>(rejected), "count"},
      {"bql.parse_compile_us", parse_us, "us"},
      {"udb.execute_us", execute_us, "us"},
      {"udb.rows_examined_per_result",
       Ratio(static_cast<double>(layers.rows_scanned),
             static_cast<double>(layers.result_rows)),
       "ratio"},
      {"udb.pool.hit_ratio",
       Ratio(static_cast<double>(hits), static_cast<double>(hits + misses)),
       "ratio"},
      {"udb.pool.misses_per_query",
       Ratio(static_cast<double>(misses),
             static_cast<double>(served_delta.counter("server.queries"))),
       "count"},
      {"udb.gate.write_wait_us",
       HistogramMean(write_delta, "udb.gate.write_wait_us"), "us"},
      {"udb.wal.fsync_us", HistogramMean(write_delta, "udb.wal.fsync_us"),
       "us"},
      {"udb.wal.bytes_per_round",
       Ratio(static_cast<double>(write_delta.counter("udb.wal.bytes")),
             static_cast<double>(rounds)),
       "bytes"},
      {"index.postings_per_query",
       Ratio(static_cast<double>(d.counter("index.kmer.postings_scanned")), q),
       "count"},
      {"index.build_s", Median(index_s), "s"},
      {"align.cells_per_query",
       Ratio(static_cast<double>(d.counter("align.kernel.cells")), q),
       "count"},
      {"align.confirm_rate",
       Ratio(static_cast<double>(d.counter("align.resembles.confirm_dps")),
             static_cast<double>(layers.resembles_rows)),
       "ratio"},
      {"align.pair_us", pair_us, "us"},
      {"etl.initial_load_s", Median(load_s), "s"},
      {"etl.deltas_per_round",
       Ratio(static_cast<double>(deltas), static_cast<double>(rounds)),
       "count"},
      {"etl.rows_written_per_delta",
       Ratio(static_cast<double>(rows_written), static_cast<double>(deltas)),
       "count"},
      {"etl.schedule_late_ms", Median(late_ms), "ms"},
      {"base.pool.busy_frac",
       Ratio(static_cast<double>(served_delta.counter("base.pool.busy_us")),
             1e6 * served_wall_s *
                 static_cast<double>(config.stack.worker_threads)),
       "ratio"},
      {"trace.coverage",
       Ratio(parse_us + execute_us + codec_us + ping, 1000 * traced), "ratio"},
      {"trace.overhead_pct", 100 * Ratio(traced - read_p50, read_p50), "%"},
      {"error_rate", error_rate, "ratio"},
      {"read.samples", static_cast<double>(read_ms.size()), "count"},
  };
  const std::string spans_path = options.work_dir + "/spans.jsonl";
  if (!spans.WriteJsonLines(spans_path)) {
    problems.push_back("cannot write " + spans_path);
  }
  out->notes.push_back("spans: " + std::to_string(spans.size()) +
                       " written to " + spans_path);
  return true;
}

}  // namespace perfbench
