// Negative control for the benchmark's answer checker: a dropped row, an
// altered row and a wrong-epoch answer must each be flagged, and a
// correct answer must pass. Exits 0 when all checks hold.
//
//   ./perfbench_checker_test

#include <cstdio>
#include <string>
#include <vector>

#include "checker.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

}  // namespace

int main() {
  using genalg::udb::Datum;
  using genalg::udb::QueryResult;
  using perfbench::Answer;

  QueryResult result;
  result.columns = {"accession", "fid", "begin"};
  result.rows.push_back({Datum::String("S0100001"), Datum::String("g1"),
                         Datum::Int(17)});
  result.rows.push_back({Datum::String("S0100001"), Datum::String("g2"),
                         Datum::Int(230)});
  result.rows.push_back({Datum::String("S0100001"), Datum::String("g3"),
                         Datum::Int(512)});
  const Answer want = perfbench::Canonical(result);

  Expect(perfbench::Diff(want, want).empty(), "identical answer passes");
  Answer reordered = want;
  std::swap(reordered.rows[0], reordered.rows[2]);
  Expect(!perfbench::Diff(want, reordered).empty(),
         "reordered rows are flagged row for row");
  Expect(perfbench::DiffUnordered(want, reordered).empty(),
         "reordered rows pass the unordered oracle comparison");

  Answer dropped = want;
  dropped.rows.pop_back();
  Expect(!perfbench::Diff(want, dropped).empty(), "dropped row is flagged");
  Expect(!perfbench::DiffUnordered(want, dropped).empty(),
         "dropped row is flagged by the oracle comparison");

  QueryResult altered_result = result;
  altered_result.rows[1][2] = Datum::Int(231);
  Answer altered = perfbench::Canonical(altered_result);
  Expect(!perfbench::Diff(want, altered).empty(), "altered row is flagged");
  Expect(perfbench::Digest(want) != perfbench::Digest(altered),
         "altered row changes the digest");

  // Three rounds of one query; a read whose window is rounds [1, 2] may
  // not return round 0's answer.
  std::vector<uint64_t> versions = {perfbench::Digest(want),
                                    perfbench::Digest(dropped),
                                    perfbench::Digest(altered)};
  Expect(perfbench::CheckEpoch(versions, 1, 2, versions[2]).empty(),
         "in-window answer passes");
  Expect(!perfbench::CheckEpoch(versions, 1, 2, versions[0]).empty(),
         "wrong-epoch answer is flagged");

  Expect(perfbench::NegativeControl(want, versions, 1, 2, 0) == 3,
         "NegativeControl flags all three perturbations");

  std::printf("%s\n", failures == 0 ? "PASS" : "FAIL");
  return failures == 0 ? 0 : 1;
}
