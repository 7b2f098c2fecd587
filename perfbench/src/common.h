// Shared pieces of the benchmark program: arguments, the metric report,
// statistics, input generation helpers, answer files and the exact
// oracle.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "candgen/banding_index.h"
#include "core/query_search.h"
#include "sim/brute_force.h"
#include "vec/dataset.h"

namespace perfbench {

// The library's own master seed (hash families). Fixed: the benchmark
// seed varies the inputs, not the configuration under test.
inline constexpr uint64_t kLibrarySeed = 42;
// Accuracy half-width of the within-delta check (BayesLSH's delta).
inline constexpr double kDelta = 0.05;

struct Args {
  std::string mode;      // "prepare" or "run".
  std::string workload;
  std::string dir;       // Per-run directory for the inputs.
  std::string trace_out; // Where the traced run writes its span dump.
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Corpus scale relative to the paper-like datasets (1 = the benchmark
  // of record; the steadiness self-test runs smaller).
  double scale = 1.0;
};

// A seed for one workload's inputs: a pure function of (workload, seed).
uint64_t InputSeed(uint64_t seed, const std::string& workload);

double NowSeconds();
double Quantile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) {
  return Quantile(std::move(v), 0.5);
}
double PeakRssMb();

// The metric report one run prints. Metric names and units are fixed by
// the tables in common.cc (they mirror BENCHMARK.json); the final line
// of output is one JSON object with the gated set for the run's mode.
class Report {
 public:
  // A measured value; `samples` is how many observations it summarizes
  // (0 = a single count or ratio).
  void Set(const std::string& name, double value, uint64_t samples = 0,
           const std::string& note = "");
  // A metric this workload cannot measure from outside, with the reason.
  // It is printed as omitted and carries 0 in the JSON line.
  void Omit(const std::string& name, const std::string& reason);

  void Attempt(uint64_t n = 1) { attempted_ += n; }
  // Counts one failed operation and keeps the first few reasons.
  void Fail(const std::string& why);
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

  // Prints the text table (every metric, gated or not) and then the JSON
  // line: end-to-end metrics when !trace, per-layer metrics when trace.
  void Print(const std::string& workload, uint64_t seed, bool trace) const;

 private:
  struct Entry {
    std::string name;
    double value = 0.0;
    uint64_t samples = 0;
    std::string note;
    bool omitted = false;
  };
  Entry* Find(const std::string& name);
  const Entry* Find(const std::string& name) const;

  std::vector<Entry> entries_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> reasons_;
};

// ---- inputs ----------------------------------------------------------

bayeslsh::Dataset SelectRows(const bayeslsh::Dataset& d,
                             const std::vector<uint32_t>& rows);
// `count` distinct row numbers of [0, n), in random order.
std::vector<uint32_t> SampleRows(uint32_t n, uint32_t count, uint64_t seed);

// The query pool file of a serving workload.
std::string QueriesFile(const Args& args);

// One query's candidates from a banding index: the rows of every bucket
// its band keys (`key(band)`) hit, deduplicated, as the searchers collect
// them. Adds the bucket sizes to *entries; traced as candgen.probe.
std::vector<uint32_t> ProbeBands(const bayeslsh::BandingIndex& banding,
                                 const std::function<uint64_t(uint32_t)>& key,
                                 uint64_t* entries);

// ---- answers -----------------------------------------------------------

using Answers = std::vector<std::vector<bayeslsh::QueryMatch>>;
using SimFn = std::function<double(uint32_t query, uint32_t id)>;

void WriteAnswers(const Answers& a, const std::string& path);
Answers ReadAnswers(const std::string& path, uint32_t num_queries);
void WritePairs(const std::vector<bayeslsh::ScoredPair>& p,
                const std::string& path);
std::vector<bayeslsh::ScoredPair> ReadPairs(const std::string& path);
void WriteNumber(double v, const std::string& path);
double ReadNumber(const std::string& path);
uint64_t FileBytes(const std::string& path);
void CopyFile(const std::string& from, const std::string& to);

// The exact oracle: every corpus row with sim(q, row) >= threshold, per
// query, by id. Rows sharing no dimension with a query have similarity 0,
// so an inverted index over the corpus finds every candidate. `binary`
// selects Jaccard over binary rows; otherwise rows are unit length and
// the similarity is their cosine.
Answers ExactAnswers(const bayeslsh::Dataset& corpus,
                     const bayeslsh::Dataset& queries, double threshold,
                     bool binary, const SimFn& sim);

struct Quality {
  double recall = 0.0;             // Exact matches returned / exact matches.
  double within_delta_frac = 0.0;  // Returned with |est - exact| <= delta.
  uint64_t exact_matches = 0;
  uint64_t returned = 0;
};
Quality Evaluate(const Answers& got, const Answers& exact, const SimFn& sim);

// Runs `op` once per pool query and returns the answers; the latency of
// each call is appended to *latencies when given.
Answers QueryPool(uint32_t pool_size,
                  const std::function<std::vector<bayeslsh::QueryMatch>(
                      uint32_t)>& op,
                  std::vector<double>* latencies = nullptr);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
