// The kernel and index_io layers: warm restart of a persisted KLSH index
// (linear kernel, 256 anchors, t = 0.7) over the serve_cosine_sharded
// corpus, measured in that workload's traced run. Restart is
// PersistentIndex::LoadFile plus QuerySearcher construction, which
// rebuilds the hash family (the K^{-1/2} factorization); queries then hash
// through kernel evaluations against the anchors.

#include <memory>

#include "core/index_io.h"
#include "core/query_search.h"
#include "kernel/kernels.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

using namespace bayeslsh;

namespace {

constexpr double kThreshold = 0.7;
constexpr uint32_t kAnchors = 256;

std::string IndexFile(const Args& a) { return a.dir + "/klsh.ix"; }
std::string Reference(const Args& a) { return a.dir + "/klsh_saved.txt"; }
std::string ColdBuild(const Args& a) { return a.dir + "/klsh_build_s.txt"; }

KernelSpec Linear() {
  KernelSpec k;
  k.tag = KernelTag::kLinear;
  return k;
}

QuerySearchConfig SearchConfig() {
  QuerySearchConfig c;
  c.measure = Measure::kKernelCosine;
  c.threshold = kThreshold;
  c.seed = kLibrarySeed;
  c.kernel = Linear();
  c.klsh.num_anchors = kAnchors;
  c.num_threads = 1;
  return c;
}

}  // namespace

void PrepareKlshRestart(const Args& args, const Dataset& corpus,
                        const Dataset& queries) {
  IndexBuildConfig b;
  b.measure = Measure::kKernelCosine;
  b.threshold = kThreshold;
  b.seed = kLibrarySeed;
  b.kernel = Linear();
  b.klsh.num_anchors = kAnchors;
  b.num_threads = 1;
  const double t0 = NowSeconds();
  const auto index = PersistentIndex::Build(Dataset(corpus), b);
  WriteNumber(NowSeconds() - t0, ColdBuild(args));
  {
    // The answers of the index before it is saved.
    const QuerySearcher searcher(index.get(), SearchConfig());
    WriteAnswers(QueryPool(queries.num_vectors(),
                           [&](uint32_t q) {
                             return searcher.Query(queries.Row(q));
                           }),
                 Reference(args));
  }
  index->SaveFile(IndexFile(args));
}

void MeasureKlshRestart(const Args& args, const Dataset& queries,
                        Report* report) {
  std::vector<double> load_s, construct_s;
  std::unique_ptr<PersistentIndex> index;
  std::unique_ptr<QuerySearcher> searcher;
  for (int i = 0; i < 3; ++i) {
    searcher.reset();
    index.reset();
    const double t0 = NowSeconds();
    {
      Span s("index_io.load");
      index = PersistentIndex::LoadFile(IndexFile(args));
    }
    const double t1 = NowSeconds();
    {
      Span s("kernel.construct");
      searcher = std::make_unique<QuerySearcher>(index.get(), SearchConfig());
    }
    load_s.push_back(t1 - t0);
    construct_s.push_back(NowSeconds() - t1);
  }
  const uint32_t nq = queries.num_vectors();
  const Answers reference = ReadAnswers(Reference(args), nq);
  for (uint32_t q = 0; q < nq; ++q) {
    Span s("kernel.query");
    report->Attempt();
    if (searcher->Query(queries.Row(q)) != reference[q]) {
      report->Fail("restarted KLSH index differs from the index before it "
                   "was saved, query " + std::to_string(q));
    }
  }
  const double load = Median(load_s), construct = Median(construct_s);
  report->Set("index_io.load_s", load, load_s.size(),
              "PersistentIndex::LoadFile of the KLSH index");
  report->Set("index_io.bytes_per_row",
              static_cast<double>(FileBytes(IndexFile(args))) /
                  static_cast<double>(index->data().num_vectors()),
              0, "KLSH index file");
  report->Set("kernel.construct_s", construct, construct_s.size(),
              "QuerySearcher construction on the loaded KLSH index");
  report->Set("kernel.warm_ratio", (load + construct) /
                                       ReadNumber(ColdBuild(args)),
              0, "(load + construct) / cold build");
}

}  // namespace perfbench
