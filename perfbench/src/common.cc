#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "common/prng.h"
#include "trace.h"

namespace perfbench {

using bayeslsh::Dataset;
using bayeslsh::DatasetBuilder;
using bayeslsh::QueryMatch;
using bayeslsh::ScoredPair;

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Gated end-to-end metrics: what a user of the library sees. Every
// workload reports each of them, and none is ever 0.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},         {"ops_per_s", "1/s"},
    {"query_p50_ms", "ms"},   {"recall", "ratio"},
    {"within_delta_frac", "ratio"}, {"peak_rss_mb", "MB"},
};

// Per-layer metrics of the traced run. A workload that does not exercise
// a layer reports it as omitted (0 in the JSON line).
constexpr MetricDef kPerLayer[] = {
    {"vec.read_s", "s"},
    {"vec.transform_s", "s"},
    {"candgen.allpairs_s", "s"},
    {"candgen.join_candidates", "count"},
    {"candgen.bucket_entries_per_query", "count"},
    {"candgen.candidates_per_query", "count"},
    {"candgen.dedup_ratio", "ratio"},
    {"candgen.probe_us", "us"},
    {"lsh.query_hash_us", "us"},
    {"lsh.join_verify_hashes", "count"},
    {"lsh.hashes_grown_timed", "count"},
    {"bayes_lsh.verify_s", "s"},
    {"bayes_lsh.pruned_frac", "ratio"},
    {"bayes_lsh.hashes_per_candidate", "count"},
    {"bayes_lsh.round1_survivor_frac", "ratio"},
    {"bayes_lsh.forced_accepts", "count"},
    {"inference_cache.hit_rate", "ratio"},
    {"sim.exact_per_query", "count"},
    {"sim.exact_us", "us"},
    {"query_search.query_ms", "ms"},
    {"query_search.warmup_s", "s"},
    {"sharded_index.fanout_ms", "ms"},
    {"sharded_index.shards_answered_frac", "ratio"},
    {"serve_control.admit_us", "us"},
    {"serve_control.rejected", "count"},
    {"dynamic_index.add_us", "us"},
    {"dynamic_index.remove_us", "us"},
    {"dynamic_index.ghost_candidates_per_query", "count"},
    {"dynamic_index.delta_rows_mean", "count"},
    {"dynamic_index.compact_s", "s"},
    {"dynamic_index.compact_rehashed", "count"},
    {"wal.append_us", "us"},
    {"wal.bytes_per_mutation", "B"},
    {"wal.replay_s", "s"},
    {"wal.replay_records", "count"},
    {"index_io.build_s", "s"},
    {"index_io.load_s", "s"},
    {"index_io.bytes_per_row", "B"},
    {"kernel.construct_s", "s"},
    {"kernel.warm_ratio", "ratio"},
    {"thread_pool.join_speedup", "ratio"},
    {"trace.overhead_frac", "ratio"},
    {"client.query_p99_ms", "ms"},
    {"client.write_p50_ms", "ms"},
    {"client.write_p99_ms", "ms"},
    {"client.failed_frac", "ratio"},
};

const char* UnitOf(const std::string& name) {
  for (const auto& m : kEndToEnd) {
    if (name == m.name) return m.unit;
  }
  for (const auto& m : kPerLayer) {
    if (name == m.name) return m.unit;
  }
  throw std::logic_error("perfbench: unknown metric " + name);
}

// Shortest text that reads back as the same double.
std::string Num(double v) {
  if (!std::isfinite(v)) {
    throw std::logic_error("perfbench: non-finite metric value");
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

uint64_t InputSeed(uint64_t seed, const std::string& workload) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : workload) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return bayeslsh::Mix64(seed ^ bayeslsh::Mix64(h)) % 1000000007ULL;
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

// ---- report ------------------------------------------------------------

Report::Entry* Report::Find(const std::string& name) {
  for (Entry& e : entries_) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

const Report::Entry* Report::Find(const std::string& name) const {
  return const_cast<Report*>(this)->Find(name);
}

void Report::Set(const std::string& name, double value, uint64_t samples,
                 const std::string& note) {
  UnitOf(name);  // Rejects names outside the tables.
  Entry* e = Find(name);
  if (e == nullptr) {
    entries_.emplace_back();
    entries_.back().name = name;
    e = &entries_.back();
  }
  e->value = value;
  e->samples = samples;
  e->note = note;
  e->omitted = false;
}

void Report::Omit(const std::string& name, const std::string& reason) {
  Set(name, 0.0, 0, reason);
  Find(name)->omitted = true;
}

void Report::Fail(const std::string& why) {
  ++failed_;
  if (reasons_.size() < 5) reasons_.push_back(why);
}

void Report::Print(const std::string& workload, uint64_t seed,
                   bool trace) const {
  std::printf("# workload %s seed %llu (%s)\n", workload.c_str(),
              static_cast<unsigned long long>(seed),
              trace ? "traced: per-layer metrics" : "untraced: end-to-end");
  for (const Entry& e : entries_) {
    if (e.omitted) {
      std::printf("%-42s omitted: %s\n", e.name.c_str(), e.note.c_str());
      continue;
    }
    std::printf("%-42s %-14s %-6s", e.name.c_str(), Num(e.value).c_str(),
                UnitOf(e.name));
    if (e.samples != 0) {
      std::printf(" n=%llu", static_cast<unsigned long long>(e.samples));
    }
    if (!e.note.empty()) std::printf("  (%s)", e.note.c_str());
    std::printf("\n");
  }
  std::printf("%-42s %llu of %llu\n", "failed_ops",
              static_cast<unsigned long long>(failed_),
              static_cast<unsigned long long>(attempted_));
  for (const std::string& r : reasons_) std::printf("failure: %s\n", r.c_str());

  std::string json = "{\"correct\": ";
  json += failed_ == 0 && attempted_ > 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const MetricDef& m) {
    const Entry* e = Find(m.name);
    const double v = e == nullptr ? 0.0 : e->value;
    if (!first) json += ", ";
    first = false;
    json.append("\"").append(m.name).append("\": {\"value\": ");
    json.append(Num(v)).append(", \"unit\": \"").append(m.unit).append("\"}");
  };
  if (trace) {
    for (const auto& m : kPerLayer) {
      if (Find(m.name) == nullptr) {
        std::printf("%-42s omitted: not exercised by this workload\n",
                    m.name);
      }
      emit(m);
    }
  } else {
    for (const auto& m : kEndToEnd) {
      if (Find(m.name) == nullptr) {
        throw std::logic_error(std::string("perfbench: missing end-to-end "
                                           "metric ") + m.name);
      }
      emit(m);
    }
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// ---- inputs --------------------------------------------------------------

Dataset SelectRows(const Dataset& d, const std::vector<uint32_t>& rows) {
  DatasetBuilder b(d.num_dims());
  for (const uint32_t r : rows) {
    const auto v = d.Row(r);
    std::vector<std::pair<bayeslsh::DimId, float>> entries;
    entries.reserve(v.size());
    for (uint32_t i = 0; i < v.size(); ++i) {
      entries.emplace_back(v.indices[i], v.values[i]);
    }
    b.AddRow(std::move(entries));
  }
  return std::move(b).Build();
}

std::vector<uint32_t> SampleRows(uint32_t n, uint32_t count, uint64_t seed) {
  if (count > n) throw std::invalid_argument("SampleRows: count > n");
  std::vector<uint32_t> all(n);
  for (uint32_t i = 0; i < n; ++i) all[i] = i;
  bayeslsh::Xoshiro256StarStar rng(seed);
  for (uint32_t i = 0; i < count; ++i) {
    const auto j = i + static_cast<uint32_t>(rng.NextBounded(n - i));
    std::swap(all[i], all[j]);
  }
  all.resize(count);
  return all;
}

std::string QueriesFile(const Args& args) {
  return args.dir + "/queries.bin";
}

std::vector<uint32_t> ProbeBands(const bayeslsh::BandingIndex& banding,
                                 const std::function<uint64_t(uint32_t)>& key,
                                 uint64_t* entries) {
  Span s("candgen.probe");
  std::vector<uint32_t> cands;
  for (uint32_t b = 0; b < banding.num_bands(); ++b) {
    const auto* bucket = banding.Find(b, key(b));
    if (bucket == nullptr) continue;
    *entries += bucket->size();
    cands.insert(cands.end(), bucket->begin(), bucket->end());
  }
  std::sort(cands.begin(), cands.end());
  cands.erase(std::unique(cands.begin(), cands.end()), cands.end());
  return cands;
}

// ---- answers -------------------------------------------------------------

namespace {

std::FILE* OpenOrThrow(const std::string& path, const char* mode) {
  std::FILE* f = std::fopen(path.c_str(), mode);
  if (f == nullptr) throw std::runtime_error("cannot open " + path);
  return f;
}

void CloseOrThrow(std::FILE* f, const std::string& path) {
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

}  // namespace

void WriteAnswers(const Answers& a, const std::string& path) {
  std::FILE* f = OpenOrThrow(path, "w");
  for (size_t q = 0; q < a.size(); ++q) {
    for (const QueryMatch& m : a[q]) {
      std::fprintf(f, "%zu %u %.17g\n", q, m.id, m.sim);
    }
  }
  CloseOrThrow(f, path);
}

Answers ReadAnswers(const std::string& path, uint32_t num_queries) {
  Answers a(num_queries);
  std::FILE* f = OpenOrThrow(path, "r");
  unsigned long q = 0;
  unsigned id = 0;
  double sim = 0.0;
  while (std::fscanf(f, "%lu %u %lf", &q, &id, &sim) == 3) {
    if (q >= num_queries) throw std::runtime_error("bad answer file " + path);
    a[q].push_back({id, sim});
  }
  std::fclose(f);
  return a;
}

void WritePairs(const std::vector<ScoredPair>& p, const std::string& path) {
  std::FILE* f = OpenOrThrow(path, "w");
  for (const ScoredPair& s : p) std::fprintf(f, "%u %u %.17g\n", s.a, s.b, s.sim);
  CloseOrThrow(f, path);
}

std::vector<ScoredPair> ReadPairs(const std::string& path) {
  std::vector<ScoredPair> out;
  std::FILE* f = OpenOrThrow(path, "r");
  ScoredPair s;
  while (std::fscanf(f, "%u %u %lf", &s.a, &s.b, &s.sim) == 3) {
    out.push_back(s);
  }
  std::fclose(f);
  return out;
}

void WriteNumber(double v, const std::string& path) {
  std::FILE* f = OpenOrThrow(path, "w");
  std::fprintf(f, "%.17g\n", v);
  CloseOrThrow(f, path);
}

double ReadNumber(const std::string& path) {
  std::FILE* f = OpenOrThrow(path, "r");
  double v = 0.0;
  const int n = std::fscanf(f, "%lf", &v);
  std::fclose(f);
  if (n != 1) throw std::runtime_error("bad number file " + path);
  return v;
}

uint64_t FileBytes(const std::string& path) {
  return std::filesystem::file_size(path);
}

void CopyFile(const std::string& from, const std::string& to) {
  std::filesystem::copy_file(from, to,
                             std::filesystem::copy_options::overwrite_existing);
}

Answers ExactAnswers(const Dataset& corpus, const Dataset& queries,
                     double threshold, bool binary, const SimFn& sim) {
  std::vector<std::vector<std::pair<uint32_t, float>>> postings(
      corpus.num_dims());
  for (uint32_t r = 0; r < corpus.num_vectors(); ++r) {
    const auto v = corpus.Row(r);
    for (uint32_t i = 0; i < v.size(); ++i) {
      postings[v.indices[i]].emplace_back(r, v.values[i]);
    }
  }
  Answers out(queries.num_vectors());
  std::vector<double> acc(corpus.num_vectors(), 0.0);
  std::vector<bool> seen(corpus.num_vectors(), false);
  std::vector<uint32_t> touched;
  for (uint32_t q = 0; q < queries.num_vectors(); ++q) {
    const auto v = queries.Row(q);
    for (uint32_t i = 0; i < v.size(); ++i) {
      if (v.indices[i] >= postings.size()) continue;
      for (const auto& [r, w] : postings[v.indices[i]]) {
        if (!seen[r]) touched.push_back(r);
        seen[r] = true;
        acc[r] += binary ? 1.0 : static_cast<double>(v.values[i]) * w;
      }
    }
    std::sort(touched.begin(), touched.end());
    for (const uint32_t r : touched) {
      // Cosine rows are unit length, so the dot product is the cosine up
      // to rounding; binary rows give the Jaccard similarity from the
      // overlap. The margin only admits candidates; `sim` decides.
      const double bound =
          binary ? acc[r] / (v.size() + corpus.RowLength(r) - acc[r])
                 : acc[r] + 1e-4;
      if (bound >= threshold - 1e-9) {
        const double s = sim(q, r);
        if (s >= threshold) out[q].push_back({r, s});
      }
      acc[r] = 0.0;
      seen[r] = false;
    }
    touched.clear();
  }
  return out;
}

Quality Evaluate(const Answers& got, const Answers& exact, const SimFn& sim) {
  Quality qa;
  uint64_t hits = 0, within = 0;
  for (size_t q = 0; q < got.size(); ++q) {
    std::vector<uint32_t> want;
    for (const QueryMatch& m : exact[q]) want.push_back(m.id);
    std::sort(want.begin(), want.end());
    qa.exact_matches += want.size();
    for (const QueryMatch& m : got[q]) {
      ++qa.returned;
      if (std::binary_search(want.begin(), want.end(), m.id)) ++hits;
      const double s = sim(static_cast<uint32_t>(q), m.id);
      if (std::fabs(m.sim - s) <= kDelta) ++within;
    }
  }
  qa.recall = qa.exact_matches == 0
                  ? 1.0
                  : static_cast<double>(hits) /
                        static_cast<double>(qa.exact_matches);
  qa.within_delta_frac = qa.returned == 0
                             ? 1.0
                             : static_cast<double>(within) /
                                   static_cast<double>(qa.returned);
  return qa;
}

Answers QueryPool(
    uint32_t pool_size,
    const std::function<std::vector<QueryMatch>(uint32_t)>& op,
    std::vector<double>* latencies) {
  Answers out(pool_size);
  for (uint32_t q = 0; q < pool_size; ++q) {
    const double t0 = NowSeconds();
    out[q] = op(q);
    if (latencies != nullptr) latencies->push_back(NowSeconds() - t0);
  }
  return out;
}

}  // namespace perfbench
