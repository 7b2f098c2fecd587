// perfbench: the benchmark of record's program.
//
//   perfbench prepare|run --workload W --seed N --seconds S --trace 0|1
//             --dir DIR [--trace-out FILE] [--scale X]
//
// `prepare` writes the workload's inputs under DIR; `run` measures them and
// prints the metric table, ending with one JSON line. perfbench/run.py
// drives both; see README.md.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "trace.h"
#include "workloads.h"

namespace perfbench {

Phase RunClosedLoop(double seconds, uint64_t min_ops,
                    const std::function<void(uint64_t)>& op) {
  Phase p;
  const double start = NowSeconds();
  double now = start;
  while (now - start < seconds || p.ops < min_ops) {
    const double t0 = now;
    op(p.ops);
    now = NowSeconds();
    p.latencies_s.push_back(now - t0);
    ++p.ops;
  }
  p.wall_s = now - start;
  return p;
}

Phase RunSteadyPhase(const Args& args, uint32_t rounds,
                     const std::function<void()>& set_up, uint64_t min_ops,
                     const std::function<void(uint64_t)>& op, Report* report,
                     Phase* traced_out) {
  Tracer& tracer = GlobalTracer();
  const double slice_s = args.seconds / rounds;
  Phase untraced, traced;
  auto append = [](const Phase& from, Phase* to) {
    to->ops += from.ops;
    to->wall_s += from.wall_s;
    to->latencies_s.insert(to->latencies_s.end(), from.latencies_s.begin(),
                           from.latencies_s.end());
  };
  for (uint32_t r = 0; r < rounds; ++r) {
    tracer.set_enabled(args.trace);  // Traced runs trace set-up too.
    set_up();
    tracer.set_enabled(false);
    append(RunClosedLoop(slice_s, min_ops, op), &untraced);
    if (args.trace) {
      tracer.set_enabled(true);
      append(RunClosedLoop(slice_s, min_ops, op), &traced);
    }
  }
  tracer.set_enabled(args.trace);
  if (args.trace) {
    report->Set("trace.overhead_frac",
                1.0 - traced.ops_per_s() / untraced.ops_per_s(), traced.ops,
                "1 - traced/untraced ops_per_s");
    if (traced_out != nullptr) *traced_out = std::move(traced);
  }
  return untraced;
}

namespace {

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr, "perfbench: %s\n", msg);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  if (argc < 2) Usage("usage: perfbench prepare|run --workload W ...");
  Args a;
  a.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::stoull(v);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(v);
    } else if (flag == "--trace") {
      a.trace = v == "1";
    } else if (flag == "--dir") {
      a.dir = v;
    } else if (flag == "--trace-out") {
      a.trace_out = v;
    } else if (flag == "--scale") {
      a.scale = std::stod(v);
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.dir.empty() || a.workload.empty()) Usage("--workload and --dir");
  if (a.mode != "prepare" && a.mode != "run") Usage("mode: prepare|run");
  if (a.seconds <= 0.0 || a.scale <= 0.0) {
    Usage("--seconds and --scale must be positive");
  }
  return a;
}

void PrintSpans(const Args& args) {
  const Tracer& tracer = GlobalTracer();
  if (!args.trace_out.empty()) tracer.WriteJson(args.trace_out);
  std::printf("# span dump: %zu spans%s%s\n", tracer.size(),
              args.trace_out.empty() ? "" : " written to ",
              args.trace_out.c_str());
  std::printf("# %-38s %10s %14s %14s\n", "span", "count", "total_ms",
              "self_ms");
  for (const SpanSummary& s : tracer.Summarize()) {
    std::printf("# %-38s %10llu %14.3f %14.3f\n", s.name.c_str(),
                static_cast<unsigned long long>(s.count), s.total_ms,
                s.self_ms);
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = ParseArgs(argc, argv);
  struct Entry {
    const char* name;
    void (*prepare)(const Args&);
    void (*run)(const Args&, Report*);
  };
  const Entry kWorkloads[] = {
      {"join_cosine", PrepareJoinCosine, RunJoinCosine},
      {"serve_cosine_sharded", PrepareServeCosineSharded,
       RunServeCosineSharded},
      {"update_jaccard", PrepareUpdateJaccard, RunUpdateJaccard},
  };
  const Entry* w = nullptr;
  for (const Entry& e : kWorkloads) {
    if (args.workload == e.name) w = &e;
  }
  if (w == nullptr) Usage(("unknown workload " + args.workload).c_str());

  try {
    if (args.mode == "prepare") {
      w->prepare(args);
      return 0;
    }
    Report report;
    // Traced runs trace set-up and the per-layer calls too; the steady
    // phase switches tracing off for its untraced loop.
    GlobalTracer().set_enabled(args.trace);
    w->run(args, &report);
    report.Set("client.failed_frac",
               report.attempted() == 0
                   ? 0.0
                   : static_cast<double>(report.failed()) /
                         static_cast<double>(report.attempted()),
               report.attempted());
    if (args.trace) PrintSpans(args);
    report.Print(args.workload, args.seed, args.trace);
    return report.failed() == 0 ? 0 : 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }
}
