// The workloads. Each has a prepare step, run in its own process
// before the measured one, which writes every input (and the reference
// answers the checks compare against) under Args::dir; and a run step,
// which sets up from those files, measures the steady phase, checks every
// answer and fills the report.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <functional>

#include "common.h"

namespace perfbench {

void PrepareJoinCosine(const Args& args);
void RunJoinCosine(const Args& args, Report* report);

void PrepareServeCosineSharded(const Args& args);
void RunServeCosineSharded(const Args& args, Report* report);

void PrepareUpdateJaccard(const Args& args);
void RunUpdateJaccard(const Args& args, Report* report);

// Warm restart of a persisted KLSH index over the serve_cosine_sharded
// corpus: the kernel and index_io layers, measured in that workload's
// traced run (klsh_restart.cc).
void PrepareKlshRestart(const Args& args, const bayeslsh::Dataset& corpus,
                        const bayeslsh::Dataset& queries);
void MeasureKlshRestart(const Args& args, const bayeslsh::Dataset& queries,
                        Report* report);

// One closed-loop phase: a single client issues op(0), op(1), ... back
// to back, each after the previous answer, until `seconds` have passed
// (and at least `min_ops` ran). Only whole ops count: the phase's wall
// time ends when the last op returns.
struct Phase {
  uint64_t ops = 0;
  double wall_s = 0.0;
  std::vector<double> latencies_s;  // One per op.
  double ops_per_s() const {
    return wall_s > 0.0 ? static_cast<double>(ops) / wall_s : 0.0;
  }
};
Phase RunClosedLoop(double seconds, uint64_t min_ops,
                    const std::function<void(uint64_t)>& op);

// The set-ups and steady phase of a run, in `rounds` rounds: each round
// calls set_up(), then runs a closed-loop slice of args.seconds / rounds
// (and at least `min_ops` ops) on the state it built. The set-ups are
// spread through the run, so their median samples the same stretch of
// time as the steady phase. The slices are merged into one phase.
// Traced, each round runs an untraced slice (kept as the end-to-end
// figure) and then a traced one of the same length; trace.overhead_frac
// compares their throughput, and `traced_out`, when given, receives the
// traced slices.
Phase RunSteadyPhase(const Args& args, uint32_t rounds,
                     const std::function<void()>& set_up, uint64_t min_ops,
                     const std::function<void(uint64_t)>& op,
                     Report* report, Phase* traced_out = nullptr);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
