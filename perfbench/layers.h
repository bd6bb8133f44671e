// Per-layer figures gathered by a traced run and the one place that
// turns them into the per-layer metrics every workload reports.
#ifndef CSM_PERFBENCH_LAYERS_H_
#define CSM_PERFBENCH_LAYERS_H_

#include <vector>

#include "exec/session.h"
#include "storage/fact_table.h"
#include "workflow/workflow.h"
#include "harness.h"

namespace perfbench {

struct Layers {
  // storage: the set-up calls and a direct sort by the plan's key.
  std::vector<double> load_s, encode_s, sort_s;
  double sort_rows = 0;  // rows per direct sort (0 when the plan sorts none)
  // opt: LowerToPlan calls and the footprint estimate under the plan key.
  std::vector<double> lower_s;
  double est_entries = 0;
  // exec + scheduler: traced from-scratch queries.
  std::vector<EngineSpans> runs;
  std::vector<csm::ExecStats> run_stats;
  // session: first standing run, miss-path bookkeeping, all-hit re-asks,
  // untraced AppendAndRefresh calls.
  std::vector<double> warm_s, insert_s, hit_s, refresh_s;
  double hits = 0, misses = 0;
  // delta: one entry per traced refresh.
  std::vector<double> apply_sum_s, apply_max_s, dirty_regions;
  double patched_measures = 0, recomputed_measures = 0, dropped_queries = 0;
  // workflow: Workflow::Parse (or the workload's builder) and fusion.
  std::vector<double> parse_s, fuse_s;
  // obs: the same from-scratch query, untraced and traced.
  std::vector<double> untraced_query_s, traced_query_s;

  /// Folds one session append report and the delta.apply spans under
  /// the traced append call `call`.
  void AddRefresh(const csm::Tracer& tracer, csm::SpanId call,
                  const csm::SessionAppendReport& report);
};

/// Traced-run probes of the planning layers for `workflow` over `fact`:
/// times LowerToPlan(kAdaptive) and FuseWorkflows, estimates the
/// footprint under the lowered plan's sort key, and sorts a clone of
/// `fact` by that key with the workload's budget and the default thread
/// count (no sort when the plan scans unsorted).
csm::Status ProbePlanLayers(Harness& harness, Layers& layers,
                            const csm::Workflow& workflow,
                            const csm::EngineOptions& options,
                            const csm::FactTable& fact);

/// Emits every per-layer metric, in the order BENCHMARK.json lists them.
void EmitLayerMetrics(Harness& harness, const Layers& layers);

}  // namespace perfbench

#endif  // CSM_PERFBENCH_LAYERS_H_
