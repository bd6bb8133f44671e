#include "layers.h"

#include <algorithm>
#include <deque>

#include "exec/factory.h"
#include "opt/footprint.h"
#include "opt/lowering.h"
#include "storage/external_sorter.h"
#include "storage/temp_file.h"
#include "workflow/fuse.h"

namespace perfbench {

using namespace csm;

namespace {

// Durations of every span named `name` in the subtree under `from`.
std::vector<double> SpanDurations(const Tracer& tracer, SpanId from,
                                  std::string_view name) {
  std::vector<double> out;
  std::deque<SpanId> queue{from};
  while (!queue.empty()) {
    const SpanData span = tracer.GetSpan(queue.front());
    queue.pop_front();
    if (span.name == name) out.push_back(span.duration_seconds);
    for (SpanId child : span.children) queue.push_back(child);
  }
  return out;
}

template <typename Fn>
double MedianOf(const std::vector<EngineSpans>& runs, Fn field) {
  std::vector<double> values;
  for (const EngineSpans& run : runs) values.push_back(field(run));
  return Median(values);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

void Layers::AddRefresh(const Tracer& tracer, SpanId call,
                        const SessionAppendReport& report) {
  const std::vector<double> applies =
      SpanDurations(tracer, call, "delta.apply");
  apply_sum_s.push_back(Sum(applies));
  apply_max_s.push_back(
      applies.empty() ? 0 : *std::max_element(applies.begin(),
                                              applies.end()));
  dirty_regions.push_back(static_cast<double>(report.dirty_regions));
  patched_measures += static_cast<double>(report.patched_measures);
  recomputed_measures += static_cast<double>(report.recomputed_measures);
  dropped_queries += static_cast<double>(report.dropped_queries);
}

Status ProbePlanLayers(Harness& h, Layers& l, const Workflow& workflow,
                       const EngineOptions& options, const FactTable& fact) {
  constexpr int kReps = 3;
  SortKey key;
  for (int rep = 0; rep < kReps; ++rep) {
    Call call(h, "bench.lower", true);
    Result<PhysicalPlan> plan =
        LowerToPlan(EngineKind::kAdaptive, workflow, options);
    l.lower_s.push_back(call.End());
    CSM_RETURN_NOT_OK(plan.status());
    key = plan->sort_key;
  }
  for (int rep = 0; rep < kReps; ++rep) {
    Call call(h, "bench.fuse", true);
    Result<FusedPlan> fused = FuseWorkflows({&workflow});
    l.fuse_s.push_back(call.End());
    CSM_RETURN_NOT_OK(fused.status());
  }
  {
    Call call(h, "bench.footprint", true);
    CSM_ASSIGN_OR_RETURN(FootprintReport estimate,
                         EstimateFootprint(workflow, key));
    l.est_entries = estimate.total_entries;
  }
  if (key.empty()) return Status::OK();
  CSM_ASSIGN_OR_RETURN(TempDir temp_dir, TempDir::Make(options.temp_dir));
  SortOptions sort_options;
  sort_options.memory_budget_bytes = options.memory_budget_bytes;
  sort_options.temp_dir = &temp_dir;
  sort_options.threads = options.parallel_threads;
  l.sort_rows = static_cast<double>(fact.num_rows());
  for (int rep = 0; rep < kReps; ++rep) {
    FactTable copy = fact.Clone();
    Call call(h, "bench.sort", true);
    Result<FactTable> sorted =
        SortFactTable(std::move(copy), key, sort_options);
    l.sort_s.push_back(call.End());
    CSM_RETURN_NOT_OK(sorted.status());
  }
  return Status::OK();
}

void EmitLayerMetrics(Harness& h, const Layers& l) {
  const double sort_s = Median(l.sort_s);
  std::vector<double> peak_entries, peak_mib;
  for (const ExecStats& stats : l.run_stats) {
    peak_entries.push_back(static_cast<double>(stats.peak_hash_entries));
    peak_mib.push_back(static_cast<double>(stats.peak_hash_bytes) /
                       (1024.0 * 1024.0));
  }
  const double scan_s = MedianOf(l.runs, [](const EngineSpans& r) {
    return r.scan_s;
  });
  const double pool_threads = MedianOf(l.runs, [](const EngineSpans& r) {
    return r.pool_threads;
  });

  h.Metric("storage.load_s", Median(l.load_s), "s");
  h.Metric("storage.encode_s", Median(l.encode_s), "s");
  h.Metric("storage.sort_s", sort_s, "s");
  h.Metric("storage.sort_rows_per_s", Ratio(l.sort_rows, sort_s), "rows/s");
  h.Metric("storage.spilled_bytes",
           MedianOf(l.runs, [](const EngineSpans& r) {
             return r.spilled_bytes;
           }),
           "bytes");
  h.Metric("opt.lower_s", Median(l.lower_s), "s");
  h.Metric("opt.est_entries", l.est_entries, "count");
  h.Metric("opt.est_ratio", Ratio(Median(peak_entries), l.est_entries),
           "ratio");
  h.Metric("exec.scan_s", scan_s, "s");
  h.Metric("exec.combine_s", MedianOf(l.runs, [](const EngineSpans& r) {
             return r.combine_s;
           }),
           "s");
  h.Metric("exec.rows_scanned", MedianOf(l.runs, [](const EngineSpans& r) {
             return r.rows_scanned;
           }),
           "count");
  h.Metric("exec.peak_entries", Median(peak_entries), "count");
  h.Metric("exec.peak_state_mb", Median(peak_mib), "MiB");
  h.Metric("exec.batches_skipped_frac",
           MedianOf(l.runs, [](const EngineSpans& r) {
             return Ratio(r.batches_skipped, r.batches);
           }),
           "ratio");
  h.Metric("scheduler.pool_threads", pool_threads, "count");
  h.Metric("scheduler.morsels", MedianOf(l.runs, [](const EngineSpans& r) {
             return r.morsels;
           }),
           "count");
  h.Metric("scheduler.steals", MedianOf(l.runs, [](const EngineSpans& r) {
             return r.steals;
           }),
           "count");
  h.Metric("scheduler.worker_busy_frac",
           MedianOf(l.runs, [](const EngineSpans& r) {
             return Ratio(r.worker_s, r.pool_threads * r.scan_s);
           }),
           "ratio");
  h.Metric("session.warm_s", Median(l.warm_s), "s");
  h.Metric("session.insert_s", Median(l.insert_s), "s");
  h.Metric("session.hit_s_p50", Median(l.hit_s), "s");
  h.Metric("session.cache_hit_frac", Ratio(l.hits, l.hits + l.misses),
           "ratio");
  h.Metric("session.refresh_s_p50", Median(l.refresh_s), "s");
  h.Metric("delta.apply_s_sum", Median(l.apply_sum_s), "s");
  h.Metric("delta.apply_s_max", Median(l.apply_max_s), "s");
  h.Metric("delta.dirty_regions", Median(l.dirty_regions), "count");
  h.Metric("delta.patch_frac",
           Ratio(l.patched_measures,
                 l.patched_measures + l.recomputed_measures),
           "ratio");
  h.Metric("delta.dropped_queries", l.dropped_queries, "count");
  h.Metric("workflow.parse_s", Median(l.parse_s), "s");
  h.Metric("workflow.fuse_s", Median(l.fuse_s), "s");
  h.Metric("obs.trace_overhead_frac",
           Ratio(Median(l.traced_query_s), Median(l.untraced_query_s)) - 1,
           "ratio");
}

}  // namespace perfbench
