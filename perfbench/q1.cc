// q1_bounded / q1_roomy: the §7.1 synthetic cube (1.6M rows) and Q1
// child/parent through the adaptive engine, under the default 256 MiB
// budget (sort/scan) or a 1 GiB one (single-scan). After set-up, one
// client runs Engine::Run of Q1 from scratch in a closed loop; every
// answer is checked against ComputeReference, computed once per process
// after the loop so that it stays out of the peak resident set, which
// starts after the inputs are generated.
#include <string>
#include <vector>

#include "data/queries.h"
#include "data/synthetic.h"
#include "exec/factory.h"
#include "harness.h"
#include "layers.h"
#include "model/schema.h"
#include "storage/table_io.h"
#include "testing/differential.h"

namespace perfbench {

using namespace csm;

namespace {

constexpr size_t kRows = 1600000;  // Fig. 6(e)'s large size
constexpr int kSetupReps = 3;
constexpr int kMinQueries = 3;

}  // namespace

Status RunQ1(Harness& h, size_t memory_budget_bytes) {
  const Args& args = h.args();
  const bool traced = args.trace;
  SchemaPtr schema = MakeSyntheticSchema(4, 3, 10, 1000);
  const std::string path =
      args.work_dir + "/q1-" + std::to_string(args.seed) + ".facts.bin";
  {
    SyntheticDataOptions gen;
    gen.rows = kRows;
    gen.seed = args.seed;
    CSM_RETURN_NOT_OK(
        WriteFactTableBinary(GenerateSyntheticFacts(schema, gen), path));
  }

  EngineOptions options;
  options.memory_budget_bytes = memory_budget_bytes;
  options.temp_dir = args.work_dir + "/tmp";
  h.Record("rows", std::to_string(kRows));
  h.Record("memory_budget_bytes", std::to_string(memory_budget_bytes));

  Layers layers;
  Result<Workflow> workflow = Status::Internal("not built");
  {
    Call call(h, "bench.parse", traced);
    workflow = MakeQ1ChildParent(schema, 7);
    layers.parse_s.push_back(call.End());
  }
  CSM_RETURN_NOT_OK(workflow.status());

  h.Record("peak_rss_reset", ResetPeakRss() ? "true" : "false");

  // 1. Set-up.
  std::vector<double> setup_s;
  Result<FactTable> fact = Status::Internal("not loaded");
  for (int rep = 0; rep < kSetupReps; ++rep) {
    fact = Status::Internal("reloading");  // free the previous copy first
    Call load(h, "bench.load", traced);
    fact = ReadFactTableBinary(schema, path);
    layers.load_s.push_back(load.End());
    if (!h.Attempt(fact.status(), "ReadFactTableBinary")) {
      return fact.status();
    }
    Call encode(h, "bench.encode", traced);
    fact->EnsureDictEncoding();
    layers.encode_s.push_back(encode.End());
    setup_s.push_back(layers.load_s.back() + layers.encode_s.back());
  }

  // 2. Query loop; run 0 is the warm-up. The traced run traces every
  // other run, so the trace overhead compares like with like.
  CSM_ASSIGN_OR_RETURN(std::unique_ptr<Engine> engine,
                       MakeEngine(EngineKind::kAdaptive, options));
  std::vector<EvalOutput> outputs;  // Q1's one output has 100 rows
  std::vector<double> query_s;
  double rows_read = 0, measured_s = 0;
  std::string choice = "none";
  const int min_runs = 1 + (traced ? 2 * kMinQueries : kMinQueries);
  for (int i = 0; i < min_runs || measured_s < args.seconds; ++i) {
    const bool traced_run = traced && i % 2 == 1;
    Call call(h, "bench.query", traced_run);
    ExecContext ctx = call.Context(options);
    Result<EvalOutput> out = engine->Run(*workflow, *fact, ctx);
    const double secs = call.End();
    if (i > 0) measured_s += secs;
    if (!h.Attempt(out.status(), "Engine::Run")) continue;
    choice = ChoiceOf(out->stats);
    if (traced_run) {
      layers.traced_query_s.push_back(secs);
      layers.runs.push_back(ReadEngineSpans(h.tracer(), call.span()));
      layers.run_stats.push_back(out->stats);
    } else if (i > 0) {
      query_s.push_back(secs);
      layers.untraced_query_s.push_back(secs);
      rows_read += static_cast<double>(out->stats.rows_scanned);
    }
    outputs.push_back(std::move(*out));
  }
  h.RecordString("opt.choice", choice);
  h.RecordSamples("setup_s", setup_s);
  h.RecordSamples("query_s", query_s);
  const double peak_rss_mib = PeakRssMiB();

  // 3. Every answer against the reference evaluator.
  Result<Reference> reference =
      testing_util::ComputeReference(*workflow, *fact);
  if (!reference.ok()) {
    h.Abort("reference: " + reference.status().ToString());
  } else {
    for (EvalOutput& out : outputs) {
      h.Check(*workflow, out, *reference, "Engine::Run");
    }
  }

  if (traced) {
    CSM_RETURN_NOT_OK(ProbePlanLayers(h, layers, *workflow, options, *fact));
    EmitLayerMetrics(h, layers);
  } else {
    h.Metric("setup_s", Median(setup_s), "s");
    h.Metric("query_s_p50", Median(query_s), "s");
    h.Metric("rows_per_s", rows_read / Sum(query_s), "rows/s");
    h.Metric("peak_rss_mb", peak_rss_mib, "MiB");
  }
  return Status::OK();
}

}  // namespace perfbench
