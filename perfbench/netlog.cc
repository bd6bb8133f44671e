// netlog_live: the §7.2 network log (400k rows over 72 h) as a live
// dashboard. The first 90% by time is the base table; the rest arrives
// in time order, ~1k rows per batch. A delta-patching QuerySession holds
// seven standing queries; each step appends one batch, re-asks the
// standing set (cache hits) and issues one ad-hoc "last 6 hours" query
// that misses the cache. The cache holds the standing set plus one, so
// the previous step's ad-hoc entry is still cached when the next batch
// arrives: every refresh patches eight entries, and the ad-hoc miss
// evicts the previous one.
#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "data/netlog.h"
#include "data/queries.h"
#include "exec/factory.h"
#include "exec/session.h"
#include "harness.h"
#include "layers.h"
#include "model/schema.h"
#include "storage/table_io.h"
#include "testing/differential.h"

namespace perfbench {

using namespace csm;

namespace {

constexpr size_t kRows = 400000;
constexpr size_t kBaseRows = kRows / 10 * 9;
constexpr size_t kBatchRows = 1000;
constexpr uint64_t kWindowSeconds = 6 * 3600;
constexpr int kSetupReps = 3;
constexpr int kMinSteps = 6;
constexpr size_t kCheckEvery = 8;  // ad-hoc answers checked: steps 0, 1, 8, 16...

// The four dashboard queries of bench/multi_query.cc.
const char* const kDashboard[] = {
    R"(measure Count at (t:hour, U:ip) = agg count(*) from FACT hidden;
       measure Busy at (t:hour) = agg count(M) from Count where M > 2;)",
    R"(measure Count at (t:hour, U:ip) = agg count(*) from FACT hidden;
       measure Traffic at (t:hour) = agg sum(M) from Count;)",
    R"(measure Count at (t:hour, U:ip) = agg count(*) from FACT hidden;
       measure Peak at (t:hour) = agg max(M) from Count;
       measure AvgLoad at (t:day) = agg avg(M) from Count;)",
    R"(measure Count at (t:hour, U:ip) = agg count(*) from FACT hidden;
       measure Hourly at (t:hour) = agg sum(M) from Count;
       measure Daily at (t:day) = agg sum(M) from Count;
       measure Share at (t:hour) = match Daily using parentchild agg sum(M);
       measure Frac at (t:hour) = combine(Hourly, Share)
           as Hourly / Share;)",
};

// An ad-hoc answer kept for the reference check after the loop, with the
// number of fact rows it was computed over.
struct AdHocCheck {
  Workflow workflow;
  EvalOutput answer;
  size_t rows;
};

// Per-hour busy-source count over the last six hours, with its 3-hour
// sibling moving average.
std::string AdHocText(uint64_t since) {
  return "measure Recent at (t:hour, U:ip) = agg count(*) from FACT "
         "where t >= " +
         std::to_string(since) +
         " hidden;\n"
         "measure Busy at (t:hour) = agg count(M) from Recent where M > 2;\n"
         "measure BusyAvg at (t:hour) = "
         "match Busy using sibling(t in [-2, 0]) agg avg(M);\n";
}

Result<std::vector<Workflow>> StandingQueries(const SchemaPtr& schema) {
  std::vector<Workflow> out;
  for (const char* dsl : kDashboard) {
    CSM_ASSIGN_OR_RETURN(Workflow workflow, Workflow::Parse(schema, dsl));
    out.push_back(std::move(workflow));
  }
  CSM_ASSIGN_OR_RETURN(Workflow escalation, MakeEscalationQuery(schema));
  out.push_back(std::move(escalation));
  CSM_ASSIGN_OR_RETURN(Workflow recon, MakeMultiReconQuery(schema));
  out.push_back(std::move(recon));
  CSM_ASSIGN_OR_RETURN(Workflow running, MakeRunningExampleQuery(schema));
  out.push_back(std::move(running));
  return out;
}

}  // namespace

Status RunNetlogLive(Harness& h) {
  const Args& args = h.args();
  const bool traced = args.trace;
  SchemaPtr schema = MakeNetworkLogSchema();
  const std::string base_path =
      args.work_dir + "/netlog-" + std::to_string(args.seed) +
      "-base.facts.bin";

  // Inputs, all prepared before timing: the time-sorted log's base rows
  // written through the program's binary format, the append batches, and
  // each step's ad-hoc query text (its window ends at the newest t).
  std::vector<FactTable> batches;
  std::vector<std::string> adhoc_texts;
  {
    NetLogOptions gen;
    gen.rows = kRows;
    gen.seed = args.seed;
    FactTable log = GenerateNetLog(schema, gen);
    std::vector<uint32_t> perm(log.num_rows());
    std::iota(perm.begin(), perm.end(), 0u);
    std::stable_sort(perm.begin(), perm.end(), [&](uint32_t a, uint32_t b) {
      return log.dim_row(a)[0] < log.dim_row(b)[0];
    });
    log.Permute(perm);
    CSM_RETURN_NOT_OK(
        WriteFactTableBinary(SliceRows(log, 0, kBaseRows), base_path));
    for (size_t begin = kBaseRows; begin < kRows; begin += kBatchRows) {
      const size_t end = std::min(kRows, begin + kBatchRows);
      const Value newest = log.dim_row(end - 1)[0];
      batches.push_back(SliceRows(log, begin, end));
      adhoc_texts.push_back(
          AdHocText(newest > kWindowSeconds ? newest - kWindowSeconds : 0));
    }
  }
  CSM_ASSIGN_OR_RETURN(std::vector<Workflow> standing,
                       StandingQueries(schema));

  EngineOptions options;
  options.temp_dir = args.work_dir + "/tmp";
  SessionOptions session_options;
  session_options.engine_options = options;
  session_options.cache_capacity = standing.size() + 1;
  session_options.delta_patching = true;
  h.Record("rows", std::to_string(kRows));
  h.Record("base_rows", std::to_string(kBaseRows));
  h.Record("append_batch_rows", std::to_string(kBatchRows));
  h.Record("memory_budget_bytes",
           std::to_string(options.memory_budget_bytes));
  h.Record("standing_queries", std::to_string(standing.size()));

  h.Record("peak_rss_reset", ResetPeakRss() ? "true" : "false");

  Layers layers;
  Result<FactTable> fact = Status::Internal("not loaded");
  std::unique_ptr<QuerySession> session;
  std::vector<EvalOutput> answers;  // latest standing answers
  auto ask_standing = [&]() -> Result<SessionReport> {
    for (const Workflow& workflow : standing) {
      CSM_RETURN_NOT_OK(session->Submit(workflow).status());
    }
    Call call(h, "bench.session_run", traced);
    ExecContext ctx = call.Context(options);
    Result<std::vector<EvalOutput>> out = session->RunPending(*fact, ctx);
    const double secs = call.End();
    if (!h.Attempt(out.status(), "standing RunPending")) {
      return out.status();
    }
    answers = std::move(*out);
    SessionReport report = session->last_report();
    (report.cache_misses > 0 ? layers.warm_s : layers.hit_s).push_back(secs);
    return report;
  };

  // 1. Set-up: load, encode, and the first standing run that fills the
  // cache and builds the delta state.
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    session.reset();
    fact = Status::Internal("reloading");
    Timer total;
    Call load(h, "bench.load", traced);
    fact = ReadFactTableBinary(schema, base_path);
    layers.load_s.push_back(load.End());
    if (!h.Attempt(fact.status(), "ReadFactTableBinary")) {
      return fact.status();
    }
    Call encode(h, "bench.encode", traced);
    fact->EnsureDictEncoding();
    layers.encode_s.push_back(encode.End());
    CSM_ASSIGN_OR_RETURN(
        session, QuerySession::Create(EngineKind::kAdaptive, session_options));
    CSM_RETURN_NOT_OK(ask_standing().status());
    setup_s.push_back(total.Seconds());
  }

  // 2. Live loop. Step 0 is the warm-up; the traced run traces every
  // other step so the trace overhead compares like with like.
  std::vector<double> query_s;
  double rows_read = 0, measured_s = 0;
  std::string choice = "none";
  Result<Workflow> adhoc = Status::Internal("not parsed");
  std::vector<AdHocCheck> checks;
  for (size_t k = 0; k < batches.size(); ++k) {
    const bool sample = k > 0;
    const bool traced_step = traced && k % 2 == 0;
    if (sample && measured_s >= args.seconds &&
        query_s.size() >= static_cast<size_t>(kMinSteps)) {
      break;
    }
    Timer step;

    Call append(h, "bench.append", traced_step);
    ExecContext append_ctx = append.Context(options);
    Result<SessionAppendReport> appended =
        session->AppendAndRefresh(*fact, batches[k], append_ctx);
    const double append_s = append.End();
    if (!h.Attempt(appended.status(), "AppendAndRefresh")) continue;
    if (traced_step) layers.AddRefresh(h.tracer(), append.span(), *appended);

    Result<SessionReport> reask = ask_standing();
    if (reask.ok() && sample) {
      layers.hits += static_cast<double>(reask->cache_hits);
      layers.misses += static_cast<double>(reask->cache_misses);
    }

    Call call(h, "bench.adhoc", traced_step);
    {
      Call parse(h, "bench.parse", traced_step);
      adhoc = Workflow::Parse(schema, adhoc_texts[k]);
      layers.parse_s.push_back(parse.End());
    }
    Result<std::vector<EvalOutput>> out = Status::Internal("not run");
    if (!adhoc.ok()) {
      out = adhoc.status();
    } else if (Status submitted = session->Submit(*adhoc).status();
               !submitted.ok()) {
      out = submitted;
    } else {
      ExecContext ctx = call.Context(options);
      out = session->RunPending(*fact, ctx);
    }
    const double adhoc_s = call.End();
    measured_s += step.Seconds();
    if (!h.Attempt(out.status(), "ad-hoc RunPending")) continue;
    const ExecStats& stats = session->last_report().run_stats;
    choice = ChoiceOf(stats);
    if (sample && traced_step) {
      layers.traced_query_s.push_back(adhoc_s);
      layers.runs.push_back(ReadEngineSpans(h.tracer(), call.span()));
      layers.run_stats.push_back(stats);
      layers.insert_s.push_back(adhoc_s - layers.parse_s.back() -
                                layers.runs.back().total_s);
    } else if (sample) {
      layers.refresh_s.push_back(append_s);
      query_s.push_back(adhoc_s);
      layers.untraced_query_s.push_back(adhoc_s);
      rows_read += static_cast<double>(stats.rows_scanned);
    }
    if (k == 1 || k % kCheckEvery == 0) {
      checks.push_back({*adhoc, std::move((*out)[0]), fact->num_rows()});
    }
  }
  h.RecordString("opt.choice", choice);
  h.RecordSamples("query_s", query_s);
  h.RecordSamples("refresh_s", layers.refresh_s);
  h.RecordSamples("setup_s", setup_s);
  const double peak_rss_mib = PeakRssMiB();

  // 3. The sampled ad-hoc answers against the reference over the rows
  // the table held when each was asked (appends only add rows at the
  // end), then the final patched standing answers.
  for (AdHocCheck& check : checks) {
    Result<Reference> reference = testing_util::ComputeReference(
        check.workflow, SliceRows(*fact, 0, check.rows));
    if (!reference.ok()) {
      h.Abort("reference: " + reference.status().ToString());
      continue;
    }
    h.Check(check.workflow, check.answer, *reference, "ad-hoc answer");
  }
  for (size_t i = 0; i < standing.size() && i < answers.size(); ++i) {
    Result<Reference> reference =
        testing_util::ComputeReference(standing[i], *fact);
    if (!reference.ok()) {
      h.Abort("reference: " + reference.status().ToString());
      continue;
    }
    h.Check(standing[i], answers[i], *reference, "standing answer");
  }

  if (traced) {
    if (adhoc.ok()) {
      CSM_RETURN_NOT_OK(ProbePlanLayers(h, layers, *adhoc, options, *fact));
    }
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
