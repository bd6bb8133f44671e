// Shared machinery of the repository benchmark: command-line arguments,
// timed calls with optional benchmark-side spans, failure accounting
// against the reference evaluator, metrics and the run record.
#ifndef CSM_PERFBENCH_HARNESS_H_
#define CSM_PERFBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/timer.h"
#include "exec/engine.h"
#include "exec/exec_context.h"
#include "obs/trace.h"
#include "storage/fact_table.h"
#include "storage/measure_table.h"
#include "workflow/workflow.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Adds 1.0 to the first row of the first checked output table, so the
  // reference check must report a failure (the self-test hook).
  bool corrupt_output = false;
  std::string work_dir;      // work files: facts, spill dir, traces
  std::string commit;        // recorded verbatim in the run record
  std::string source_digest;
};

using Reference = std::map<std::string, csm::MeasureTable>;

double Median(std::vector<double> values);
double Sum(const std::vector<double>& values);
/// Returns freed heap pages to the system and restarts the peak
/// resident set from the current one (Linux clear_refs), so that the
/// peak leaves out input generation. False when the reset failed.
bool ResetPeakRss();
/// Peak resident set since the last ResetPeakRss (VmHWM), in MiB.
double PeakRssMiB();

/// Everything one benchmark process accumulates: the tracer of the
/// traced run, operation and failure counts, metrics and the run record.
class Harness {
 public:
  explicit Harness(Args args);

  const Args& args() const { return args_; }
  bool traced() const { return args_.trace; }
  csm::Tracer& tracer() { return tracer_; }
  csm::SpanId root() const { return root_; }
  int NextOpId() { return next_op_++; }

  /// Counts one attempted operation; a non-OK status also counts as a
  /// failure. Returns status.ok().
  bool Attempt(const csm::Status& status, std::string_view what);
  /// Compares every output measure of `got` with `reference`; a missing
  /// table or a differing one counts as a failure of an operation that
  /// was already attempted.
  void Check(const csm::Workflow& workflow, csm::EvalOutput& got,
             const Reference& reference, std::string_view what);
  /// A failure that is neither an engine error nor a wrong answer, such
  /// as the reference evaluator itself failing: the run is not correct.
  void Abort(std::string why);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  bool correct() const { return failed_ == 0 && !aborted_; }

  void Metric(std::string name, double value, std::string unit);
  const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
  metrics() const {
    return metrics_;
  }

  /// Run-record fields; `json` is a JSON value written verbatim.
  void Record(std::string key, std::string json);
  void RecordString(std::string key, std::string_view value);
  /// Records a sample list as a JSON array of numbers.
  void RecordSamples(std::string key, const std::vector<double>& values);
  std::string RecordJson() const;

 private:
  void Fail(std::string why);

  Args args_;
  csm::Tracer tracer_;
  csm::SpanId root_ = csm::kNoSpan;
  int next_op_ = 0;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool aborted_ = false;
  bool corrupt_pending_ = false;
  std::vector<std::string> failures_;
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      metrics_;
  std::vector<std::pair<std::string, std::string>> record_;
};

/// One timed call into the program. In the traced run it opens a
/// benchmark span named `name` under the benchmark root, tagged with a
/// fresh operation id; engine and session spans recorded by the call
/// nest beneath it through Context().
class Call {
 public:
  Call(Harness& harness, std::string_view name, bool traced);
  ~Call() { End(); }
  Call(const Call&) = delete;
  Call& operator=(const Call&) = delete;

  /// Context carrying `options` and, when traced, the tracer rooted at
  /// this call's span.
  csm::ExecContext Context(const csm::EngineOptions& options) const;
  /// Ends the call (idempotent) and returns its wall time in seconds.
  double End();
  csm::SpanId span() const { return span_.id(); }

 private:
  csm::Tracer* tracer_;  // null when untraced
  csm::ScopedSpan span_;
  csm::Timer timer_;
  double seconds_ = -1;
};

/// Per-layer figures of one traced engine run, read from the spans and
/// counters the engine recorded under its root span.
struct EngineSpans {
  double total_s = 0;
  double scan_s = 0;
  double combine_s = 0;
  double worker_s = 0;
  double rows_scanned = 0;
  double batches = 0;
  double batches_skipped = 0;
  double pool_threads = 0;
  double morsels = 0;
  double steals = 0;
  double spilled_bytes = 0;
};

/// First span named `name` in the subtree under `from` (breadth first),
/// or kNoSpan.
csm::SpanId FindSpan(const csm::Tracer& tracer, csm::SpanId from,
                     std::string_view name);
/// Reads the engine run whose "adaptive" root lies under `call`.
EngineSpans ReadEngineSpans(const csm::Tracer& tracer, csm::SpanId call);

/// Rows [begin, end) of `table` as a new table.
csm::FactTable SliceRows(const csm::FactTable& table, size_t begin,
                         size_t end);
/// The engine the adaptive planner chose, from a run's ExecStats sort_key
/// ("[sort-scan] <...>") — readable without a tracer.
std::string ChoiceOf(const csm::ExecStats& stats);

/// The workloads. Each generates its inputs from args.seed, measures for
/// args.seconds, checks outputs against the reference and fills in the
/// harness metrics (end-to-end ones untraced, per-layer ones traced).
/// A non-OK status means the run could not be carried out at all.
csm::Status RunQ1(Harness& harness, size_t memory_budget_bytes);
csm::Status RunNetlogLive(Harness& harness);

}  // namespace perfbench

#endif  // CSM_PERFBENCH_HARNESS_H_
