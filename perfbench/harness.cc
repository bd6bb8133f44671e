#include "harness.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>

#include "testing/differential.h"

namespace perfbench {

using namespace csm;

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Sum(const std::vector<double>& values) {
  double total = 0;
  for (double v : values) total += v;
  return total;
}

bool ResetPeakRss() {
  malloc_trim(0);  // hand the input generator's freed pages back first
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";  // resets VmHWM to the current resident set
  clear_refs.close();
  return !clear_refs.fail();
}

double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

std::string JsonQuote(std::string_view text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

Harness::Harness(Args args)
    : args_(std::move(args)), corrupt_pending_(args_.corrupt_output) {
  if (args_.trace) {
    root_ = tracer_.BeginSpan("perfbench");
    tracer_.SetAttr(root_, "workload", args_.workload);
    tracer_.SetAttr(root_, "seed", std::to_string(args_.seed));
  }
}

void Harness::Fail(std::string why) {
  ++failed_;
  if (failures_.size() < 8) failures_.push_back(std::move(why));
}

bool Harness::Attempt(const Status& status, std::string_view what) {
  ++attempted_;
  if (status.ok()) return true;
  Fail(std::string(what) + ": " + status.ToString());
  return false;
}

void Harness::Check(const Workflow& workflow, EvalOutput& got,
                    const Reference& reference, std::string_view what) {
  for (const MeasureDef& def : workflow.measures()) {
    if (!def.is_output) continue;
    MeasureTable* table = got.FindTable(def.name);
    auto expected = reference.find(def.name);
    if (table == nullptr || expected == reference.end()) {
      Fail(std::string(what) + ": output " + def.name + " missing");
      return;
    }
    if (corrupt_pending_ && table->num_rows() > 0) {
      table->set_value(0, table->value(0) + 1.0);
      corrupt_pending_ = false;
    }
    if (auto diff = testing_util::DiffTables(*table, expected->second)) {
      Fail(std::string(what) + ": " + def.name + " differs from the " +
           "reference: " + *diff);
      return;
    }
  }
}

void Harness::Abort(std::string why) {
  aborted_ = true;
  if (failures_.size() < 8) failures_.push_back(std::move(why));
}

void Harness::Metric(std::string name, double value, std::string unit) {
  metrics_.push_back({std::move(name), {value, std::move(unit)}});
}

void Harness::Record(std::string key, std::string json) {
  record_.push_back({std::move(key), std::move(json)});
}

void Harness::RecordString(std::string key, std::string_view value) {
  Record(std::move(key), JsonQuote(value));
}

void Harness::RecordSamples(std::string key,
                            const std::vector<double>& values) {
  std::string json = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.6g", i > 0 ? ", " : "", values[i]);
    json += buf;
  }
  Record(std::move(key), json + "]");
}

std::string Harness::RecordJson() const {
  std::string out = "{";
  for (size_t i = 0; i < record_.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonQuote(record_[i].first) + ": " + record_[i].second;
  }
  if (!failures_.empty()) {
    out += ", \"failures\": [";
    for (size_t i = 0; i < failures_.size(); ++i) {
      if (i > 0) out += ", ";
      out += JsonQuote(failures_[i]);
    }
    out += "]";
  }
  return out + "}";
}

Call::Call(Harness& harness, std::string_view name, bool traced)
    : tracer_(traced ? &harness.tracer() : nullptr),
      span_(tracer_, name, harness.root()) {
  if (traced) span_.SetAttr("op", std::to_string(harness.NextOpId()));
  timer_.Reset();
}

ExecContext Call::Context(const EngineOptions& options) const {
  ExecContext ctx;
  ctx.options = options;
  ctx.tracer = tracer_;
  ctx.trace_parent = span_.id();
  return ctx;
}

double Call::End() {
  if (seconds_ < 0) {
    seconds_ = timer_.Seconds();
    span_.End();
  }
  return seconds_;
}

SpanId FindSpan(const Tracer& tracer, SpanId from, std::string_view name) {
  std::deque<SpanId> queue{from};
  while (!queue.empty()) {
    const SpanData span = tracer.GetSpan(queue.front());
    queue.pop_front();
    for (SpanId child : span.children) {
      if (tracer.GetSpan(child).name == name) return child;
      queue.push_back(child);
    }
  }
  return kNoSpan;
}

EngineSpans ReadEngineSpans(const Tracer& tracer, SpanId call) {
  EngineSpans out;
  const SpanId root = FindSpan(tracer, call, "adaptive");
  if (root == kNoSpan) return out;
  out.total_s = tracer.GetSpan(root).duration_seconds;
  out.scan_s = tracer.SumDurationExclusive(root, {"scan"});
  out.combine_s = tracer.SumDurationExclusive(root, {"combine"});
  out.worker_s = tracer.SumDurationExclusive(root, {"worker"});
  out.rows_scanned = tracer.SumCounter(root, "rows_scanned");
  out.batches = tracer.SumCounter(root, "batches");
  out.batches_skipped = tracer.SumCounter(root, "batches_skipped");
  out.pool_threads = tracer.SumCounter(root, "pool_threads");
  out.morsels = tracer.SumCounter(root, "morsels");
  out.steals = tracer.SumCounter(root, "steals");
  out.spilled_bytes = tracer.SumCounter(root, "spilled_bytes");
  return out;
}

FactTable SliceRows(const FactTable& table, size_t begin, size_t end) {
  FactTable out(table.schema());
  out.Reserve(end - begin);
  for (size_t r = begin; r < end; ++r) {
    out.AppendRow(table.dim_row(r), table.measure_row(r));
  }
  return out;
}

std::string ChoiceOf(const ExecStats& stats) {
  const std::string& key = stats.sort_key;
  if (key.empty() || key[0] != '[') return "unknown";
  const size_t close = key.find(']');
  return close == std::string::npos ? "unknown" : key.substr(1, close - 1);
}

}  // namespace perfbench
