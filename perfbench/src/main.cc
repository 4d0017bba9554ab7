// The serving benchmark's command line:
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>] [--git-sha <sha>] [--source-digest <hex>]
// It generates the workload's inputs from the seed, runs the workload
// untraced through the public engine API, checks a seeded sample of the
// responses against the stateless oracle, and prints every end-to-end
// metric (--trace 0) or every per-layer metric from a second, traced
// replay (--trace 1). The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "generate.h"
#include "spans.h"
#include "stamp.h"
#include "stats.h"
#include "traced.h"
#include "workloads.h"

namespace {

using namespace perfbench;

struct Args {
  WorkloadId workload = WorkloadId::kWarmSkewed;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_build/perfbench-results";
  std::string git_sha;
  std::string source_digest;
};

[[noreturn]] void Usage(const std::string& problem) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<warm_skewed|revision_stream|cold_fig9|warm_skewed_sharded> "
               "--seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>] "
               "[--git-sha <hex>] [--source-digest <hex>]\n",
               problem.c_str());
  std::exit(64);
}

bool IsHex(const std::string& s) {
  for (const char c : s) {
    if (!std::isxdigit(static_cast<unsigned char>(c))) return false;
  }
  return s.size() <= 64;
}

Args Parse(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      const auto id = ParseWorkload(value);
      if (!id) Usage("unknown workload " + value);
      args.workload = *id;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') Usage("bad seed " + value);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds >= 1.0 && args.seconds <= 120.0)) {
        Usage("--seconds must be in [1, 120]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace must be 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else if (flag == "--git-sha") {
      if (!IsHex(value)) Usage("--git-sha must be hex");
      args.git_sha = value;
    } else if (flag == "--source-digest") {
      if (!IsHex(value)) Usage("--source-digest must be hex");
      args.source_digest = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (!have_workload) Usage("--workload is required");
  return args;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Number(double value) {
  if (!std::isfinite(value)) value = 0.0;
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           Number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  return out + "}";
}

std::string StringsJson(const std::vector<std::string>& lines) {
  std::string out = "[";
  for (size_t i = 0; i < lines.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"";
    for (const char c : lines[i]) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    out += "\"";
  }
  return out + "]";
}

double Untraced(const UntracedResult& run, SpanName root) {
  return Median(run.call_us[root]);
}

/// Per-layer metrics from the traced replay and the untraced counters.
std::vector<Metric> LayerMetrics(const UntracedResult& run,
                                 const TracedResult& traced,
                                 const std::vector<KindTable>& tables) {
  const auto kind = [&](SpanName root) -> const KindTable* {
    for (const KindTable& t : tables) {
      if (t.root == root && t.requests > 0) return &t;
    }
    return nullptr;
  };
  const auto extract = [&](SpanName root) {
    const KindTable* t = kind(root);
    return t != nullptr ? t->layer_median_us[kLayerExtract] : 0.0;
  };
  const auto glue = [&](SpanName root) {
    const KindTable* t = kind(root);
    return t != nullptr && !run.call_us[root].empty() ? t->unaccounted_us
                                                      : 0.0;
  };
  return {
      {"graph_store.lookup_us", MedianSelfUs(traced.requests, kStoreLookup),
       "us"},
      {"graph_store.intern_us", MedianCallUs(traced, kStoreIntern), "us"},
      {"graph_store.diff_us", MedianCallUs(traced, kStoreDiff), "us"},
      {"score_cache.get_us", MedianCallUs(traced, kCacheGet), "us"},
      {"score_cache.hit_ratio", run.hit_ratio, "ratio"},
      {"score_cache.evictions", static_cast<double>(run.evictions), "count"},
      {"score_cache.bytes_per_edge", traced.bytes_per_edge, "B/edge"},
      {"core.columns_us", MedianCallUs(traced, kCoreColumns), "us"},
      {"core.score_ns_per_edge.NC", MedianNsPerItem(traced, kCoreScoreNC),
       "ns/edge"},
      {"core.score_ns_per_edge.DF", MedianNsPerItem(traced, kCoreScoreDF),
       "ns/edge"},
      {"core.score_ns_per_edge.NT", MedianNsPerItem(traced, kCoreScoreNT),
       "ns/edge"},
      {"sweep.order_us", MedianCallUs(traced, kSweepOrder), "us"},
      {"sweep.profile_us", MedianCallUs(traced, kSweepProfile), "us"},
      {"delta.patch_us", MedianCallUs(traced, kDeltaPatch), "us"},
      {"delta.order_patch_us", MedianCallUs(traced, kDeltaOrderPatch), "us"},
      {"delta.dirty_share", traced.dirty_share, "ratio"},
      {"delta.patched_share", run.patched_share, "ratio"},
      {"extract.coverage_point_us", extract(kRootCoveragePoint), "us"},
      {"extract.top_share_us", extract(kRootTopShare), "us"},
      {"extract.sweep_us", extract(kRootSweep), "us"},
      {"extract.grow_us", extract(kRootGrowUntilConnected), "us"},
      {"obs.record_ns", MedianCallUs(traced, kObsRecord) * 1e3, "ns"},
      {"engine.glue_us.coverage_point", glue(kRootCoveragePoint), "us"},
      {"engine.glue_us.top_share", glue(kRootTopShare), "us"},
      {"engine.glue_us.sweep", glue(kRootSweep), "us"},
      {"engine.glue_us.grow_until_connected", glue(kRootGrowUntilConnected),
       "us"},
      {"engine.glue_us.stability_point", glue(kRootStabilityPoint), "us"},
      {"engine.glue_us.add_graph_revision", glue(kRootAddGraphRevision),
       "us"},
      {"engine.glue_us.cold_batch", glue(kRootColdBatch), "us"},
      {"engine.queue_wait_us", run.queue_wait_us, "us"},
      {"engine.scores_computed", static_cast<double>(run.scores_computed),
       "count"},
      {"engine.sorts", static_cast<double>(run.sorts), "count"},
      {"scheduler.steals_per_task", run.steals_per_task, "ratio"},
      {"scheduler.parks", static_cast<double>(run.parks), "count"},
      {"sharded.load_imbalance", run.load_imbalance, "ratio"},
      {"harness.lateness_p99_us", run.lateness_p99_us, "us"},
  };
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = Parse(argc, argv);
  const char* name = WorkloadName(args.workload);
  const Stamp stamp = MakeStamp(args.git_sha, args.source_digest);
  const std::string stamp_json = StampJson(stamp);
  std::printf("perfbench %s seed %llu seconds %g trace %d\n", name,
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("stamp %s\n", stamp_json.c_str());

  RunOptions options;
  options.seed = args.seed;
  options.window_s = args.trace ? args.seconds / 2 : args.seconds;
  options.clients = std::max(1u, std::thread::hardware_concurrency());
  options.record_calls = args.trace;

  // Inputs first: no engine exists until they are complete.
  const int64_t gen_start = NowNs();
  WarmInputs warm;
  RevisionInputs revisions;
  ColdInputs cold;
  uint64_t digest = 0;
  switch (args.workload) {
    case WorkloadId::kWarmSkewed:
    case WorkloadId::kWarmSkewedSharded:
      warm = GenerateWarm(args.seed, options.window_s / 2);
      digest = Digest(warm);
      break;
    case WorkloadId::kRevisionStream:
      revisions = GenerateRevisions(args.seed);
      digest = Digest(revisions);
      break;
    case WorkloadId::kColdFig9:
      cold = GenerateCold(args.seed);
      digest = Digest(cold);
      break;
  }
  std::printf("inputs: digest %016llx, generated in %.3f s\n",
              static_cast<unsigned long long>(digest),
              static_cast<double>(NowNs() - gen_start) * 1e-9);
  std::fflush(stdout);

  const bool sharded = args.workload == WorkloadId::kWarmSkewedSharded;
  UntracedResult run;
  switch (args.workload) {
    case WorkloadId::kWarmSkewed:
    case WorkloadId::kWarmSkewedSharded:
      run = RunWarm(warm, options, sharded);
      break;
    case WorkloadId::kRevisionStream:
      run = RunRevisions(revisions, options);
      break;
    case WorkloadId::kColdFig9:
      run = RunCold(cold, options);
      break;
  }
  for (const std::string& note : run.notes) std::printf("  %s\n", note.c_str());
  std::printf("  requests: attempted %lld, failed %lld; oracle: %lld checked, "
              "%lld mismatches\n",
              static_cast<long long>(run.attempted),
              static_cast<long long>(run.failed),
              static_cast<long long>(run.check.checked),
              static_cast<long long>(run.check.mismatches));
  for (const std::string& v : run.violations) {
    std::printf("  VIOLATION: %s\n", v.c_str());
  }

  std::vector<Metric> metrics;
  std::vector<std::string> lines = run.notes;
  if (!args.trace) {
    metrics = {
        {"latency_p50_us", run.latency_p50_us, "us"},
        {"latency_tail_us", run.latency_tail_us, "us"},
        {"throughput_rps", run.throughput_rps, "1/s"},
        {"edges_per_s", run.edges_per_s, "1/s"},
        {"setup_s", run.setup_s, "s"},
        {"peak_rss_mb", run.peak_rss_mb, "MiB"},
    };
    std::printf("end-to-end (%zu latency samples; tail = p%g):\n",
                run.latency_samples, run.tail_quantile * 100);
    for (const Metric& m : metrics) {
      std::printf("  %-22s %16.4f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    for (const auto& [q, value] : run.percentiles) {
      std::printf("  all-sample p%-5g %16.4f us\n", q * 100, value);
    }
    if (args.workload == WorkloadId::kRevisionStream) {
      std::printf("  delta.patched_share    %16.4f (share of revision keys "
                  "answered by a patch)\n",
                  run.patched_share);
    }
  } else {
    TracedResult traced;
    switch (args.workload) {
      case WorkloadId::kWarmSkewed:
      case WorkloadId::kWarmSkewedSharded:
        traced = TraceWarm(warm, options, sharded);
        break;
      case WorkloadId::kRevisionStream:
        traced = TraceRevisions(revisions, options);
        break;
      case WorkloadId::kColdFig9:
        traced = TraceCold(cold, options);
        break;
    }
    for (const std::string& note : traced.notes) {
      std::printf("  %s\n", note.c_str());
      lines.push_back(note);
    }
    std::vector<KindTable> tables;
    std::printf("per-kind layer breakdown (self-time medians, us):\n");
    for (int root = 0; root < kNumRootNames; ++root) {
      const SpanName r = static_cast<SpanName>(root);
      KindTable table = BuildKindTable(r, traced.requests, Untraced(run, r));
      if (table.requests == 0) continue;
      PrintKindTable(stdout, table);
      tables.push_back(table);
    }
    metrics = LayerMetrics(run, traced, tables);
    std::printf("per-layer:\n");
    for (const Metric& m : metrics) {
      std::printf("  %-36s %16.4f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    std::error_code ec;
    std::filesystem::create_directories(args.out_dir, ec);
    const std::string spans_path =
        args.out_dir + "/spans-" + std::string(name) + ".tsv";
    if (!WriteSpansTsv(spans_path, traced.recorders)) {
      std::printf("  (could not write %s)\n", spans_path.c_str());
    }
  }

  const bool correct = run.failed == 0 && run.check.mismatches == 0 &&
                       run.check.checked > 0 && run.violations.empty();
  const int64_t failed = run.failed + run.check.mismatches;
  const std::string result =
      std::string("{\"correct\": ") + (correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(std::max<int64_t>(1, run.attempted)) +
      ", \"failed\": " + std::to_string(failed) +
      ", \"metrics\": " + MetricsJson(metrics) + "}";

  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  const std::string record_path = args.out_dir + "/" + name + "-seed" +
                                  std::to_string(args.seed) + "-trace" +
                                  (args.trace ? "1" : "0") + ".json";
  if (std::FILE* out = std::fopen(record_path.c_str(), "w")) {
    std::fprintf(out,
                 "{\"stamp\": %s, \"workload\": \"%s\", \"seed\": %llu, "
                 "\"seconds\": %g, \"trace\": %d, \"input_digest\": "
                 "\"%016llx\", \"notes\": %s, \"violations\": %s, "
                 "\"result\": %s}\n",
                 stamp_json.c_str(), name,
                 static_cast<unsigned long long>(args.seed), args.seconds,
                 args.trace ? 1 : 0, static_cast<unsigned long long>(digest),
                 StringsJson(lines).c_str(),
                 StringsJson(run.violations).c_str(), result.c_str());
    std::fclose(out);
  }
  std::printf("%s\n", result.c_str());
  return 0;
}
