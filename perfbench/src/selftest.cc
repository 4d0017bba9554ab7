// Tests for the benchmark's own code: seeded inputs are reproducible, the
// percentile and intended-send-time arithmetic is right on a hand-built
// schedule with a known stall, and self time / unaccounted time are right
// on hand-built span trees. Exits non-zero on the first failed check.
//   .bench_build/perfbench/perfbench_selftest   (or: run.py --selftest)
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "generate.h"
#include "spans.h"
#include "stats.h"

namespace {

using namespace perfbench;

int failures = 0;

void Check(bool ok, const char* what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void TestDigests() {
  const WarmInputs a = GenerateWarm(7, 0.05);
  const WarmInputs b = GenerateWarm(7, 0.05);
  const WarmInputs c = GenerateWarm(8, 0.05);
  Check(Digest(a) == Digest(b), "warm: same seed, same digest");
  Check(Digest(a) != Digest(c), "warm: other seed, other digest");
  Check(a.schedule_ns.size() > 1000, "warm: schedule covers the phase");
  const RevisionInputs ra = GenerateRevisions(7);
  const RevisionInputs rb = GenerateRevisions(7);
  const RevisionInputs rc = GenerateRevisions(8);
  Check(Digest(ra) == Digest(rb), "revision: same seed, same digest");
  Check(Digest(ra) != Digest(rc), "revision: other seed, other digest");
  Check(ra.chains.size() == 6 * kRevisionClients,
        "revision: every client has a chain of each network");
  const ColdInputs ca = GenerateCold(7);
  const ColdInputs cb = GenerateCold(7);
  const ColdInputs cc = GenerateCold(8);
  Check(Digest(ca) == Digest(cb), "cold: same seed, same digest");
  Check(Digest(ca) != Digest(cc), "cold: other seed, other digest");
  Check(ca.pool[0].num_edges() >= 500000, "cold: >= 500k edges per graph");
}

void TestIntendedTime() {
  // 100 arrivals every 10 us, each served in 1 us by one client, except
  // arrival 50, which stalls for 500 us. Arrivals 51..99 queue behind it.
  std::vector<Arrival> arrivals;
  int64_t free_at = 0;
  for (int i = 0; i < 100; ++i) {
    Arrival a;
    a.intended_ns = i * 10000;
    a.start_ns = std::max(a.intended_ns, free_at);
    a.end_ns = a.start_ns + (i == 50 ? 500000 : 1000);
    free_at = a.end_ns;
    arrivals.push_back(a);
  }
  std::vector<double> latency = LatencyFromIntendedUs(arrivals);
  std::vector<double> service;
  for (const Arrival& a : arrivals) {
    service.push_back(static_cast<double>(a.end_ns - a.start_ns) * 1e-3);
  }
  Check(Near(Percentile(latency, 0.50), 1.0), "intended: p50 = 1 us");
  Check(Near(Percentile(latency, 0.75), 275.0),
        "intended: p75 = 275 us (the stall's queue)");
  Check(Near(Percentile(latency, 0.99), 491.0), "intended: p99 = 491 us");
  Check(Near(Percentile(service, 0.75), 1.0),
        "service time hides the queue: p75 = 1 us");
  std::vector<double> lateness = LatenessUs(arrivals);
  Check(Near(Percentile(lateness, 0.99), 481.0), "lateness: p99 = 481 us");
  Check(Near(Percentile(lateness, 0.50), 0.0), "lateness: p50 = 0");
  Check(!PercentileSupported(100, 0.99), "p99 of 100 samples: unsupported");
  Check(PercentileSupported(100, 0.89), "p89 of 100 samples: supported");
  Check(PercentileSupported(1000, 0.99), "p99 of 1000 samples: supported");
  Check(!PercentileSupported(999, 0.99), "p99 of 999 samples: unsupported");
  Check(PercentileSupported(20, 0.5) && !PercentileSupported(19, 0.5),
        "p50 needs 20 samples");
  Check(Near(Median({3, 1, 2, 10}), 2.5), "median of an even count");
}

Span Make(SpanName name, uint64_t request, uint32_t parent, int64_t start_us,
          int64_t end_us) {
  Span s;
  s.name = name;
  s.request = request;
  s.parent = parent;
  s.start_ns = start_us * 1000;
  s.end_ns = end_us * 1000;
  return s;
}

void TestSpans() {
  const std::vector<Span> spans = {
      // Request 1: overlapping children C and D cover 50..70 once.
      Make(kRootCoveragePoint, 1, 0, 0, 100),  // 1
      Make(kStoreLookup, 1, 1, 10, 40),        // 2
      Make(kCacheGet, 1, 2, 20, 30),           // 3
      Make(kExtract, 1, 1, 50, 60),            // 4
      Make(kObsRecord, 1, 1, 55, 70),          // 5
      // Request 2: two lookups, and a child running past its parent.
      Make(kRootCoveragePoint, 2, 0, 200, 260),  // 6
      Make(kStoreLookup, 2, 6, 205, 215),        // 7
      Make(kStoreLookup, 2, 6, 250, 255),        // 8
      Make(kExtract, 2, 6, 258, 270),            // 9
  };
  const std::vector<int64_t> self = SelfTimes(spans);
  const std::vector<int64_t> expected = {50, 20, 10, 10, 15,
                                         43, 10, 5,  12};
  bool all = self.size() == expected.size();
  for (size_t i = 0; all && i < self.size(); ++i) {
    all = self[i] == expected[i] * 1000;
  }
  Check(all, "self time = duration minus the union of children, clipped");

  const std::vector<RequestBreakdown> requests = BreakDown(spans);
  Check(requests.size() == 2, "breakdown: one entry per request");
  Check(requests[1].self_ns[kStoreLookup] == 15000 &&
            requests[1].calls[kStoreLookup] == 2,
        "breakdown: a layer's calls in one request are summed");
  Check(Near(MedianSelfUs(requests, kStoreLookup), 17.5),
        "median lookup self time over requests");

  const KindTable table = BuildKindTable(kRootCoveragePoint, requests, 80.0);
  Check(table.requests == 2, "kind table: both requests");
  Check(Near(table.layer_median_us[kLayerScoreCache], 5.0),
        "kind table: a missing call counts as 0 in the median");
  Check(Near(table.layer_sum_us, 41.0), "kind table: layers sum to 41 us");
  Check(Near(table.unaccounted_us, 39.0), "unaccounted = 80 - 41");
  Check(Near(table.traced_root_median_us, 80.0), "traced root median");
  Check(Near(table.overhead_us, 0.0), "tracing overhead = 80 - 80");
  const double medians[2] = {10.0, 15.0};
  Check(Near(Unaccounted(50.0, medians), 25.0), "unaccounted arithmetic");

  SpanRecorder recorder(8);
  {
    ScopedSpan root(recorder, kRootSweep, 9);
    ScopedSpan child(recorder, kExtract, 9);
  }
  Check(recorder.spans().size() == 2 && recorder.spans()[1].parent == 1 &&
            recorder.spans()[0].parent == 0,
        "recorder: nested spans link to their parent");
}

}  // namespace

int main() {
  TestIntendedTime();
  TestSpans();
  TestDigests();
  std::printf("%s\n", failures == 0 ? "all checks passed" : "FAILED");
  return failures == 0 ? 0 : 1;
}
