#include "workloads.h"

#include <malloc.h>
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <thread>
#include <type_traits>
#include <utility>

#include "common/random.h"
#include "core/sweep.h"
#include "obs/metrics.h"
#include "service/graph_store.h"
#include "service/sharded_engine.h"
#include "stats.h"

namespace perfbench {
namespace {

namespace nb = netbone;

std::string Format(const char* fmt, double a, double b = 0.0,
                   double c = 0.0) {
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer), fmt, a, b, c);
  return buffer;
}

/// The engine-wide counters the result reports, read before and after
/// the timed window.
struct Reading {
  nb::BackboneEngine::Stats stats;
  int64_t sorts = 0;
  int64_t tasks = 0;
  int64_t steals = 0;
  int64_t parks = 0;
  std::vector<int64_t> shard_requests;
};

/// The process-wide counters: the ordering sorts and the scheduler's.
void ReadGlobal(Reading* r) {
  r->sorts = nb::ScoreOrder::SortsPerformed();
  const nb::obs::MetricsSnapshot global =
      nb::obs::MetricRegistry::Global().Snapshot();
  r->tasks = global.ValueOf("scheduler.tasks_executed");
  r->steals = global.ValueOf("scheduler.steals");
  r->parks = global.ValueOf("scheduler.parks");
}

Reading Read(const nb::BackboneEngine& engine) {
  Reading r;
  r.stats = engine.stats();
  r.shard_requests = {r.stats.requests};
  ReadGlobal(&r);
  return r;
}

Reading Read(const nb::ShardedBackboneEngine& engine) {
  Reading r;
  const nb::ShardedBackboneEngine::Stats stats = engine.stats();
  r.stats = stats.total;
  for (const nb::BackboneEngine::Stats& shard : stats.shards) {
    r.shard_requests.push_back(shard.requests);
  }
  ReadGlobal(&r);
  return r;
}

/// Field-wise after - before of the counters ApplyCounters reads.
Reading Minus(const Reading& after, const Reading& before) {
  Reading d;
  d.stats.cache.hits = after.stats.cache.hits - before.stats.cache.hits;
  d.stats.cache.misses = after.stats.cache.misses - before.stats.cache.misses;
  d.stats.cache.evictions =
      after.stats.cache.evictions - before.stats.cache.evictions;
  d.stats.scores_computed =
      after.stats.scores_computed - before.stats.scores_computed;
  d.stats.delta_rescores =
      after.stats.delta_rescores - before.stats.delta_rescores;
  d.sorts = after.sorts - before.sorts;
  d.tasks = after.tasks - before.tasks;
  d.steals = after.steals - before.steals;
  d.parks = after.parks - before.parks;
  for (size_t i = 0; i < after.shard_requests.size(); ++i) {
    d.shard_requests.push_back(after.shard_requests[i] -
                               before.shard_requests[i]);
  }
  return d;
}

Reading Add(const Reading& a, const Reading& b) {
  Reading sum = b;
  sum.stats.cache.hits += a.stats.cache.hits;
  sum.stats.cache.misses += a.stats.cache.misses;
  sum.stats.cache.evictions += a.stats.cache.evictions;
  sum.stats.scores_computed += a.stats.scores_computed;
  sum.stats.delta_rescores += a.stats.delta_rescores;
  sum.sorts += a.sorts;
  sum.tasks += a.tasks;
  sum.steals += a.steals;
  sum.parks += a.parks;
  for (size_t i = 0; i < a.shard_requests.size() &&
                     i < sum.shard_requests.size();
       ++i) {
    sum.shard_requests[i] += a.shard_requests[i];
  }
  return sum;
}

/// Fills the counter-derived fields from the counters' change over the
/// timed window.
void ApplyCounters(const Reading& delta, UntracedResult* out) {
  const int64_t hits = delta.stats.cache.hits;
  const int64_t misses = delta.stats.cache.misses;
  out->hit_ratio = hits + misses > 0
                       ? static_cast<double>(hits) / (hits + misses)
                       : 0.0;
  out->evictions = delta.stats.cache.evictions;
  out->scores_computed = delta.stats.scores_computed;
  const int64_t patched = delta.stats.delta_rescores;
  out->patched_share =
      patched + out->scores_computed > 0
          ? static_cast<double>(patched) / (patched + out->scores_computed)
          : 0.0;
  out->sorts = delta.sorts;
  out->steals_per_task =
      delta.tasks > 0 ? static_cast<double>(delta.steals) / delta.tasks : 0.0;
  out->parks = delta.parks;
  int64_t max_requests = 0;
  int64_t total_requests = 0;
  for (const int64_t n : delta.shard_requests) {
    max_requests = std::max(max_requests, n);
    total_requests += n;
  }
  out->load_imbalance =
      total_requests > 0
          ? static_cast<double>(max_requests) * delta.shard_requests.size() /
                total_requests
          : 1.0;
}

/// One coverage point per (graph, method): scores, sorts and profiles
/// every key, so the timed window starts warm.
std::vector<nb::BackboneRequest> WarmupBatch(
    const std::vector<uint64_t>& fingerprints) {
  std::vector<nb::BackboneRequest> batch;
  for (const uint64_t fp : fingerprints) {
    for (const nb::Method method : kMethods) {
      nb::BackboneRequest request;
      request.graph = fp;
      request.method = method;
      request.kind = nb::RequestKind::kCoveragePoint;
      request.share = 0.1;
      batch.push_back(request);
    }
  }
  return batch;
}

bool Good(const nb::Result<nb::BackboneResponse>& response) {
  return response.ok() && !response->degraded;
}

/// Waits until the steady clock reaches `target_ns`: sleeps while far
/// away, then spins, so a send is late only when the client was busy. The
/// spin pauses between clock reads, leaving a sibling hardware thread
/// that serves a request most of the core.
void WaitUntil(int64_t target_ns) {
  for (;;) {
    const int64_t now = NowNs();
    if (now >= target_ns) return;
    if (target_ns - now > 200000) {
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(target_ns - now - 100000));
    }
    for (int i = 0; i < 8; ++i) {
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#endif
    }
  }
}

void Summarize(std::vector<double> latencies_us, double tail_q,
               UntracedResult* out) {
  out->latency_samples = latencies_us.size();
  out->tail_quantile = tail_q;
  for (const double q : {0.5, 0.9, 0.99, 0.999}) {
    if (PercentileSupported(latencies_us.size(), q)) {
      out->percentiles.emplace_back(q, Percentile(latencies_us, q));
    }
  }
  out->latency_p50_us = Percentile(latencies_us, 0.50);
  out->latency_tail_us = Percentile(latencies_us, tail_q);
  if (!PercentileSupported(latencies_us.size(), tail_q)) {
    out->notes.push_back(
        Format("WARNING: only %.0f latency samples: p%.4g is not supported",
               static_cast<double>(latencies_us.size()), tail_q * 100));
  }
}

/// Returns the memory a destroyed engine freed to the system, so every
/// set-up starts from the same heap state and peak_rss_mb reads one
/// engine's footprint rather than the allocator's leftovers.
void ReleaseFreed() { malloc_trim(0); }

/// Idle time between a set-up and the timed window after it.
constexpr std::chrono::milliseconds kSettle{50};

template <typename Engine>
std::unique_ptr<Engine> MakeWarmEngine(unsigned clients) {
  nb::BackboneEngineOptions engine;
  engine.cache_byte_budget = 0;  // every warm entry stays resident
  if constexpr (std::is_same_v<Engine, nb::ShardedBackboneEngine>) {
    nb::ShardedBackboneEngineOptions options;
    options.num_shards = static_cast<int>(clients);
    options.engine = engine;
    options.engine.num_threads = static_cast<int>(clients);
    return std::make_unique<Engine>(options);
  } else {
    return std::make_unique<Engine>(engine);
  }
}

template <typename Engine>
UntracedResult RunWarmOn(const WarmInputs& inputs,
                         const RunOptions& options) {
  // The timed windows are split into kWarmRounds rounds, each served by
  // a freshly set-up engine (the set-up is what setup_s times): every
  // round's phase A serves the next slice of the one Poisson schedule,
  // then its phase B runs the closed loop. Spreading the phases over
  // several engines and over the whole run keeps one engine's memory
  // layout or one stretch of host noise from deciding the figures.
  UntracedResult out;
  const std::vector<double> grid = SweepGrid();
  const unsigned clients = options.clients;
  const std::vector<int64_t>& schedule = inputs.schedule_ns;
  const int64_t horizon = schedule.empty() ? 1 : schedule.back() + 1;
  constexpr int kRounds = kWarmRounds;
  constexpr int kWindowsPerRound = kSubWindows / kRounds;
  const int64_t round_b_ns =
      static_cast<int64_t>(options.window_s * 0.5 * 1e9) / kRounds;

  std::vector<double> setups;
  std::vector<Arrival> arrivals(schedule.size());
  std::vector<std::vector<Sample>> samples(clients);
  /// Phase B requests and the edges of the graphs they were answered on,
  /// per sub-window, per client.
  std::vector<std::array<std::pair<int64_t, int64_t>, kSubWindows>>
      per_window(clients);
  std::vector<std::array<std::vector<double>, kNumWarmKinds>> calls(clients);
  std::atomic<int64_t> failed{0};
  int64_t phase_b_requests = 0;
  Reading total;
  size_t next_arrival = 0;
  size_t next_op = schedule.size();

  const auto fresh_copies = [&] {
    std::vector<nb::Graph> copies;
    for (const nb::Graph& g : inputs.graphs) copies.push_back(FreshCopy(g));
    return copies;
  };
  // Engine construction, interning and the warm-up scoring of every key.
  const auto set_up = [&](std::vector<nb::Graph> copies,
                          std::vector<uint64_t>* fps) {
    std::unique_ptr<Engine> engine = MakeWarmEngine<Engine>(clients);
    for (nb::Graph& g : copies) fps->push_back(engine->AddGraph(std::move(g)));
    for (const auto& response : engine->ExecuteBatch(WarmupBatch(*fps))) {
      if (!Good(response)) out.violations.push_back("warm-up request failed");
    }
    return engine;
  };
  {
    // An untimed round first: the process's one-time start-up costs (first
    // touches of memory, thread start-up) land before any timed window.
    std::vector<uint64_t> fps;
    std::unique_ptr<Engine> engine = set_up(fresh_copies(), &fps);
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        nb::BackboneRequest request;
        for (size_t i = c; i < 40000; i += clients) {
          const WarmOp& op = inputs.trace[i];
          FillWarmRequest(op, fps[op.graph], grid, &request);
          (void)engine->Execute(request);
        }
      });
    }
    for (std::thread& t : threads) t.join();
    engine.reset();
    ReleaseFreed();
  }
  // The set-ups beyond the rounds' own, for setup_s's median.
  for (int rep = kRounds; rep < kSetupRepeats; ++rep) {
    std::vector<nb::Graph> copies = fresh_copies();
    const int64_t t0 = NowNs();
    std::vector<uint64_t> fps;
    std::unique_ptr<Engine> engine = set_up(std::move(copies), &fps);
    setups.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
    engine.reset();
    ReleaseFreed();
  }

  for (int round = 0; round < kRounds; ++round) {
    std::vector<nb::Graph> copies = fresh_copies();
    const int64_t t0 = NowNs();
    std::vector<uint64_t> fps;
    std::unique_ptr<Engine> engine = set_up(std::move(copies), &fps);
    setups.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
    // Let the worker threads that ran the warm-up go idle first.
    std::this_thread::sleep_for(kSettle);
    std::vector<std::shared_ptr<const nb::Graph>> graphs;
    std::vector<int64_t> edges;
    for (const uint64_t fp : fps) {
      graphs.push_back(engine->FindGraph(fp));
      edges.push_back(graphs.back()->num_edges());
    }
    const Reading before = Read(*engine);

    // Phase A: this round's slice of the open-loop schedule.
    const size_t slice_end =
        round + 1 == kRounds
            ? schedule.size()
            : static_cast<size_t>(
                  std::lower_bound(schedule.begin(), schedule.end(),
                                   horizon * (round + 1) / kRounds) -
                  schedule.begin());
    {
      const size_t slice_begin = next_arrival;
      const int64_t slice_origin =
          slice_begin < schedule.size() ? schedule[slice_begin] : 0;
      std::atomic<size_t> next{slice_begin};
      const int64_t phase_start = NowNs() + 2000000;
      std::vector<std::thread> threads;
      for (unsigned c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
          PinClient(c);
          nb::BackboneRequest request;
          int64_t local_failed = 0;
          for (;;) {
            const size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= slice_end) break;
            const WarmOp& op = inputs.trace[i % inputs.trace.size()];
            FillWarmRequest(op, fps[op.graph], grid, &request);
            Arrival& a = arrivals[i];
            a.intended_ns = phase_start + schedule[i] - slice_origin;
            WaitUntil(a.intended_ns);
            a.start_ns = NowNs();
            nb::Result<nb::BackboneResponse> response =
                engine->Execute(request);
            a.end_ns = NowNs();
            if (!Good(response)) {
              ++local_failed;
            } else if (Sampled(options.seed, i, 4096)) {
              samples[c].push_back(
                  Sample{graphs[op.graph], nullptr, request, *response});
            }
          }
          failed += local_failed;
        });
      }
      for (std::thread& t : threads) t.join();
      next_arrival = slice_end;
    }

    // Phase B: the closed loop, continuing the same trace.
    {
      std::atomic<size_t> next{next_op};
      std::atomic<int64_t> completed{0};
      const int64_t start = NowNs();
      const int64_t deadline = start + round_b_ns;
      std::vector<std::thread> threads;
      for (unsigned c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
          PinClient(c);
          nb::BackboneRequest request;
          int64_t local_done = 0;
          int64_t local_failed = 0;
          for (;;) {
            const size_t i = next.fetch_add(1, std::memory_order_relaxed);
            const WarmOp& op = inputs.trace[i % inputs.trace.size()];
            FillWarmRequest(op, fps[op.graph], grid, &request);
            const int64_t t0 = NowNs();
            nb::Result<nb::BackboneResponse> response =
                engine->Execute(request);
            const int64_t t1 = NowNs();
            ++local_done;
            auto& window =
                per_window[c][round * kWindowsPerRound +
                              SubWindowOf(t1 - start, round_b_ns) *
                                  kWindowsPerRound / kSubWindows];
            ++window.first;
            window.second += edges[op.graph];
            if (options.record_calls) {
              calls[c][op.kind].push_back(static_cast<double>(t1 - t0) *
                                          1e-3);
            }
            if (!Good(response)) {
              ++local_failed;
            } else if (Sampled(options.seed, i, 4096)) {
              samples[c].push_back(
                  Sample{graphs[op.graph], nullptr, request, *response});
            }
            if (t1 >= deadline) break;
          }
          completed += local_done;
          failed += local_failed;
        });
      }
      for (std::thread& t : threads) t.join();
      next_op = next.load();
      phase_b_requests += completed.load();
    }
    out.peak_rss_mb = PeakRssMb();
    total = Add(total, Minus(Read(*engine), before));
    engine.reset();
    ReleaseFreed();
  }
  out.setup_s = Median(setups);
  {
    std::string line = "setup runs (s):";
    for (const double v : setups) line += Format(" %.4f", v);
    out.notes.push_back(line);
  }

  // Phase A figures: percentiles per sub-window of the schedule, by
  // intended send time; the run reports their medians.
  const std::vector<double> latency = LatencyFromIntendedUs(arrivals);
  std::array<std::vector<double>, kSubWindows> windows;
  for (size_t i = 0; i < latency.size(); ++i) {
    windows[SubWindowOf(schedule[i], horizon)].push_back(latency[i]);
  }
  Summarize(latency, kWarmTailQuantile, &out);
  out.latency_p50_us = MedianOfWindowPercentiles(windows, 0.50);
  out.latency_tail_us = MedianOfWindowPercentiles(windows, kWarmTailQuantile);
  {
    std::vector<double> lateness = LatenessUs(arrivals);
    out.lateness_p99_us = Percentile(lateness, 0.99);
  }
  out.notes.push_back(Format(
      "phase A: open loop at %.0f req/s offered, %.0f arrivals, "
      "harness.lateness_p99_us %.3f",
      kWarmOfferedRate, static_cast<double>(schedule.size()),
      out.lateness_p99_us));

  std::vector<double> rates;
  std::vector<double> edge_rates;
  const double window_s =
      static_cast<double>(round_b_ns) * 1e-9 / kWindowsPerRound;
  for (int w = 0; w < kSubWindows; ++w) {
    int64_t done = 0;
    int64_t done_edges = 0;
    for (unsigned c = 0; c < clients; ++c) {
      done += per_window[c][w].first;
      done_edges += per_window[c][w].second;
    }
    rates.push_back(static_cast<double>(done) / window_s);
    edge_rates.push_back(static_cast<double>(done_edges) / window_s);
  }
  out.throughput_rps = Median(rates);
  // The warm window makes no edges servable (every graph is resident and
  // scored before it starts); it reports the edges of the graphs its
  // requests were answered on.
  out.edges_per_s = Median(edge_rates);
  out.notes.push_back(Format(
      "phase B: closed loop, %.0f clients, %.0f requests in %.3f s",
      static_cast<double>(clients), static_cast<double>(phase_b_requests),
      static_cast<double>(round_b_ns) * kRounds * 1e-9));
  if (options.record_calls) {
    const SpanName roots[kNumWarmKinds] = {kRootCoveragePoint, kRootTopShare,
                                           kRootSweep,
                                           kRootGrowUntilConnected};
    for (unsigned c = 0; c < clients; ++c) {
      for (int k = 0; k < kNumWarmKinds; ++k) {
        std::vector<double>& dst = out.call_us[roots[k]];
        dst.insert(dst.end(), calls[c][k].begin(), calls[c][k].end());
      }
    }
  }
  ApplyCounters(total, &out);
  if (out.scores_computed != 0) {
    out.violations.push_back("warm window computed scores");
  }
  if (out.sorts != 0) out.violations.push_back("warm window sorted");
  out.attempted = static_cast<int64_t>(schedule.size()) + phase_b_requests;
  out.failed = failed.load();

  std::vector<Sample> all;
  for (std::vector<Sample>& s : samples) {
    for (Sample& sample : s) all.push_back(std::move(sample));
  }
  out.check = CheckSamples(all);
  return out;
}

}  // namespace

void PinClient(unsigned client) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(client % std::max(1u, std::thread::hardware_concurrency()), &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

bool Sampled(uint64_t seed, uint64_t index, uint64_t one_in) {
  return nb::Mix64(seed ^ nb::Mix64(index + 0x51ED)) % one_in == 0;
}

void FillWarmRequest(const WarmOp& op, uint64_t fingerprint,
                     const std::vector<double>& grid,
                     nb::BackboneRequest* request) {
  request->graph = fingerprint;
  request->method = kMethods[op.method];
  request->share = op.share;
  request->include_edges = true;
  switch (static_cast<WarmKind>(op.kind)) {
    case WarmKind::kCoveragePoint:
      request->kind = nb::RequestKind::kCoveragePoint;
      break;
    case WarmKind::kTopShare:
      request->kind = nb::RequestKind::kTopShare;
      break;
    case WarmKind::kSweep:
      request->kind = nb::RequestKind::kSweep;
      if (request->shares.empty()) request->shares = grid;
      break;
    case WarmKind::kGrowUntilConnected:
      request->kind = nb::RequestKind::kGrowUntilConnected;
      break;
  }
}

UntracedResult RunWarm(const WarmInputs& inputs, const RunOptions& options,
                       bool sharded) {
  return sharded ? RunWarmOn<nb::ShardedBackboneEngine>(inputs, options)
                 : RunWarmOn<nb::BackboneEngine>(inputs, options);
}

void ChainCursor::Push(uint64_t fingerprint) {
  history.push_back(fingerprint);
  if (history.size() > kMaxRevisitBack + 1) history.erase(history.begin());
}

std::vector<ChainCursor> ClientChains(const RevisionInputs& inputs,
                                      unsigned client,
                                      const std::vector<uint64_t>& base_fps) {
  const size_t per_client = inputs.chains.size() / kRevisionClients;
  std::vector<ChainCursor> mine;
  for (size_t ch = client * per_client; ch < (client + 1) * per_client;
       ++ch) {
    ChainCursor cursor;
    cursor.chain = ch;
    cursor.edges = inputs.chains[ch].base.edges();
    cursor.history.push_back(base_fps[ch]);
    mine.push_back(std::move(cursor));
  }
  return mine;
}

nb::BackboneEngineOptions RevisionEngineOptions(const RevisionInputs& inputs) {
  // The cache holds about two revisions of every chain's three entries
  // (~32 bytes per edge each), below the working set of the revision
  // reads (the new revision, the previous one, and revisits up to
  // kMaxRevisitBack back), so entries get evicted. The store holds eight
  // revisions of every chain, so every revisited graph is still resident.
  int64_t entry_bytes = 0;
  int64_t graph_bytes = 0;
  for (const RevisionChain& chain : inputs.chains) {
    entry_bytes += 3 * 32 * chain.base.num_edges();
    graph_bytes += nb::ApproxGraphBytes(chain.base) +
                   48 * chain.base.num_edges();
  }
  nb::BackboneEngineOptions options;
  options.cache_byte_budget = 2 * entry_bytes;
  options.graph_byte_budget = 8 * graph_bytes;
  return options;
}

UntracedResult RunRevisions(const RevisionInputs& inputs,
                            const RunOptions& options) {
  UntracedResult out;
  const nb::BackboneEngineOptions engine_options =
      RevisionEngineOptions(inputs);
  const size_t chains = inputs.chains.size();
  std::unique_ptr<nb::BackboneEngine> engine;
  std::vector<uint64_t> base_fps(chains);
  std::vector<double> setups;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    engine.reset();
    ReleaseFreed();
    std::vector<nb::Graph> copies;
    for (const RevisionChain& c : inputs.chains) {
      copies.push_back(FreshCopy(c.base));
    }
    const int64_t t0 = NowNs();
    engine = std::make_unique<nb::BackboneEngine>(engine_options);
    for (size_t c = 0; c < chains; ++c) {
      base_fps[c] = engine->AddGraph(std::move(copies[c]));
    }
    for (const auto& response : engine->ExecuteBatch(WarmupBatch(base_fps))) {
      if (!Good(response)) out.violations.push_back("warm-up request failed");
    }
    setups.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
  }
  out.setup_s = Median(setups);

  const Reading before = Read(*engine);
  const unsigned clients = kRevisionClients;
  std::atomic<int64_t> attempted{0};
  std::atomic<int64_t> failed{0};
  std::atomic<int64_t> revisions{0};
  std::atomic<int64_t> exhausted{0};
  std::vector<std::vector<Sample>> samples(clients);
  /// (sub-window, latency) of every revision sample, per client.
  std::vector<std::vector<std::pair<int, double>>> sample_us(clients);
  std::vector<std::array<std::vector<double>, kNumRootNames>> calls(clients);
  /// Revisions and their edges completed per sub-window, per client.
  std::vector<std::array<std::pair<int64_t, int64_t>, kSubWindows>>
      per_window(clients);
  const int64_t length = static_cast<int64_t>(options.window_s * 1e9);
  const int64_t start = NowNs();
  const int64_t deadline = start + length;
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      std::vector<ChainCursor> mine = ClientChains(inputs, c, base_fps);
      int64_t local_attempted = 0;
      int64_t local_failed = 0;
      const auto timed = [&](SpanName root, const nb::BackboneRequest& r) {
        const int64_t t0 = NowNs();
        nb::Result<nb::BackboneResponse> response = engine->Execute(r);
        if (options.record_calls) {
          calls[c][root].push_back(static_cast<double>(NowNs() - t0) * 1e-3);
        }
        ++local_attempted;
        if (!Good(response)) ++local_failed;
        return response;
      };
      for (size_t turn = 0; NowNs() < deadline; ++turn) {
        ChainCursor& s = mine[turn % mine.size()];
        const RevisionChain& chain = inputs.chains[s.chain];
        const size_t r = s.revision + 1;
        if (r > chain.steps.size()) {
          ++exhausted;
          break;
        }
        const RevisionStep& step = chain.steps[r - 1];
        nb::Graph graph = ApplyRevisionStep(chain, step, s.edges);
        const int64_t num_edges = graph.num_edges();
        const uint64_t prev = s.history.back();
        const bool sampled = Sampled(options.seed, s.chain * 100000 + r, 32);

        const int64_t t0 = NowNs();
        const uint64_t fp = engine->AddGraphRevision(std::move(graph), prev);
        const int64_t t1 = NowNs();
        s.Push(fp);
        std::vector<std::pair<nb::BackboneRequest,
                              nb::Result<nb::BackboneResponse>>> answered;
        for (int m = 0; m < 3; ++m) {
          nb::BackboneRequest request;
          request.graph = fp;
          request.method = kMethods[m];
          request.kind = nb::RequestKind::kCoveragePoint;
          request.share = step.share;
          nb::Result<nb::BackboneResponse> response =
              timed(kRootCoveragePoint, request);
          if (m == 0) {
            sample_us[c].emplace_back(
                SubWindowOf(t0 - start, length),
                static_cast<double>(NowNs() - t0) * 1e-3);
            if (options.record_calls) {
              calls[c][kRootAddGraphRevision].push_back(
                  static_cast<double>(t1 - t0) * 1e-3);
            }
          }
          if (sampled) answered.emplace_back(request, std::move(response));
        }
        for (int m = 0; m < 3; ++m) {
          nb::BackboneRequest request;
          const size_t back = step.revisit[m];
          request.graph = s.history[s.history.size() - 1 - back];
          request.method = kMethods[m];
          request.kind = nb::RequestKind::kTopShare;
          request.share = step.share;
          nb::Result<nb::BackboneResponse> response =
              timed(kRootTopShare, request);
          if (sampled) answered.emplace_back(request, std::move(response));
        }
        {
          nb::BackboneRequest request;
          request.graph = prev;
          request.next_graph = fp;
          request.method = kMethods[r % 3];
          request.kind = nb::RequestKind::kStabilityPoint;
          request.share = step.share;
          nb::Result<nb::BackboneResponse> response =
              timed(kRootStabilityPoint, request);
          if (sampled) answered.emplace_back(request, std::move(response));
        }
        for (auto& [request, response] : answered) {
          if (!Good(response)) continue;  // already counted as failed
          std::shared_ptr<const nb::Graph> g = engine->FindGraph(request.graph);
          std::shared_ptr<const nb::Graph> next =
              request.next_graph != 0 ? engine->FindGraph(request.next_graph)
                                      : nullptr;
          if (g == nullptr ||
              (request.next_graph != 0 && next == nullptr)) {
            continue;  // evicted meanwhile; nothing to check against
          }
          samples[c].push_back(Sample{std::move(g), std::move(next), request,
                                      *std::move(response)});
        }
        s.revision = r;
        revisions += 1;
        auto& window = per_window[c][SubWindowOf(NowNs() - start, length)];
        ++window.first;
        window.second += num_edges;
      }
      attempted += local_attempted;
      failed += local_failed;
    });
  }
  for (std::thread& t : threads) t.join();
  const double elapsed = static_cast<double>(NowNs() - start) * 1e-9;
  out.peak_rss_mb = PeakRssMb();
  const Reading after = Read(*engine);
  ApplyCounters(Minus(after, before), &out);
  out.notes.push_back(Format(
      "cache at the end: %.0f entries, %.0f bytes of a %.0f byte budget",
      static_cast<double>(after.stats.cache.entries),
      static_cast<double>(after.stats.cache.bytes),
      static_cast<double>(after.stats.cache.byte_budget)));
  out.notes.push_back(Format(
      "  of which %.0f lineage records; %.0f graphs resident, %.0f evicted",
      static_cast<double>(after.stats.cache.lineage_entries),
      static_cast<double>(after.stats.graphs.graphs),
      static_cast<double>(after.stats.graphs.evictions)));
  out.attempted = attempted.load();
  out.failed = failed.load();
  std::vector<double> rates;
  std::vector<double> edge_rates;
  for (int w = 0; w < kSubWindows; ++w) {
    int64_t done = 0;
    int64_t done_edges = 0;
    for (unsigned c = 0; c < clients; ++c) {
      done += per_window[c][w].first;
      done_edges += per_window[c][w].second;
    }
    rates.push_back(static_cast<double>(done) * kSubWindows / elapsed);
    edge_rates.push_back(static_cast<double>(done_edges) * kSubWindows /
                         elapsed);
  }
  out.throughput_rps = Median(rates);
  out.edges_per_s = Median(edge_rates);
  // The median over sub-windows of each one's median, and over pairs of
  // sub-windows of the tail percentile (a single sub-window holds too few
  // samples to support it).
  std::vector<double> latencies;
  std::array<std::vector<double>, kSubWindows> windows;
  std::array<std::vector<double>, kSubWindows> pairs;
  for (const auto& client : sample_us) {
    for (const auto& [window, latency] : client) {
      latencies.push_back(latency);
      windows[window].push_back(latency);
      pairs[window / 2].push_back(latency);
    }
  }
  Summarize(std::move(latencies), kRevisionTailQuantile, &out);
  out.latency_p50_us = MedianOfWindowPercentiles(windows, 0.50);
  out.latency_tail_us =
      MedianOfWindowPercentiles(pairs, kRevisionTailQuantile);
  if (exhausted.load() > 0) {
    out.violations.push_back("a revision chain ran out of generated steps");
  }
  out.notes.push_back(Format(
      "closed loop, %.0f clients, each revising all six networks: %.0f "
      "revisions, "
      "delta.patched_share %.4f",
      static_cast<double>(clients), static_cast<double>(revisions.load()),
      out.patched_share));
  if (options.record_calls) {
    for (unsigned c = 0; c < clients; ++c) {
      for (int k = 0; k < kNumRootNames; ++k) {
        out.call_us[k].insert(out.call_us[k].end(), calls[c][k].begin(),
                              calls[c][k].end());
      }
    }
  }
  std::vector<Sample> all;
  for (std::vector<Sample>& s : samples) {
    for (Sample& sample : s) all.push_back(std::move(sample));
  }
  engine.reset();
  out.check = CheckSamples(all);
  return out;
}

std::vector<nb::BackboneRequest> ColdBatch(uint64_t fingerprint) {
  std::vector<nb::BackboneRequest> batch;
  for (int m = 0; m < 3; ++m) {
    for (const nb::RequestKind kind :
         {nb::RequestKind::kCoveragePoint, nb::RequestKind::kTopShare}) {
      nb::BackboneRequest request;
      request.graph = fingerprint;
      request.method = kMethods[m];
      request.kind = kind;
      request.share = kColdShare;
      request.include_edges = false;
      batch.push_back(request);
    }
  }
  return batch;
}

UntracedResult RunCold(const ColdInputs& inputs, const RunOptions& options) {
  UntracedResult out;
  nb::BackboneEngineOptions engine_options;
  engine_options.cache_byte_budget = 0;  // every graph and entry fits
  std::unique_ptr<nb::BackboneEngine> engine;
  std::vector<double> setups;
  int64_t attempted = 0;
  int64_t failed = 0;
  const auto serve = [&](nb::Graph graph, std::vector<Sample>* keep) {
    const uint64_t fp = engine->AddGraph(std::move(graph));
    std::vector<nb::BackboneRequest> batch = ColdBatch(fp);
    std::vector<nb::Result<nb::BackboneResponse>> responses =
        engine->Submit(batch).get();
    attempted += static_cast<int64_t>(batch.size());
    std::shared_ptr<const nb::Graph> resident =
        keep != nullptr ? engine->FindGraph(fp) : nullptr;
    for (size_t i = 0; i < responses.size(); ++i) {
      if (!Good(responses[i])) {
        ++failed;
      } else if (keep != nullptr) {
        keep->push_back(Sample{resident, nullptr, batch[i], *responses[i]});
      }
    }
    return fp;
  };
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    engine.reset();
    ReleaseFreed();
    nb::Graph copy = FreshCopy(inputs.pool[0]);
    const int64_t t0 = NowNs();
    // Engine construction plus one full cold cycle: the worker threads,
    // the dispatcher and every lazily built structure are up before the
    // first timed graph.
    engine = std::make_unique<nb::BackboneEngine>(engine_options);
    const uint64_t fp = serve(std::move(copy), nullptr);
    setups.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
    const uint64_t retire[1] = {fp};
    engine->RetireFingerprints(retire);
  }
  out.setup_s = Median(setups);
  attempted = 0;
  failed = 0;

  const Reading before = Read(*engine);
  std::vector<Sample> samples;
  std::vector<double> latencies;
  /// Engine-busy nanoseconds, requests and edges per sub-window.
  struct Window {
    int64_t busy_ns = 0;
    int64_t requests = 0;
    int64_t edges = 0;
  };
  std::array<Window, kSubWindows> windows{};
  double busy_s = 0.0;
  int64_t graphs = 0;
  const int64_t length = static_cast<int64_t>(options.window_s * 1e9);
  const int64_t start = NowNs();
  const int64_t deadline = start + length;
  for (int64_t i = 0; NowNs() < deadline; ++i) {
    nb::Graph copy = FreshCopy(inputs.pool[static_cast<size_t>(i) %
                                           inputs.pool.size()]);
    const int64_t num_edges = copy.num_edges();
    // The first graph and a seeded few more are checked by the oracle.
    const bool sampled =
        samples.size() < 12 && (i == 0 || Sampled(options.seed, i, 4));
    const int64_t t0 = NowNs();
    const uint64_t fp = serve(std::move(copy), sampled ? &samples : nullptr);
    const int64_t t1 = NowNs();
    latencies.push_back(static_cast<double>(t1 - t0) * 1e-3);
    busy_s += static_cast<double>(t1 - t0) * 1e-9;
    Window& window = windows[SubWindowOf(t0 - start, length)];
    window.busy_ns += t1 - t0;
    window.requests += static_cast<int64_t>(ColdBatch(0).size());
    window.edges += num_edges;
    ++graphs;
    const uint64_t retire[1] = {fp};
    engine->RetireFingerprints(retire);
  }
  out.peak_rss_mb = PeakRssMb();
  const Reading after = Read(*engine);
  ApplyCounters(Minus(after, before), &out);
  if (const nb::obs::HistogramSnapshot* wait =
          engine->Metrics().FindHistogram("engine.queue_wait_ns")) {
    out.queue_wait_us = static_cast<double>(wait->p50()) * 1e-3;
  }
  if (options.record_calls) out.call_us[kRootColdBatch] = latencies;
  out.attempted = attempted;
  out.failed = failed;
  std::vector<double> rates;
  std::vector<double> edge_rates;
  for (const Window& w : windows) {
    if (w.busy_ns == 0) continue;
    rates.push_back(static_cast<double>(w.requests) * 1e9 / w.busy_ns);
    edge_rates.push_back(static_cast<double>(w.edges) * 1e9 / w.busy_ns);
  }
  out.throughput_rps = Median(rates);
  out.edges_per_s = Median(edge_rates);
  // One sort and one scoring per key, three keys per graph.
  if (out.sorts != 3 * graphs) out.violations.push_back("sorts != 3 per graph");
  if (out.scores_computed != 3 * graphs) {
    out.violations.push_back("scores_computed != 3 per graph");
  }
  out.notes.push_back(Format(
      "closed loop, 1 client: %.0f graphs of ~%.0f edges, busy %.3f s",
      static_cast<double>(graphs),
      static_cast<double>(inputs.pool[0].num_edges()), busy_s));
  Summarize(std::move(latencies), kColdTailQuantile, &out);
  engine.reset();
  out.check = CheckSamples(samples);
  return out;
}

}  // namespace perfbench
