#include "service/score_cache.h"

#include <chrono>
#include <utility>

#include "common/bytes.h"
#include "service/fault_injection.h"

namespace netbone {

void CachedScore::FinishBuild() {
  profile_ = BuildSweepProfile(*order_);
  PriceBytes();
}

void CachedScore::PriceBytes() {
  bytes_ = static_cast<int64_t>(sizeof(CachedScore)) +
           VectorBytes(scored_.scores()) +
           static_cast<int64_t>(order_->ids().size() * sizeof(EdgeId)) +
           VectorBytes(profile_.covered_nodes) +
           VectorBytes(profile_.kept_weight);
  if (provenance_.has_value()) {
    bytes_ += static_cast<int64_t>(sizeof(DeltaProvenance));
  }
}

std::shared_ptr<const CachedScore> CachedScore::Build(
    std::shared_ptr<const Graph> graph, ScoredEdges scored) {
  // Two-phase construction: the ScoreOrder keeps a pointer to the
  // ScoredEdges, so the table must reach its final heap address before
  // the order is built.
  std::shared_ptr<CachedScore> entry(new CachedScore());
  entry->graph_ = std::move(graph);
  entry->scored_ = std::move(scored);
  entry->order_.emplace(entry->scored_);
  entry->FinishBuild();
  return entry;
}

std::shared_ptr<const CachedScore> CachedScore::BuildPatched(
    std::shared_ptr<const Graph> graph, ScoredEdges scored,
    const CachedScore& base, std::span<const EdgeId> base_to_next,
    std::span<const EdgeId> dirty, uint64_t base_fingerprint) {
  std::shared_ptr<CachedScore> entry(new CachedScore());
  entry->graph_ = std::move(graph);
  entry->scored_ = std::move(scored);
  // The patch constructor: no global sort (SortsPerformed stays flat).
  entry->order_.emplace(entry->scored_, base.order(), base_to_next, dirty);
  entry->provenance_ = DeltaProvenance{base_fingerprint,
                                       static_cast<int64_t>(dirty.size()),
                                       entry->scored_.size()};
  entry->FinishBuild();
  return entry;
}

Result<std::shared_ptr<const CachedScore>> CachedScore::Restore(
    std::shared_ptr<const Graph> graph, ScoredEdges scored,
    std::vector<EdgeId> order_ids, SweepProfile profile,
    std::optional<DeltaProvenance> provenance) {
  std::shared_ptr<CachedScore> entry(new CachedScore());
  entry->graph_ = std::move(graph);
  entry->scored_ = std::move(scored);
  // Same two-phase rule as Build: the permutation is validated against
  // the member table at its final address, not the caller's temporary.
  Result<ScoreOrder> order =
      ScoreOrder::FromPermutation(entry->scored_, std::move(order_ids));
  if (!order.ok()) return order.status();
  entry->order_.emplace(std::move(*order));
  entry->profile_ = std::move(profile);
  entry->provenance_ = std::move(provenance);
  entry->PriceBytes();
  return std::shared_ptr<const CachedScore>(std::move(entry));
}

std::shared_ptr<const CachedScore> ScoreCache::GetLocked(
    const ScoreKey& key) {
  const auto it = index_.find(key);
  if (it == index_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second);  // bump to most-recent
  return it->second->second;
}

std::shared_ptr<const CachedScore> ScoreCache::Lookup(const ScoreKey& key,
                                                      bool count_miss) {
  obs::ScopedRecord timing(metrics_timing_.load(std::memory_order_relaxed),
                           &get_ns_);
  std::lock_guard<std::mutex> lock(mu_);
  std::shared_ptr<const CachedScore> entry = GetLocked(key);
  if (entry != nullptr) {
    ++hits_;
  } else if (count_miss) {
    ++misses_;
  }
  return entry;
}

std::shared_ptr<const CachedScore> ScoreCache::Get(const ScoreKey& key) {
  return Lookup(key, /*count_miss=*/true);
}

std::shared_ptr<const CachedScore> ScoreCache::Probe(const ScoreKey& key) {
  return Lookup(key, /*count_miss=*/false);
}

std::shared_ptr<const CachedScore> ScoreCache::Peek(const ScoreKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  return GetLocked(key);
}

int64_t ScoreCache::LineageBytes(const Lineage& record) {
  return kLineageEntryBytes +
         (record.delta != nullptr ? record.delta->ApproxBytes() : 0);
}

void ScoreCache::EraseLineageLocked(
    std::unordered_map<uint64_t, LineageSlot>::iterator it) {
  const int64_t record_bytes = LineageBytes(it->second.record);
  bytes_ -= record_bytes;
  lineage_bytes_ -= record_bytes;
  if (it->second.record.delta != nullptr) {
    delta_queue_.erase(it->second.delta_seq);
  }
  lineage_.erase(it);
}

void ScoreCache::RegisterLineage(uint64_t child, uint64_t parent,
                                 std::shared_ptr<const GraphDelta> delta) {
  if (child == 0 || parent == 0 || child == parent) return;
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = lineage_.find(child);
  if (it != lineage_.end()) {
    EraseLineageLocked(it);
  } else if (lineage_.size() >= kMaxLineageEntries) {
    // Wholesale drop, like the negative cache: the cost is lost patch
    // opportunities for old revisions, never correctness.
    bytes_ -= lineage_bytes_;
    lineage_bytes_ = 0;
    lineage_.clear();
    delta_queue_.clear();
  }
  LineageSlot slot{Lineage{parent, std::move(delta)}, 0};
  if (slot.record.delta != nullptr) {
    slot.delta_seq = next_delta_seq_++;
    delta_queue_.emplace(slot.delta_seq, child);
  }
  const int64_t record_bytes = LineageBytes(slot.record);
  lineage_.emplace(child, std::move(slot));
  bytes_ += record_bytes;
  lineage_bytes_ += record_bytes;
  TrimLocked();
}

ScoreCache::Lineage ScoreCache::LineageFor(uint64_t child) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = lineage_.find(child);
  return it != lineage_.end() ? it->second.record : Lineage{};
}

void ScoreCache::Put(const ScoreKey& key,
                     std::shared_ptr<const CachedScore> score) {
  obs::ScopedRecord timing(metrics_timing_.load(std::memory_order_relaxed),
                           &put_ns_);
  std::lock_guard<std::mutex> lock(mu_);
  // Fault-injection site: a dropped insert models the cache losing the
  // allocation race under memory pressure. The caller's shared_ptr still
  // serves every waiter of the in-flight computation — the entry is
  // simply never cached, so the next request on the key rescores.
  if (InjectFault(FaultSite::kCacheInsertFailure)) {
    ++insert_failures_;
    return;
  }
  const auto it = index_.find(key);
  if (it != index_.end()) {
    bytes_ -= it->second->second->bytes();
    lru_.erase(it->second);
    index_.erase(it);
  }
  bytes_ += score->bytes();
  lru_.emplace_front(key, std::move(score));
  index_.emplace(key, lru_.begin());
  TrimLocked();
}

void ScoreCache::set_byte_budget(int64_t byte_budget) {
  std::lock_guard<std::mutex> lock(mu_);
  byte_budget_ = byte_budget;
  TrimLocked();
}

void ScoreCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  index_.clear();
  lineage_.clear();
  delta_queue_.clear();
  lineage_bytes_ = 0;
  bytes_ = 0;
}

std::vector<std::pair<ScoreKey, std::shared_ptr<const CachedScore>>>
ScoreCache::Entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<ScoreKey, std::shared_ptr<const CachedScore>>>
      entries;
  entries.reserve(lru_.size());
  // Back-to-front: lru_.front() is most recent, so the vector reads
  // LRU-first and a re-Put replay restores the same recency order.
  for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
    entries.push_back(*it);
  }
  return entries;
}

std::vector<std::pair<uint64_t, ScoreCache::Lineage>>
ScoreCache::LineageEntries() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<uint64_t, Lineage>> entries;
  entries.reserve(lineage_.size());
  for (const auto& [child, slot] : lineage_) {
    entries.emplace_back(child, slot.record);
  }
  return entries;
}

int64_t ScoreCache::EraseGraphEntries(uint64_t fingerprint) {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t dropped = 0;
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (it->first.graph == fingerprint) {
      bytes_ -= it->second->bytes();
      index_.erase(it->first);
      it = lru_.erase(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  const auto lineage_it = lineage_.find(fingerprint);
  if (lineage_it != lineage_.end()) EraseLineageLocked(lineage_it);
  return dropped;
}

std::span<const obs::StatsField<ScoreCache::Stats>> ScoreCache::MetricFields() {
  static constexpr obs::StatsField<Stats> kFields[] = {
      {"hits", &Stats::hits},
      {"misses", &Stats::misses},
      {"evictions", &Stats::evictions},
      {"entries", &Stats::entries},
      {"lineage_entries", &Stats::lineage_entries},
      {"bytes", &Stats::bytes},
      {"byte_budget", &Stats::byte_budget},
      {"insert_failures", &Stats::insert_failures},
  };
  return kFields;
}

void ScoreCache::RegisterMetrics(obs::MetricRegistry& registry,
                                 const std::string& prefix,
                                 const void* owner) {
  // One gauge *group* over a single stats() call: every field a registry
  // snapshot reports comes from the same instant under mu_, so a rollup
  // summing shards can't observe torn per-field reads.
  registry.RegisterGaugeGroup(
      [this, prefix] {
        std::vector<obs::MetricsSnapshot::Value> values;
        obs::AppendFields(stats(), MetricFields(), prefix, &values);
        return values;
      },
      owner);
  registry.RegisterHistogram(prefix + "get_ns", &get_ns_, owner);
  registry.RegisterHistogram(prefix + "put_ns", &put_ns_, owner);
  registry.RegisterHistogram(prefix + "evict_ns", &evict_ns_, owner);
}

ScoreCache::Stats ScoreCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats stats;
  stats.hits = hits_;
  stats.misses = misses_;
  stats.evictions = evictions_;
  stats.entries = static_cast<int64_t>(lru_.size());
  stats.lineage_entries = static_cast<int64_t>(lineage_.size());
  stats.bytes = bytes_;
  stats.byte_budget = byte_budget_;
  stats.insert_failures = insert_failures_;
  return stats;
}

void ScoreCache::TrimLocked() {
  if (byte_budget_ <= 0 || bytes_ <= byte_budget_) return;
  obs::ScopedRecord timing(metrics_timing_.load(std::memory_order_relaxed),
                           &evict_ns_);
  // Lineage deltas go first, oldest-registered first: a shed delta costs
  // the revision's next patch one re-diff, an evicted entry a full
  // rescore. The record keeps its parent link, so the lineage walk still
  // finds the warm ancestor.
  while (bytes_ > byte_budget_ && !delta_queue_.empty()) {
    const auto oldest = delta_queue_.begin();
    Lineage& record = lineage_.find(oldest->second)->second.record;
    const int64_t delta_bytes = record.delta->ApproxBytes();
    bytes_ -= delta_bytes;
    lineage_bytes_ -= delta_bytes;
    record.delta.reset();
    delta_queue_.erase(oldest);
  }
  // What remains of the lineage map is parent links alone, which the
  // record cap bounds at a few MiB; entries are evicted until the budget
  // holds or none are left.
  while (bytes_ > byte_budget_ && !lru_.empty()) {
    const auto& victim = lru_.back();
    bytes_ -= victim.second->bytes();
    index_.erase(victim.first);
    lru_.pop_back();
    ++evictions_;
  }
}

}  // namespace netbone
