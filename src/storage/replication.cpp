#include "storage/replication.hpp"

#include <algorithm>
#include <limits>

#include "common/spec.hpp"

namespace dooc::storage::replication {

std::uint32_t HeatTracker::decayed(const Entry& e, std::uint64_t now_epoch) {
  const std::uint64_t elapsed = now_epoch - e.epoch;
  if (elapsed >= 32) return 0;
  return e.count >> elapsed;
}

std::uint32_t HeatTracker::record(const BlockKey& key) {
  const std::uint64_t epoch = accesses_ / decay_;
  ++accesses_;
  Entry& e = entries_[key];
  e.count = decayed(e, epoch);
  e.epoch = epoch;
  if (e.count < std::numeric_limits<std::uint32_t>::max()) ++e.count;
  return e.count;
}

std::uint32_t HeatTracker::peek(const BlockKey& key) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return 0;
  return decayed(it->second, accesses_ / decay_);
}

void HeatTracker::forget_array(const ArrayName& name) {
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->first.array == name) {
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace dooc::storage::replication

namespace dooc::storage {

ReplicationConfig ReplicationConfig::parse(const std::string& text) {
  const Spec::Choices<bool> kModes = {{"on", true}, {"off", false},  {"1", true},
                                      {"0", false}, {"true", true}, {"false", false}};
  ReplicationConfig cfg;
  Spec spec("DOOC_REPLICATION", text);
  spec.read_mode(cfg.enabled, kModes);
  spec.read_choice("mode", cfg.enabled, kModes);
  spec.read_int("hot_threshold", cfg.hot_threshold, 1, 1u << 20);
  spec.read_int("max_replicas", cfg.max_replicas, 1, 4096);
  spec.read_int("decay", cfg.decay, 1, 1u << 30);
  spec.finish();
  return cfg;
}

ReplicationConfig ReplicationConfig::from_env() { return parse(Spec::env("DOOC_REPLICATION")); }

}  // namespace dooc::storage

namespace dooc::storage::replication {

namespace {
/// splitmix64 finalizer — full avalanche, so nearby ids decorrelate.
std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}
}  // namespace

std::vector<int> rank_holders(const BlockKey& key, int requester, std::vector<int> holders) {
  const std::uint64_t base =
      mix64(std::hash<std::string>()(key.array) ^ (key.block * 0x9e3779b97f4a7c15ull) ^
            (static_cast<std::uint64_t>(requester) * 0xc2b2ae3d27d4eb4full));
  holders.erase(std::remove(holders.begin(), holders.end(), requester), holders.end());
  std::sort(holders.begin(), holders.end(), [base](int a, int b) {
    const std::uint64_t sa = mix64(base ^ static_cast<std::uint64_t>(a));
    const std::uint64_t sb = mix64(base ^ static_cast<std::uint64_t>(b));
    return sa != sb ? sa < sb : a < b;
  });
  return holders;
}

}  // namespace dooc::storage::replication
