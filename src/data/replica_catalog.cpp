#include "data/replica_catalog.hpp"

#include <algorithm>

namespace moteur::data {

void ReplicaCatalog::register_replica(const std::string& lfn,
                                      const std::string& storage_element,
                                      double size_mb, bool pinned) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& entry = entries_[lfn];
  if (size_mb > 0.0 && size_mb != entry.size_mb) {
    // Keep per-SE usage consistent when a size becomes known late.
    for (const std::string& se : entry.locations) {
      se_used_mb_[se] += size_mb - entry.size_mb;
    }
    entry.size_mb = size_mb;
  }
  if (pinned) entry.pinned = true;
  entry.last_use = ++clock_;
  auto& locs = entry.locations;
  if (std::find(locs.begin(), locs.end(), storage_element) != locs.end()) return;
  locs.push_back(storage_element);
  se_used_mb_[storage_element] += entry.size_mb;
  evict_for_locked(lfn, storage_element);
}

std::vector<std::string> ReplicaCatalog::locate(const std::string& lfn) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(lfn);
  if (it == entries_.end()) return {};
  return it->second.locations;
}

bool ReplicaCatalog::has(const std::string& lfn, const std::string& storage_element) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(lfn);
  if (it == entries_.end()) return false;
  const auto& locs = it->second.locations;
  return std::find(locs.begin(), locs.end(), storage_element) != locs.end();
}

double ReplicaCatalog::size_mb(const std::string& lfn) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(lfn);
  return it == entries_.end() ? 0.0 : it->second.size_mb;
}

void ReplicaCatalog::touch(const std::string& lfn) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(lfn);
  if (it != entries_.end()) it->second.last_use = ++clock_;
}

bool ReplicaCatalog::erase_location_locked(const std::string& lfn,
                                           const std::string& storage_element) {
  auto it = entries_.find(lfn);
  if (it == entries_.end()) return false;
  auto& locs = it->second.locations;
  auto pos = std::find(locs.begin(), locs.end(), storage_element);
  if (pos == locs.end()) return false;
  locs.erase(pos);
  se_used_mb_[storage_element] -= it->second.size_mb;
  return true;
}

void ReplicaCatalog::evict_for_locked(const std::string& incoming_lfn,
                                      const std::string& storage_element) {
  const auto cap = se_capacity_mb_.find(storage_element);
  if (cap == se_capacity_mb_.end() || cap->second <= 0.0) return;
  const double used = se_used_mb_[storage_element];
  if (used <= cap->second) return;

  // entries_ iterates in lfn order, so the residency list (and with it the
  // victim choice on exact last-use ties) is deterministic.
  std::vector<policy::ReplicaResidency> resident;
  for (const auto& [lfn, entry] : entries_) {
    if (lfn == incoming_lfn) continue;
    const auto& locs = entry.locations;
    if (std::find(locs.begin(), locs.end(), storage_element) == locs.end()) continue;
    resident.push_back({lfn, entry.size_mb, entry.pinned, entry.last_use});
  }
  const std::vector<std::string> victims = policy::lru_victims(
      resident, used - cap->second, eviction_ == policy::Eviction::kPinSources);
  for (const std::string& victim : victims) {
    if (erase_location_locked(victim, storage_element)) ++evictions_;
  }
}

bool ReplicaCatalog::invalidate_replica(const std::string& lfn,
                                        const std::string& storage_element) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!erase_location_locked(lfn, storage_element)) return false;
  ++invalidations_;
  return true;
}

void ReplicaCatalog::unregister(const std::string& lfn) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(lfn);
  if (it == entries_.end()) return;
  for (const std::string& se : it->second.locations) {
    se_used_mb_[se] -= it->second.size_mb;
  }
  entries_.erase(it);
}

void ReplicaCatalog::set_se_available(const std::string& storage_element, bool available) {
  std::lock_guard<std::mutex> lock(mutex_);
  se_available_[storage_element] = available;
}

bool ReplicaCatalog::se_available(const std::string& storage_element) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = se_available_.find(storage_element);
  return it == se_available_.end() ? true : it->second;
}

void ReplicaCatalog::set_se_capacity(const std::string& storage_element,
                                     double capacity_mb) {
  std::lock_guard<std::mutex> lock(mutex_);
  se_capacity_mb_[storage_element] = capacity_mb;
}

void ReplicaCatalog::set_eviction_policy(policy::Eviction eviction) {
  std::lock_guard<std::mutex> lock(mutex_);
  eviction_ = eviction;
}

double ReplicaCatalog::used_mb(const std::string& storage_element) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = se_used_mb_.find(storage_element);
  return it == se_used_mb_.end() ? 0.0 : it->second;
}

std::size_t ReplicaCatalog::invalidation_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return invalidations_;
}

std::size_t ReplicaCatalog::eviction_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return evictions_;
}

std::size_t ReplicaCatalog::file_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

std::size_t ReplicaCatalog::replica_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t n = 0;
  for (const auto& [lfn, entry] : entries_) n += entry.locations.size();
  return n;
}

}  // namespace moteur::data
