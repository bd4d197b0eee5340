#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "policy/policy.hpp"

namespace moteur::data {

/// Tracks which StorageElements hold a copy of which logical files — the
/// simulated counterpart of the EGEE replica location service. The grid
/// consults it to price stage-in (a replica on the close SE is local, any
/// other copy pays the remote penalty) and registers freshly produced
/// outputs so later jobs can be placed next to their data.
///
/// Data layer: depends only on policy/ (for eviction victims), so data/,
/// grid/, and enactor/ can all link against it without a cycle.
///
/// SEs may be capacity-bounded (`set_se_capacity`): registrations that
/// overflow the bound evict victims under the installed eviction policy.
/// The cap is soft — when the policy cannot free enough (everything
/// pinned), the incoming replica still registers and the SE over-commits.
class ReplicaCatalog {
 public:
  /// Record that `storage_element` holds `lfn` (idempotent per SE).
  /// `pinned` marks workflow source files for pin-aware eviction policies;
  /// once pinned, an lfn stays pinned.
  void register_replica(const std::string& lfn, const std::string& storage_element,
                        double size_mb, bool pinned = false);

  /// StorageElement names holding `lfn`, registration order. Empty when
  /// unknown.
  std::vector<std::string> locate(const std::string& lfn) const;

  /// Does `storage_element` hold a replica of `lfn`?
  bool has(const std::string& lfn, const std::string& storage_element) const;

  /// Nominal size of `lfn` (0 when unknown).
  double size_mb(const std::string& lfn) const;

  /// Bump `lfn`'s logical last-use clock (consulted by LRU eviction).
  void touch(const std::string& lfn);

  /// Drop the replica of `lfn` held by `storage_element` — the copy was
  /// lost, failed its digest check, or its SE died. The entry itself (and
  /// its recorded size) survives even when the last location goes, so a
  /// later re-derivation can re-register under the same name. Returns true
  /// when a replica was actually removed.
  bool invalidate_replica(const std::string& lfn, const std::string& storage_element);

  /// Forget `lfn` entirely (every replica and the size record).
  void unregister(const std::string& lfn);

  /// Per-SE health view, maintained by the grid's outage schedule and
  /// consulted by data-aware matchmaking: replicas on a down SE must not
  /// attract jobs. Unknown SEs are available.
  void set_se_available(const std::string& storage_element, bool available);
  bool se_available(const std::string& storage_element) const;

  /// Bound `storage_element` to `capacity_mb` of replicas (0 = unbounded).
  void set_se_capacity(const std::string& storage_element, double capacity_mb);

  /// Install the eviction policy consulted when a bounded SE overflows
  /// (default `lru`).
  void set_eviction_policy(policy::Eviction eviction);

  /// Megabytes of replicas currently registered on `storage_element`.
  double used_mb(const std::string& storage_element) const;

  std::size_t file_count() const;
  std::size_t replica_count() const;

  /// Replicas dropped through invalidate_replica() since construction.
  std::size_t invalidation_count() const;

  /// Replicas dropped by the eviction policy since construction.
  std::size_t eviction_count() const;

 private:
  struct Entry {
    double size_mb = 0.0;
    bool pinned = false;
    std::uint64_t last_use = 0;
    std::vector<std::string> locations;
  };

  bool erase_location_locked(const std::string& lfn, const std::string& storage_element);
  void evict_for_locked(const std::string& incoming_lfn,
                        const std::string& storage_element);

  mutable std::mutex mutex_;
  std::map<std::string, Entry> entries_;
  std::map<std::string, bool> se_available_;
  std::map<std::string, double> se_capacity_mb_;
  std::map<std::string, double> se_used_mb_;
  policy::Eviction eviction_ = policy::Eviction::kLru;
  std::uint64_t clock_ = 0;
  std::size_t invalidations_ = 0;
  std::size_t evictions_ = 0;
};

}  // namespace moteur::data
