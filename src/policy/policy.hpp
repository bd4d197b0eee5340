#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace moteur::policy {

/// The closed menu of discretionary decisions, one enum per decision kind.
/// Each enum lists its names alphabetically, so a value indexes names().
/// This layer sees plain names and numbers — never grid types — so it stays
/// below data/grid/enactor/service in the dependency order and all of them
/// can link it.

/// How the broker ranks admissible computing elements. `queue-rank` is the
/// historical ranking; `data-gravity` is the same ranking with stage-in
/// estimates; `locality-first` puts stage-in before queue depth;
/// `k-choices` keeps the better of two randomly sampled candidates.
enum class Matchmaking { kDataGravity, kKChoices, kLocalityFirst, kQueueRank };

/// Where retries and speculative clones should (not) land: `rematch` lets
/// every attempt rematch freely (the historical behavior), `avoid-previous`
/// steers away from the previous attempt's CE, `spread` from every CE an
/// earlier attempt touched.
enum class Placement { kAvoidPrevious, kRematch, kSpread };

/// Where a fresh replica registers: the producing CE's close SE
/// (`close-se`, the historical behavior) or every SE (`broadcast`).
/// Stage-in probes the close SE's copy first under both.
enum class Replica { kBroadcast, kCloseSe };

/// How a run's requested weight maps onto its admission-gate share:
/// `weighted` grants it as asked (the historical behavior), `round-robin`
/// grants every run one submission per gate visit.
enum class Admission { kRoundRobin, kWeighted };

/// SE→SE replication. `none` stages every remote byte through the
/// orchestrator (the centralized baseline); `push-to-consumer` and
/// `fanout-k` read SE→SE, the former pushing missing inputs toward the
/// matched CE's close SE at match time, the latter copying every fresh
/// replica to two further SEs.
enum class Replication { kFanoutK, kNone, kPushToConsumer };

/// Which replicas a capacity-bounded SE drops first: least recently used
/// (`lru`), or least recently used among the unpinned (`pin-sources`, which
/// never drops a workflow source file).
enum class Eviction { kLru, kPinSources };

/// Every name of decision kind `Kind`, alphabetically.
template <typename Kind>
const std::vector<std::string>& names();
template <>
const std::vector<std::string>& names<Matchmaking>();
template <>
const std::vector<std::string>& names<Placement>();
template <>
const std::vector<std::string>& names<Replica>();
template <>
const std::vector<std::string>& names<Admission>();
template <>
const std::vector<std::string>& names<Replication>();
template <>
const std::vector<std::string>& names<Eviction>();

template <typename Kind>
const std::string& to_string(Kind value) {
  return names<Kind>()[static_cast<std::size_t>(value)];
}

/// The `Kind` called `name`; otherwise a ParseError naming `label`, `name`
/// and the known names.
template <typename Kind>
Kind parse(const std::string& name, const std::string& label);

/// Flat snapshot of one computing element at match instant.
struct CeCandidate {
  std::string name;
  double queue_rank = 0.0;        ///< broker queue-based response estimate
  double stage_in_seconds = 0.0;  ///< estimated input staging cost (0 when blind)
};

/// True when `matchmaking` ranks on stage-in estimates, so the grid builds
/// an estimator for it (only then do candidates carry stage-in seconds).
bool wants_stage_in(Matchmaking matchmaking);

/// The index of the winning candidate (`candidates` is never empty).
/// `tie_rng` is the broker's historical tie-break stream: it is drawn from
/// ONLY to break exact rank ties, so `queue-rank` replays the
/// pre-policy-engine draw sequence bit for bit. `k_choices_rng` is the
/// private substream k-choices samples from, so enabling k-choices for one
/// run never perturbs the tie draws of concurrent runs.
std::size_t choose(Matchmaking matchmaking, const std::vector<CeCandidate>& candidates,
                   Rng& tie_rng, Rng& k_choices_rng);

/// CE names the broker should steer the next attempt of a submission away
/// from, given the CEs its earlier attempts landed on (oldest first).
/// Advisory: when the set covers every admissible CE the broker falls back
/// to the full set rather than stranding the submission.
std::vector<std::string> avoid(Placement placement,
                               const std::vector<std::string>& tried_ces);

/// One replica resident on a capacity-bounded SE, as seen by an eviction
/// decision. `last_use` is the catalog's logical touch counter (higher =
/// more recently used); `pinned` marks workflow source files.
struct ReplicaResidency {
  std::string lfn;
  double size_mb = 0.0;
  bool pinned = false;
  std::uint64_t last_use = 0;
};

/// LFNs to evict, least recently used first (exact ties broken by LFN), to
/// free at least `need_mb`; pinned replicas are skipped when `honor_pins`.
/// May return fewer (the catalog then over-commits rather than rejecting
/// the incoming replica). `resident` is in deterministic catalog order.
std::vector<std::string> lru_victims(const std::vector<ReplicaResidency>& resident,
                                     double need_mb, bool honor_pins);

}  // namespace moteur::policy
