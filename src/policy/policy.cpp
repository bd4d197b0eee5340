#include "policy/policy.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace moteur::policy {

template <>
const std::vector<std::string>& names<Matchmaking>() {
  static const std::vector<std::string> list = {"data-gravity", "k-choices",
                                                "locality-first", "queue-rank"};
  return list;
}

template <>
const std::vector<std::string>& names<Placement>() {
  static const std::vector<std::string> list = {"avoid-previous", "rematch", "spread"};
  return list;
}

template <>
const std::vector<std::string>& names<Replica>() {
  static const std::vector<std::string> list = {"broadcast", "close-se"};
  return list;
}

template <>
const std::vector<std::string>& names<Admission>() {
  static const std::vector<std::string> list = {"round-robin", "weighted"};
  return list;
}

template <>
const std::vector<std::string>& names<Replication>() {
  static const std::vector<std::string> list = {"fanout-k", "none", "push-to-consumer"};
  return list;
}

template <>
const std::vector<std::string>& names<Eviction>() {
  static const std::vector<std::string> list = {"lru", "pin-sources"};
  return list;
}

template <typename Kind>
Kind parse(const std::string& name, const std::string& label) {
  const std::vector<std::string>& known = names<Kind>();
  const auto it = std::find(known.begin(), known.end(), name);
  if (it == known.end()) {
    throw ParseError(label + " must be one of " + join(known, ", ") + " (got '" + name + "')");
  }
  return static_cast<Kind>(it - known.begin());
}

template Matchmaking parse(const std::string&, const std::string&);
template Placement parse(const std::string&, const std::string&);
template Replica parse(const std::string&, const std::string&);
template Admission parse(const std::string&, const std::string&);
template Replication parse(const std::string&, const std::string&);
template Eviction parse(const std::string&, const std::string&);

namespace {

/// The winner among `candidates` under the strict order `better`: the first
/// best one, or — when `same` finds exact ties with it — a uniform pick among
/// them (in index order), drawn from `tie_rng` only when there is a tie to
/// break. The tied candidates are counted, then found again by a second scan,
/// so picking allocates nothing.
template <typename Better, typename Same>
std::size_t pick_best(std::size_t n, Rng& tie_rng, Better better, Same same) {
  std::size_t first = 0;
  std::size_t tied = 1;
  for (std::size_t i = 1; i < n; ++i) {
    if (better(i, first)) {
      first = i;
      tied = 1;
    } else if (same(i, first)) {
      ++tied;
    }
  }
  if (tied == 1) return first;
  auto pick =
      static_cast<std::size_t>(tie_rng.uniform_int(0, static_cast<std::int64_t>(tied) - 1));
  for (std::size_t i = first;; ++i) {
    if (same(i, first) && pick-- == 0) return i;
  }
}

/// Queue estimate plus whatever stage-in estimate the caller supplied (zero
/// when matchmaking blind).
std::size_t queue_rank(const std::vector<CeCandidate>& candidates, Rng& tie_rng) {
  const auto rank = [&](std::size_t i) {
    return candidates[i].queue_rank + candidates[i].stage_in_seconds;
  };
  return pick_best(
      candidates.size(), tie_rng, [&](std::size_t i, std::size_t j) { return rank(i) < rank(j); },
      [&](std::size_t i, std::size_t j) { return rank(i) == rank(j); });
}

/// Lexicographic (stage-in seconds, queue rank): data locality dominates,
/// queue pressure only separates equally-close CEs.
std::size_t locality_first(const std::vector<CeCandidate>& candidates, Rng& tie_rng) {
  return pick_best(
      candidates.size(), tie_rng,
      [&](std::size_t i, std::size_t j) {
        const CeCandidate& c = candidates[i];
        const CeCandidate& lead = candidates[j];
        return c.stage_in_seconds < lead.stage_in_seconds ||
               (c.stage_in_seconds == lead.stage_in_seconds && c.queue_rank < lead.queue_rank);
      },
      [&](std::size_t i, std::size_t j) {
        return candidates[i].stage_in_seconds == candidates[j].stage_in_seconds &&
               candidates[i].queue_rank == candidates[j].queue_rank;
      });
}

/// Power-of-two-choices: sample two distinct candidates and keep the
/// better-ranked one.
std::size_t k_choices(const std::vector<CeCandidate>& candidates, Rng& rng) {
  const std::size_t n = candidates.size();
  if (n == 1) return 0;
  const auto first =
      static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  auto second =
      static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 2));
  if (second >= first) ++second;
  const auto rank = [&](std::size_t i) {
    return candidates[i].queue_rank + candidates[i].stage_in_seconds;
  };
  return rank(second) < rank(first) ? second : first;
}

}  // namespace

bool wants_stage_in(Matchmaking matchmaking) {
  return matchmaking == Matchmaking::kDataGravity ||
         matchmaking == Matchmaking::kLocalityFirst;
}

std::size_t choose(Matchmaking matchmaking, const std::vector<CeCandidate>& candidates,
                   Rng& tie_rng, Rng& k_choices_rng) {
  switch (matchmaking) {
    case Matchmaking::kLocalityFirst: return locality_first(candidates, tie_rng);
    case Matchmaking::kKChoices: return k_choices(candidates, k_choices_rng);
    case Matchmaking::kDataGravity:
    case Matchmaking::kQueueRank: break;
  }
  return queue_rank(candidates, tie_rng);
}

std::vector<std::string> avoid(Placement placement,
                               const std::vector<std::string>& tried_ces) {
  switch (placement) {
    case Placement::kAvoidPrevious:
      if (tried_ces.empty()) return {};
      return {tried_ces.back()};
    case Placement::kSpread: return tried_ces;
    case Placement::kRematch: break;
  }
  return {};
}

std::vector<std::string> lru_victims(const std::vector<ReplicaResidency>& resident,
                                     double need_mb, bool honor_pins) {
  std::vector<const ReplicaResidency*> order;
  order.reserve(resident.size());
  for (const ReplicaResidency& r : resident) {
    if (honor_pins && r.pinned) continue;
    order.push_back(&r);
  }
  std::sort(order.begin(), order.end(),
            [](const ReplicaResidency* a, const ReplicaResidency* b) {
              if (a->last_use != b->last_use) return a->last_use < b->last_use;
              return a->lfn < b->lfn;
            });
  std::vector<std::string> victims;
  double freed = 0.0;
  for (const ReplicaResidency* r : order) {
    if (freed >= need_mb) break;
    victims.push_back(r->lfn);
    freed += r->size_mb;
  }
  return victims;
}

}  // namespace moteur::policy
