// A simulated grid of two sites, h0 and h1, where every attempt on h0 fails:
// the fault the breaker tests route around. The grid makes one attempt per
// job, so each enactor attempt is one grid attempt and every failure on h0
// reaches the run's breaker ledger. Its backend counts the ledgers attached
// to and detached from the grid's broker.
#pragma once

#include <atomic>

#include "enactor/sim_backend.hpp"
#include "grid/config.hpp"
#include "grid/grid.hpp"
#include "sim/simulator.hpp"

namespace moteur::testkit {

/// A simulated-grid backend that counts the breaker ledgers attached to and
/// detached from its broker.
class LedgerCountingBackend : public enactor::SimGridBackend {
 public:
  using SimGridBackend::SimGridBackend;
  void add_health(grid::CeHealth* health) override {
    ++added;
    SimGridBackend::add_health(health);
  }
  void remove_health(grid::CeHealth* health) override {
    ++removed;
    SimGridBackend::remove_health(health);
  }
  std::atomic<int> added{0};
  std::atomic<int> removed{0};
};

struct FailingSiteGrid {
  static grid::GridConfig config() {
    grid::ComputingElementConfig h0;
    h0.name = "h0";
    h0.worker_slots = 4;
    h0.failure_probability = 1.0;
    grid::ComputingElementConfig h1 = h0;
    h1.name = "h1";
    h1.failure_probability = 0.0;
    grid::GridConfig config;
    config.computing_elements = {h0, h1};
    config.max_attempts = 1;
    return config;
  }

  sim::Simulator simulator;
  grid::Grid grid{simulator, config()};
  LedgerCountingBackend backend{grid};
};

}  // namespace moteur::testkit
