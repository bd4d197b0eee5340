// A simulated grid of two sites, h0 and h1, where every attempt on h0 fails:
// the fault the breaker tests route around. The grid makes one attempt per
// job, so each enactor attempt is one grid attempt and every failure on h0
// reaches the run's breaker ledger.
#pragma once

#include "enactor/sim_backend.hpp"
#include "grid/config.hpp"
#include "grid/grid.hpp"
#include "sim/simulator.hpp"

namespace moteur::testkit {

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
  enactor::SimGridBackend backend{grid};
};

}  // namespace moteur::testkit
