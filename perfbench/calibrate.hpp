// Host-speed calibration. The benchmark runs on shared virtual machines whose
// single-core speed drifts by up to 1.7x over seconds (other tenants on the
// same physical cores). A fixed reference kernel, timed on the same thread
// and CPU right beside the measured work, samples that drift; dividing by it
// turns a wall time into a time at the reference speed.
#pragma once

namespace perfbench {

/// Wall seconds of one pass of the reference kernel on the calling thread:
/// a fixed, seed-free mix of what the enactor's hot paths do (small heap
/// allocations, string keys, hash and ordered maps, type-erased calls).
double reference_seconds();

/// The reference kernel's wall seconds on an unloaded host of the kind the
/// benchmark was tuned on; normalised times are scaled back by it so they
/// read in ordinary seconds.
constexpr double kReferenceNominalSeconds = 0.75e-3;

}  // namespace perfbench
