#include "model/dag.hpp"

#include <algorithm>
#include <vector>

#include "util/error.hpp"
#include "workflow/analysis.hpp"

namespace moteur::model {

namespace {

using workflow::Processor;
using workflow::ProcessorKind;
using workflow::Workflow;

enum class Policy { kNop, kDp, kSp, kDsp };

double makespan_under(const Workflow& workflow,
                      const std::map<std::string, double>& service_seconds,
                      std::size_t n_d, Policy policy) {
  // Per-processor completion times, one entry per data item it emits.
  std::map<std::string, std::vector<double>> completion;
  // Item count per processor: n_d until a barrier collapses the stream to 1.
  std::map<std::string, std::size_t> cardinality;

  double makespan = 0.0;
  for (const auto& name : workflow::topological_order(workflow)) {
    const Processor& proc = workflow.processor(name);
    if (proc.kind == ProcessorKind::kSource) {
      cardinality[name] = n_d;
      completion[name].assign(n_d, 0.0);  // all items available at t = 0
      continue;
    }
    if (proc.kind == ProcessorKind::kSink) continue;

    const auto it = service_seconds.find(name);
    MOTEUR_REQUIRE(it != service_seconds.end(), InternalError,
                   "predict_dag_makespan: no duration for service '" + name + "'");
    const double t = it->second;

    // Gather the (unique) predecessor processors.
    std::vector<const Processor*> preds;
    for (const auto& link : workflow.links()) {
      if (link.to_processor != name) continue;
      const Processor& pred = workflow.processor(link.from_processor);
      if (std::find(preds.begin(), preds.end(), &pred) == preds.end()) {
        preds.push_back(&pred);
      }
    }

    if (proc.synchronization) {
      // Fires once everything upstream has been delivered.
      double start = 0.0;
      for (const Processor* pred : preds) {
        for (const double c : completion.at(pred->name)) start = std::max(start, c);
      }
      cardinality[name] = 1;
      completion[name].assign(1, start + t);
      makespan = std::max(makespan, start + t);
      continue;
    }

    // Plain service: every data predecessor must carry the same item count.
    std::size_t n = n_d;
    bool first = true;
    for (const Processor* pred : preds) {
      const std::size_t pn = cardinality.at(pred->name);
      if (first) {
        n = pn;
        first = false;
      } else {
        MOTEUR_REQUIRE(pn == n, GraphError,
                       "predict_dag_makespan: mixed stream cardinalities into '" +
                           name + "'");
      }
    }

    std::vector<double>& c = completion[name];
    c.assign(n, 0.0);
    cardinality[name] = n;

    const auto ready = [&](std::size_t j) {
      double r = 0.0;
      for (const Processor* pred : preds) r = std::max(r, completion.at(pred->name)[j]);
      return r;
    };

    switch (policy) {
      case Policy::kDsp:
        for (std::size_t j = 0; j < n; ++j) c[j] = ready(j) + t;
        break;
      case Policy::kSp:
        for (std::size_t j = 0; j < n; ++j) {
          const double previous = j > 0 ? c[j - 1] : 0.0;
          c[j] = std::max(ready(j), previous) + t;
        }
        break;
      case Policy::kDp:
      case Policy::kNop: {
        // Stage barrier: no item enters before every predecessor finished.
        double stage_start = 0.0;
        for (const Processor* pred : preds) {
          for (const double pc : completion.at(pred->name)) {
            stage_start = std::max(stage_start, pc);
          }
        }
        for (std::size_t j = 0; j < n; ++j) {
          c[j] = policy == Policy::kDp ? stage_start + t
                                       : stage_start + static_cast<double>(j + 1) * t;
        }
        break;
      }
    }
    for (const double value : c) makespan = std::max(makespan, value);
  }
  return makespan;
}

}  // namespace

DagPolicyPredictions predict_dag_makespan(
    const Workflow& workflow, const std::map<std::string, double>& service_seconds,
    std::size_t n_d) {
  MOTEUR_REQUIRE(n_d > 0, InternalError, "predict_dag_makespan: n_d must be > 0");
  for (const auto& link : workflow.links()) {
    MOTEUR_REQUIRE(!link.feedback, GraphError,
                   "predict_dag_makespan: loops are outside the model (their "
                   "iteration count is execution-dependent)");
  }
  for (const auto* proc : workflow.services()) {
    MOTEUR_REQUIRE(proc->iteration == workflow::IterationStrategy::kDot &&
                       proc->iteration_tree == nullptr,
                   GraphError,
                   "predict_dag_makespan: only flat dot iteration is modeled");
  }
  DagPolicyPredictions out;
  out.sequential = makespan_under(workflow, service_seconds, n_d, Policy::kNop);
  out.dp = makespan_under(workflow, service_seconds, n_d, Policy::kDp);
  out.sp = makespan_under(workflow, service_seconds, n_d, Policy::kSp);
  out.dsp = makespan_under(workflow, service_seconds, n_d, Policy::kDsp);
  return out;
}

}  // namespace moteur::model
