#include "obs/trace.hpp"

namespace moteur::obs {

SpanId Tracer::begin(std::string name, std::string category, double start, SpanId parent) {
  const SpanId id = spans_.size() + 1;
  Span span;
  span.id = id;
  span.parent = parent;
  span.name = std::move(name);
  span.category = std::move(category);
  span.start = start;
  span.end = start - 1.0;  // open
  spans_.push_back(std::move(span));
  ++open_;
  return id;
}

void Tracer::end(SpanId id, double end) {
  if (!known(id)) return;
  Span& span = spans_[id - 1];
  if (!span.open()) return;
  span.end = end < span.start ? span.start : end;
  --open_;
}

SpanId Tracer::record(std::string name, std::string category, double start, double end,
                      SpanId parent) {
  const SpanId id = begin(std::move(name), std::move(category), start, parent);
  this->end(id, end);
  return id;
}

void Tracer::annotate(SpanId id, std::string key, std::string value) {
  if (!known(id)) return;
  spans_[id - 1].args.emplace_back(std::move(key), std::move(value));
}

const Span* Tracer::find(SpanId id) const {
  return known(id) ? &spans_[id - 1] : nullptr;
}

void Tracer::close_open_spans(double end) {
  for (Span& span : spans_) {
    if (!span.open()) continue;
    span.end = end < span.start ? span.start : end;
    span.args.emplace_back("unfinished", "true");
    --open_;
  }
}

}  // namespace moteur::obs
