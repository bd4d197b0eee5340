#include "obs/trace.hpp"

namespace moteur::obs {

std::size_t Tracer::Args::size() const {
  std::size_t n = 0;
  for (auto it = begin(); it != end(); ++it) ++n;
  return n;
}

const std::string* Tracer::Args::find(std::string_view key) const {
  for (const Annotation& arg : *this) {
    if (arg.key == key) return &arg.value;
  }
  return nullptr;
}

SpanId Tracer::begin(std::string name, std::string_view category, double start,
                     SpanId parent) {
  const SpanId id = spans_.size() + 1;
  Span& span = spans_.emplace_back();
  span.id = id;
  span.parent = parent;
  span.name = std::move(name);
  span.category = category;
  span.start = start;
  span.end = start - 1.0;  // open
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

SpanId Tracer::record(std::string name, std::string_view category, double start,
                      double end, SpanId parent) {
  const SpanId id = begin(std::move(name), category, start, parent);
  this->end(id, end);
  return id;
}

void Tracer::annotate(SpanId id, std::string_view key, std::string value) {
  if (!known(id)) return;
  Annotation& arg = args_.emplace_back();
  arg.key = key;
  arg.value = std::move(value);
  const auto at = static_cast<std::uint32_t>(args_.size());
  Span& span = spans_[id - 1];
  if (span.last_arg == 0) {
    span.first_arg = at;
  } else {
    args_[span.last_arg - 1].next = at;
  }
  span.last_arg = at;
}

const Span* Tracer::find(SpanId id) const {
  return known(id) ? &spans_[id - 1] : nullptr;
}

void Tracer::close_open_spans(double end) {
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Span& span = spans_[i];
    if (!span.open()) continue;
    span.end = end < span.start ? span.start : end;
    --open_;
    annotate(span.id, "unfinished", "true");
  }
}

}  // namespace moteur::obs
