#include "data/token.hpp"

#include "util/error.hpp"

namespace moteur::data {

std::string to_string(const IndexVector& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) out += ",";
    out += std::to_string(v[i]);
  }
  out += "]";
  return out;
}

namespace {

Provenance::Ptr derived_provenance(const std::string& processor, const std::string& port,
                                   const std::vector<Token>& inputs) {
  Provenance::Inputs input_histories;
  input_histories.reserve(inputs.size());
  for (const auto& input : inputs) input_histories.push_back(input.provenance());
  return Provenance::derived(processor, port, std::move(input_histories));
}

}  // namespace

Token::Token(std::any payload, std::string repr, IndexVector indices,
             Provenance::Ptr provenance) {
  MOTEUR_REQUIRE(provenance != nullptr, InternalError, "token without provenance");
  auto body = std::make_shared<Body>();
  body->payload = std::move(payload);
  body->repr = std::move(repr);
  body->indices = std::move(indices);
  body->provenance = std::move(provenance);
  body_ = std::move(body);
}

Token Token::from_source(const std::string& source_name, std::size_t index,
                         std::any payload, std::string repr) {
  auto body = std::make_shared<Body>();
  body->digest = fnv1a(repr);
  body->payload = std::move(payload);
  body->repr = std::move(repr);
  body->indices = IndexVector{index};
  body->provenance = Provenance::source(source_name, index);
  return Token(std::move(body));
}

Token Token::derived(const std::string& processor, const std::string& port,
                     const std::vector<Token>& inputs, IndexVector indices,
                     std::any payload, std::string repr, std::uint64_t digest,
                     std::shared_ptr<const DataRef> ref) {
  auto body = std::make_shared<Body>();
  body->payload = std::move(payload);
  body->repr = std::move(repr);
  body->indices = std::move(indices);
  body->provenance = derived_provenance(processor, port, inputs);
  body->digest = digest;
  body->ref = std::move(ref);
  return Token(std::move(body));
}

Token Token::poisoned(const std::string& processor, const std::string& port,
                      const std::vector<Token>& inputs, IndexVector indices,
                      std::shared_ptr<const TokenError> error) {
  MOTEUR_REQUIRE(error != nullptr, InternalError, "poisoned token without an error");
  auto body = std::make_shared<Body>();
  body->repr = "<error@" + error->processor + ">";
  body->indices = std::move(indices);
  body->provenance = derived_provenance(processor, port, inputs);
  body->error = std::move(error);
  return Token(std::move(body));
}

const Token::Body& Token::empty_body() {
  static const Body empty;
  return empty;
}

const std::string& Token::id() const {
  MOTEUR_REQUIRE(provenance() != nullptr, InternalError, "token without provenance");
  return provenance()->key();
}

const std::any& Token::require_payload() const {
  MOTEUR_REQUIRE(has_payload(), EnactmentError,
                 "token '" + (provenance() ? provenance()->key() : std::string("?")) +
                     "' carries no payload");
  return payload();
}

}  // namespace moteur::data
