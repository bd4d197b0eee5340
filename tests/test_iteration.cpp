#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "util/error.hpp"
#include "util/rng.hpp"
#include "workflow/iteration.hpp"

namespace moteur::workflow {
namespace {

using data::IndexVector;
using data::Token;

Token tok(const std::string& source, std::size_t index) {
  return Token::from_source(source, index, static_cast<int>(index),
                            std::to_string(index));
}

// ---------------------------------------------------------------------------
// Dot product
// ---------------------------------------------------------------------------

TEST(DotProduct, PairsByRankRegardlessOfArrivalOrder) {
  // The §4.1 causality scenario: results complete out of order under
  // parallelism; the dot product must still pair k-th with k-th.
  IterationBuffer buffer(IterationStrategy::kDot, {"a", "b"});
  buffer.push("a", tok("A", 0));
  buffer.push("a", tok("A", 1));
  buffer.push("b", tok("B", 1));  // B1 overtakes B0
  auto ready = buffer.drain_ready();
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready[0].index, (IndexVector{1}));

  buffer.push("b", tok("B", 0));
  ready = buffer.drain_ready();
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready[0].index, (IndexVector{0}));
  EXPECT_EQ(ready[0].tokens[0].id(), "A[0]");
  EXPECT_EQ(ready[0].tokens[1].id(), "B[0]");
}

TEST(DotProduct, ProducesMinNM) {
  // "producing min(n,m) results" (§2.2): unmatched ranks never fire.
  IterationBuffer buffer(IterationStrategy::kDot, {"a", "b"});
  for (std::size_t i = 0; i < 5; ++i) buffer.push("a", tok("A", i));
  for (std::size_t i = 0; i < 3; ++i) buffer.push("b", tok("B", i));
  EXPECT_EQ(buffer.drain_ready().size(), 3u);
  EXPECT_EQ(buffer.pending_tokens(), 2u);  // A3, A4 stranded
}

TEST(DotProduct, ThreePortAlignment) {
  IterationBuffer buffer(IterationStrategy::kDot, {"a", "b", "c"});
  buffer.push("a", tok("A", 0));
  buffer.push("b", tok("B", 0));
  EXPECT_FALSE(buffer.has_ready());
  buffer.push("c", tok("C", 0));
  const auto ready = buffer.drain_ready();
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready[0].tokens.size(), 3u);
}

TEST(DotProduct, SinglePortPassesTokensThrough) {
  IterationBuffer buffer(IterationStrategy::kDot, {"in"});
  buffer.push("in", tok("S", 2));
  // No partial tuple is ever pending on one port, so a repeated index fires
  // again instead of being rejected as a duplicate.
  buffer.push(std::size_t{0}, tok("S", 2));
  const auto ready = buffer.drain_ready();
  ASSERT_EQ(ready.size(), 2u);
  EXPECT_EQ(ready[0].index, (IndexVector{2}));
  EXPECT_EQ(ready[1].index, (IndexVector{2}));
  EXPECT_EQ(buffer.pending_tokens(), 0u);
}

TEST(DotProduct, RejectsDuplicateIndexOnPort) {
  IterationBuffer buffer(IterationStrategy::kDot, {"a", "b"});
  buffer.push("a", tok("A", 0));
  EXPECT_THROW(buffer.push("a", tok("A", 0)), EnactmentError);
}

TEST(DotProduct, CausalityViolationDetected) {
  // Token on port b claims to derive from A[1] but carries index {0}:
  // pairing it with A[0] would silently compute a wrong dot product.
  IterationBuffer buffer(IterationStrategy::kDot, {"a", "b"});
  buffer.push("a", tok("A", 0));
  const Token bogus = Token::derived("P", "o", {tok("A", 1)}, IndexVector{0}, 7, "7");
  EXPECT_THROW(buffer.push("b", bogus), EnactmentError);
}

TEST(DotProduct, ConsistentLineageAccepted) {
  IterationBuffer buffer(IterationStrategy::kDot, {"a", "b"});
  const Token base = tok("A", 0);
  const Token derived = Token::derived("P", "o", {base}, IndexVector{0}, 1, "1");
  buffer.push("a", base);
  EXPECT_NO_THROW(buffer.push("b", derived));
  EXPECT_EQ(buffer.drain_ready().size(), 1u);
}

// ---------------------------------------------------------------------------
// Cross product
// ---------------------------------------------------------------------------

TEST(CrossProduct, ProducesNTimesM) {
  // "processing all input data from the first set with all input data from
  // the second set, thus producing m x n results" (§2.2, Figure 3).
  IterationBuffer buffer(IterationStrategy::kCross, {"a", "b"});
  for (std::size_t i = 0; i < 3; ++i) buffer.push("a", tok("A", i));
  for (std::size_t j = 0; j < 4; ++j) buffer.push("b", tok("B", j));
  const auto ready = buffer.drain_ready();
  EXPECT_EQ(ready.size(), 12u);

  // Every combination appears exactly once, index = concat(a, b).
  std::set<IndexVector> indices;
  for (const auto& tuple : ready) indices.insert(tuple.index);
  EXPECT_EQ(indices.size(), 12u);
  EXPECT_TRUE(indices.count(IndexVector{2, 3}));
  EXPECT_TRUE(indices.count(IndexVector{0, 0}));
}

TEST(CrossProduct, StreamsIncrementally) {
  IterationBuffer buffer(IterationStrategy::kCross, {"a", "b"});
  buffer.push("a", tok("A", 0));
  EXPECT_FALSE(buffer.has_ready());  // other port still empty
  buffer.push("b", tok("B", 0));
  EXPECT_EQ(buffer.drain_ready().size(), 1u);
  buffer.push("a", tok("A", 1));  // pairs with the retained B0
  EXPECT_EQ(buffer.drain_ready().size(), 1u);
}

TEST(CrossProduct, SameSourceBothPortsAllowed) {
  // Registering every image against every other image of the same set is a
  // legitimate cross product: no causality check applies.
  IterationBuffer buffer(IterationStrategy::kCross, {"a", "b"});
  buffer.push("a", tok("S", 0));
  buffer.push("a", tok("S", 1));
  EXPECT_NO_THROW(buffer.push("b", tok("S", 2)));
  EXPECT_EQ(buffer.drain_ready().size(), 2u);
}

TEST(CrossProduct, ThreePortCombinatorics) {
  IterationBuffer buffer(IterationStrategy::kCross, {"a", "b", "c"});
  for (std::size_t i = 0; i < 2; ++i) buffer.push("a", tok("A", i));
  for (std::size_t i = 0; i < 3; ++i) buffer.push("b", tok("B", i));
  for (std::size_t i = 0; i < 2; ++i) buffer.push("c", tok("C", i));
  const auto ready = buffer.drain_ready();
  EXPECT_EQ(ready.size(), 12u);  // 2 * 3 * 2
  for (const auto& tuple : ready) EXPECT_EQ(tuple.index.size(), 3u);
}

TEST(CrossProduct, ChainedCrossConcatenatesIndices) {
  // Simulate the output of one cross product feeding another: indices grow.
  IterationBuffer first(IterationStrategy::kCross, {"a", "b"});
  first.push("a", tok("A", 1));
  first.push("b", tok("B", 2));
  const auto tuple = first.drain_ready().at(0);
  const Token combined =
      Token::derived("X", "o", tuple.tokens, tuple.index, 0, "x");

  IterationBuffer second(IterationStrategy::kCross, {"x", "c"});
  second.push("x", combined);
  second.push("c", tok("C", 3));
  const auto ready = second.drain_ready();
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready[0].index, (IndexVector{1, 2, 3}));
}

// ---------------------------------------------------------------------------
// Poisoned tokens ride iteration like data
// ---------------------------------------------------------------------------

Token poisoned_tok(const std::string& processor, std::size_t index) {
  auto error = std::make_shared<const data::TokenError>(
      data::TokenError{processor, "injected fault", "Definitive"});
  return Token::poisoned(processor, "out", {tok("A", index)}, IndexVector{index},
                         std::move(error));
}

TEST(Poisoned, DotPairsPoisonArrivingBeforeItsPartner) {
  // A definitive upstream failure must not strand its dot-product partner:
  // the poisoned operand waits in the buffer exactly like a data token.
  IterationBuffer buffer(IterationStrategy::kDot, {"a", "b"});
  buffer.push("a", poisoned_tok("P", 0));
  EXPECT_FALSE(buffer.has_ready());
  buffer.push("b", tok("B", 0));
  const auto ready = buffer.drain_ready();
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready[0].index, (IndexVector{0}));
  EXPECT_TRUE(ready[0].tokens[0].poisoned());
  EXPECT_FALSE(ready[0].tokens[1].poisoned());
  ASSERT_NE(ready[0].tokens[0].error(), nullptr);
  EXPECT_EQ(ready[0].tokens[0].error()->processor, "P");
  EXPECT_EQ(ready[0].tokens[0].error()->cause, "injected fault");
}

TEST(Poisoned, DotPairsPoisonArrivingAfterItsPartner) {
  // Out-of-order the other way: the healthy operand is already waiting when
  // the poisoned one completes late (e.g. after exhausted retries).
  IterationBuffer buffer(IterationStrategy::kDot, {"a", "b"});
  buffer.push("b", tok("B", 1));
  buffer.push("b", tok("B", 0));
  EXPECT_FALSE(buffer.has_ready());
  buffer.push("a", poisoned_tok("P", 1));
  auto ready = buffer.drain_ready();
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready[0].index, (IndexVector{1}));
  EXPECT_TRUE(ready[0].tokens[0].poisoned());

  buffer.push("a", tok("A", 0));  // rank 0 stays healthy
  ready = buffer.drain_ready();
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_FALSE(ready[0].tokens[0].poisoned());
}

TEST(Poisoned, CrossCombinesPoisonWithEveryPartner) {
  IterationBuffer buffer(IterationStrategy::kCross, {"a", "b"});
  buffer.push("a", poisoned_tok("P", 0));
  for (std::size_t j = 0; j < 3; ++j) buffer.push("b", tok("B", j));
  auto ready = buffer.drain_ready();
  ASSERT_EQ(ready.size(), 3u);
  for (const auto& tuple : ready) {
    EXPECT_TRUE(tuple.tokens[0].poisoned());
    EXPECT_FALSE(tuple.tokens[1].poisoned());
  }
  // A healthy late arrival still pairs with the retained right-hand tokens.
  buffer.push("a", tok("A", 1));
  ready = buffer.drain_ready();
  ASSERT_EQ(ready.size(), 3u);
  for (const auto& tuple : ready) EXPECT_FALSE(tuple.tokens[0].poisoned());
}

TEST(Poisoned, CrossPoisonArrivingAfterItsPartners) {
  IterationBuffer buffer(IterationStrategy::kCross, {"a", "b"});
  buffer.push("b", tok("B", 0));
  buffer.push("b", tok("B", 1));
  EXPECT_FALSE(buffer.has_ready());
  buffer.push("a", poisoned_tok("P", 2));
  const auto ready = buffer.drain_ready();
  ASSERT_EQ(ready.size(), 2u);
  for (const auto& tuple : ready) {
    EXPECT_TRUE(tuple.tokens[0].poisoned());
    EXPECT_EQ(tuple.index.size(), 2u);
  }
}

// ---------------------------------------------------------------------------
// Closure
// ---------------------------------------------------------------------------

TEST(Closure, TracksPerPortAndAll) {
  IterationBuffer buffer(IterationStrategy::kDot, {"a", "b"});
  EXPECT_FALSE(buffer.all_closed());
  buffer.close("a");
  EXPECT_TRUE(buffer.is_closed("a"));
  EXPECT_TRUE(buffer.is_closed(std::size_t{0}));
  EXPECT_FALSE(buffer.all_closed());
  buffer.close(std::size_t{1});
  EXPECT_TRUE(buffer.is_closed("b"));
  EXPECT_TRUE(buffer.all_closed());
  EXPECT_THROW(buffer.push("a", tok("A", 0)), EnactmentError);
}

TEST(Closure, UnknownPortThrows) {
  IterationBuffer buffer(IterationStrategy::kDot, {"a"});
  EXPECT_THROW(buffer.close("zz"), EnactmentError);
  EXPECT_THROW(buffer.push("zz", tok("A", 0)), EnactmentError);
  EXPECT_THROW(buffer.close(std::size_t{1}), InternalError);
  EXPECT_THROW(buffer.push(std::size_t{1}, tok("A", 0)), InternalError);
  EXPECT_THROW((void)buffer.is_closed(std::size_t{1}), InternalError);
}

// ---------------------------------------------------------------------------
// Property sweep: random arrival order never changes the outcome
// ---------------------------------------------------------------------------

class IterationProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IterationProperty, DotMatchingIsOrderInvariant) {
  constexpr std::size_t kItems = 12;
  std::vector<std::pair<std::string, Token>> pushes;
  for (std::size_t i = 0; i < kItems; ++i) {
    pushes.emplace_back("a", tok("A", i));
    pushes.emplace_back("b", tok("B", i));
  }
  Rng rng(GetParam());
  rng.shuffle(pushes);

  IterationBuffer buffer(IterationStrategy::kDot, {"a", "b"});
  std::set<IndexVector> fired;
  for (auto& [port, token] : pushes) {
    buffer.push(port, std::move(token));
    for (const auto& tuple : buffer.drain_ready()) {
      // Every tuple is internally consistent: both tokens share the rank.
      EXPECT_EQ(tuple.tokens[0].indices(), tuple.tokens[1].indices());
      EXPECT_TRUE(fired.insert(tuple.index).second) << "duplicate firing";
    }
  }
  EXPECT_EQ(fired.size(), kItems);
  EXPECT_EQ(buffer.pending_tokens(), 0u);
}

TEST_P(IterationProperty, CrossCountIsExactlyNM) {
  const std::size_t n = 3 + GetParam() % 4;
  const std::size_t m = 2 + GetParam() % 5;
  std::vector<std::pair<std::string, Token>> pushes;
  for (std::size_t i = 0; i < n; ++i) pushes.emplace_back("a", tok("A", i));
  for (std::size_t j = 0; j < m; ++j) pushes.emplace_back("b", tok("B", j));
  Rng rng(GetParam() * 7919 + 13);
  rng.shuffle(pushes);

  IterationBuffer buffer(IterationStrategy::kCross, {"a", "b"});
  std::set<IndexVector> fired;
  for (auto& [port, token] : pushes) {
    buffer.push(port, std::move(token));
    for (const auto& tuple : buffer.drain_ready()) {
      EXPECT_TRUE(fired.insert(tuple.index).second) << "duplicate combination";
    }
  }
  EXPECT_EQ(fired.size(), n * m);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IterationProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

}  // namespace
}  // namespace moteur::workflow
