#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>

#include "data/dataset.hpp"
#include "data/provenance.hpp"
#include "data/token.hpp"
#include "util/error.hpp"

namespace moteur::data {
namespace {

TEST(Provenance, SourceLeafKey) {
  const auto leaf = Provenance::source("referenceImage", 3);
  EXPECT_TRUE(leaf->is_source());
  EXPECT_EQ(leaf->key(), "referenceImage[3]");
  EXPECT_EQ(leaf->depth(), 0u);
  EXPECT_EQ(leaf->node_count(), 1u);
}

TEST(Provenance, DerivedKeyEncodesFullHistory) {
  const auto ref = Provenance::source("ref", 0);
  const auto flo = Provenance::source("flo", 0);
  const auto crest = Provenance::derived("crestLines", "c1", {ref, flo});
  const auto match = Provenance::derived("crestMatch", "t", {crest});
  EXPECT_EQ(crest->key(), "crestLines.c1(ref[0],flo[0])");
  EXPECT_EQ(match->key(), "crestMatch.t(crestLines.c1(ref[0],flo[0]))");
  EXPECT_EQ(match->depth(), 2u);
}

TEST(Provenance, EqualityIsStructural) {
  const auto a = Provenance::derived("P", "o", {Provenance::source("s", 1)});
  const auto b = Provenance::derived("P", "o", {Provenance::source("s", 1)});
  const auto c = Provenance::derived("P", "o", {Provenance::source("s", 2)});
  EXPECT_TRUE(*a == *b);
  EXPECT_FALSE(*a == *c);
}

TEST(Provenance, SourceIndicesCollectAllLeaves) {
  const auto tree = Provenance::derived(
      "P", "o",
      {Provenance::source("a", 0), Provenance::source("a", 2), Provenance::source("b", 1)});
  const auto indices = tree->source_indices();
  EXPECT_EQ(indices.at("a"), (std::set<std::size_t>{0, 2}));
  EXPECT_EQ(indices.at("b"), (std::set<std::size_t>{1}));
}

TEST(Provenance, SharedSubtreesCountedOnce) {
  const auto shared = Provenance::source("s", 0);
  const auto tree = Provenance::derived("P", "o", {shared, shared});
  EXPECT_EQ(tree->node_count(), 2u);  // P node + one shared leaf
}

TEST(Provenance, KeyIsRenderedOnceWhenTwoThreadsAskTogether) {
  // The first key() call renders the key, whichever thread makes it: both
  // callers must read the same complete text. Every round races on a fresh
  // tree, and the long name keeps the render going while the second caller
  // arrives.
  const std::string name(4096, 'x');
  const std::string bottom = name + ".o(s[0])";
  const std::string expected = "C.out(B.o(" + bottom + ",t[1])," + bottom + ")";
  for (int round = 0; round < 200; ++round) {
    const auto a = Provenance::derived(name, "o", {Provenance::source("s", 0)});
    const auto b = Provenance::derived("B", "o", {a, Provenance::source("t", 1)});
    const auto c = Provenance::derived("C", "out", {b, a});
    ASSERT_EQ(c->depth(), 3u);
    std::atomic<int> arrived{0};
    std::string seen[2];
    const auto ask = [&](int i) {
      arrived.fetch_add(1);
      while (arrived.load() < 2) {
      }
      seen[i] = c->key();
    };
    std::thread first(ask, 0);
    std::thread second(ask, 1);
    first.join();
    second.join();
    ASSERT_EQ(seen[0], expected) << "round " << round;
    ASSERT_EQ(seen[1], expected) << "round " << round;
    ASSERT_EQ(&c->key(), &c->key());
  }
}

TEST(Provenance, RejectsEmptyOrNullInputs) {
  EXPECT_THROW(Provenance::derived("P", "o", {}), InternalError);
  EXPECT_THROW(Provenance::derived("P", "o", {nullptr}), InternalError);
}

TEST(Token, SourceTokenCarriesIndexAndPayload) {
  const Token token = Token::from_source("img", 4, std::string("file4.mhd"), "file4.mhd");
  EXPECT_EQ(token.indices(), (IndexVector{4}));
  EXPECT_EQ(token.as<std::string>(), "file4.mhd");
  EXPECT_TRUE(token.holds<std::string>());
  EXPECT_FALSE(token.holds<int>());
  EXPECT_EQ(token.id(), "img[4]");
}

TEST(Token, DerivedTokenLinksProvenanceOfInputs) {
  const Token a = Token::from_source("A", 0, 1, "1");
  const Token b = Token::from_source("B", 0, 2, "2");
  const Token out = Token::derived("sum", "s", {a, b}, {0}, 3, "3");
  EXPECT_EQ(out.id(), "sum.s(A[0],B[0])");
  EXPECT_EQ(out.as<int>(), 3);
  ASSERT_EQ(out.provenance()->inputs().size(), 2u);
}

TEST(Token, MissingPayloadThrowsWithIdentity) {
  const Token token = Token::from_source("img", 0, {}, "x");
  EXPECT_FALSE(token.has_payload());
  EXPECT_THROW(token.as<int>(), EnactmentError);

  // A default-constructed token is empty and has no identity.
  const Token empty;
  EXPECT_FALSE(empty.has_payload());
  EXPECT_TRUE(empty.repr().empty());
  EXPECT_TRUE(empty.indices().empty());
  EXPECT_FALSE(empty.poisoned());
  EXPECT_THROW(empty.as<int>(), EnactmentError);
  EXPECT_THROW((void)empty.id(), InternalError);
}

TEST(IndexVector, ToString) {
  EXPECT_EQ(to_string(IndexVector{}), "[]");
  EXPECT_EQ(to_string(IndexVector{1, 2, 3}), "[1,2,3]");
}

TEST(InputDataSet, AddAndQuery) {
  InputDataSet ds;
  ds.add_item("img", "a");
  ds.add_item("img", "b");
  ds.add_item("scale", "1");
  EXPECT_EQ(ds.input_count(), 2u);
  EXPECT_EQ(ds.items("img"), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(ds.item_count("scale"), 1u);
  EXPECT_EQ(ds.item_count("missing"), 0u);
  EXPECT_THROW(ds.items("missing"), ParseError);
}

TEST(InputDataSet, XmlRoundTrip) {
  InputDataSet ds;
  ds.add_item("referenceImage", "gfn://img/p0_ref.mhd");
  ds.add_item("referenceImage", "gfn://img/p1_ref.mhd");
  ds.add_item("floatingImage", "gfn://img/p0_flo.mhd");
  const InputDataSet parsed = InputDataSet::from_xml(ds.to_xml());
  EXPECT_EQ(parsed.input_names(),
            (std::vector<std::string>{"referenceImage", "floatingImage"}));
  EXPECT_EQ(parsed.items("referenceImage").size(), 2u);
  EXPECT_EQ(parsed.items("floatingImage")[0], "gfn://img/p0_flo.mhd");
}

TEST(InputDataSet, RejectsBadXml) {
  EXPECT_THROW(InputDataSet::from_xml("<nope/>"), ParseError);
  EXPECT_THROW(InputDataSet::from_xml(
                   "<dataset><input name=\"a\"/><input name=\"a\"/></dataset>"),
               ParseError);
  EXPECT_THROW(InputDataSet::from_xml("<dataset><input/></dataset>"), ParseError);
}

}  // namespace
}  // namespace moteur::data
