// Unit tests for the exception model: trees (declaration, covering,
// resolution/LCA) and handler tables.
#include <gtest/gtest.h>

#include "ex/exception.h"
#include "ex/exception_tree.h"
#include "ex/handler_table.h"

namespace caa::ex {
namespace {

TEST(ExceptionTree, RootExistsByDefault) {
  ExceptionTree tree;
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_EQ(tree.name_of(tree.root()), "universal_exception");
  EXPECT_EQ(tree.parent(tree.root()), tree.root());
  EXPECT_EQ(tree.depth(tree.root()), 0u);
}

TEST(ExceptionTree, DeclareBuildsHierarchy) {
  // The paper's §3.2 example, declared "by subtyping".
  ExceptionTree tree;
  const auto emergency = tree.declare("emergency_engine_loss_exception");
  const auto left = tree.declare("left_engine_exception", emergency);
  const auto right = tree.declare("right_engine_exception", emergency);
  tree.freeze();

  EXPECT_EQ(tree.size(), 4u);
  EXPECT_EQ(tree.parent(left), emergency);
  EXPECT_EQ(tree.parent(right), emergency);
  EXPECT_EQ(tree.depth(left), 2u);
  EXPECT_EQ(tree.find("left_engine_exception"), left);
  EXPECT_FALSE(tree.find("unknown").valid());
}

TEST(ExceptionTree, CoversIsReflexiveAndTransitive) {
  ExceptionTree tree;
  const auto a = tree.declare("a");
  const auto b = tree.declare("b", a);
  const auto c = tree.declare("c", b);
  tree.freeze();
  EXPECT_TRUE(tree.covers(a, a));
  EXPECT_TRUE(tree.covers(a, b));
  EXPECT_TRUE(tree.covers(a, c));
  EXPECT_TRUE(tree.covers(tree.root(), c));
  EXPECT_FALSE(tree.covers(c, a));
  EXPECT_FALSE(tree.covers(b, a));
}

TEST(ExceptionTree, SiblingsDoNotCoverEachOther) {
  ExceptionTree tree;
  const auto a = tree.declare("a");
  const auto b = tree.declare("b");
  tree.freeze();
  EXPECT_FALSE(tree.covers(a, b));
  EXPECT_FALSE(tree.covers(b, a));
}

TEST(ExceptionTree, ResolveSingleIsItself) {
  ExceptionTree tree = shapes::chain(5);
  const auto e3 = tree.find("e3");
  const ExceptionId raised[] = {e3};
  EXPECT_EQ(tree.resolve(raised), e3);
}

TEST(ExceptionTree, ResolveIsLowestCommonAncestor) {
  ExceptionTree tree;
  const auto engine = tree.declare("engine");
  const auto left = tree.declare("left", engine);
  const auto right = tree.declare("right", engine);
  const auto fuel = tree.declare("fuel");
  tree.freeze();

  {
    const ExceptionId raised[] = {left, right};
    EXPECT_EQ(tree.resolve(raised), engine);
  }
  {
    const ExceptionId raised[] = {left, fuel};
    EXPECT_EQ(tree.resolve(raised), tree.root());
  }
  {
    const ExceptionId raised[] = {left, engine};
    EXPECT_EQ(tree.resolve(raised), engine);  // ancestor wins
  }
}

TEST(ExceptionTree, ResolveEmptyIsInvalid) {
  ExceptionTree tree;
  tree.freeze();
  EXPECT_FALSE(tree.resolve({}).valid());
}

TEST(ExceptionTree, ResolveOnChainPicksHighest) {
  ExceptionTree tree = shapes::chain(8);
  const ExceptionId raised[] = {tree.find("e8"), tree.find("e3"),
                                tree.find("e5")};
  EXPECT_EQ(tree.resolve(raised), tree.find("e3"));
}

TEST(ExceptionTree, PathToRoot) {
  ExceptionTree tree = shapes::chain(3);
  const auto path = tree.path_to_root(tree.find("e3"));
  ASSERT_EQ(path.size(), 4u);
  EXPECT_EQ(path[0], tree.find("e3"));
  EXPECT_EQ(path[1], tree.find("e2"));
  EXPECT_EQ(path[2], tree.find("e1"));
  EXPECT_EQ(path[3], tree.root());
}

TEST(ExceptionTree, ShapesHaveExpectedSizes) {
  EXPECT_EQ(shapes::chain(5).size(), 6u);
  EXPECT_EQ(shapes::star(4).size(), 5u);
  EXPECT_EQ(shapes::balanced_binary(3).size(), 1u + 2 + 4 + 8);
}

TEST(ExceptionTree, BalancedBinaryLcaWorks) {
  ExceptionTree tree = shapes::balanced_binary(3);
  // b1 and b2 are the two children of the root; leaves below b1 resolve
  // within b1's subtree.
  const auto b1 = tree.find("b1");
  const auto b3 = tree.find("b3");  // child of b1
  const auto b4 = tree.find("b4");  // child of b1
  EXPECT_EQ(tree.lca(b3, b4), b1);
  EXPECT_EQ(tree.lca(b3, tree.find("b2")), tree.root());
}


TEST(ExceptionTree, JoinIsMemoizedAndPointerStable) {
  ExceptionTree tree = shapes::balanced_binary(3);
  const auto b3 = tree.find("b3");
  const auto b4 = tree.find("b4");
  const ExceptionTree::JoinEntry& first = tree.join(b3, b4);
  EXPECT_EQ(first.cover, tree.lca(b3, b4));
  EXPECT_EQ(tree.join_misses(), 1u);
  // Either argument order returns the SAME cached entry — pointer identity,
  // not just equal covers.
  EXPECT_EQ(&tree.join(b4, b3), &first);
  EXPECT_EQ(&tree.join(b3, b4), &first);
  EXPECT_EQ(tree.join_misses(), 1u);
  EXPECT_EQ(tree.join_hits(), 2u);
}

TEST(ExceptionTree, UniversalBitMarksShallowSubtrees) {
  // star: the root's subtree has depth 1, so EVERYTHING is universal and
  // every leaf's cover is the root (the outermost universal ancestor).
  ExceptionTree star = shapes::star(4);
  EXPECT_TRUE(star.universal(star.root()));
  EXPECT_TRUE(star.universal(star.find("s2")));
  EXPECT_EQ(star.universal_cover(star.find("s2")), star.root());
  EXPECT_EQ(star.universal_cover(star.root()), star.root());

  // chain: only the last two nodes bound their subtree; the deep interior
  // has NO universal cover, so raising there can never commute.
  ExceptionTree chain = shapes::chain(4);
  EXPECT_FALSE(chain.universal(chain.root()));
  EXPECT_FALSE(chain.universal(chain.find("e1")));
  EXPECT_FALSE(chain.universal(chain.find("e2")));
  EXPECT_TRUE(chain.universal(chain.find("e3")));
  EXPECT_TRUE(chain.universal(chain.find("e4")));
  EXPECT_FALSE(chain.universal_cover(chain.find("e2")).valid());
  EXPECT_EQ(chain.universal_cover(chain.find("e4")), chain.find("e3"));
}

TEST(ExceptionTree, UniversalityIsDownwardClosed) {
  ExceptionTree tree = shapes::balanced_binary(3);
  for (std::uint32_t id = 0; id < tree.size(); ++id) {
    const ExceptionId e{id};
    if (!tree.universal(e)) continue;
    const ExceptionId cover = tree.universal_cover(e);
    ASSERT_TRUE(cover.valid());
    EXPECT_TRUE(tree.universal(cover));
    EXPECT_TRUE(tree.covers(cover, e));
    // Everything below a universal node is universal with the same cover.
    for (std::uint32_t child = 0; child < tree.size(); ++child) {
      const ExceptionId c{child};
      if (tree.parent(c) != e || c == e) continue;
      EXPECT_TRUE(tree.universal(c));
      EXPECT_EQ(tree.universal_cover(c), cover);
    }
  }
}

TEST(ExceptionTree, FingerprintDetectsDrift) {
  ExceptionTree a = shapes::chain(5);
  ExceptionTree b = shapes::chain(5);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  ExceptionTree c = shapes::chain(6);
  EXPECT_NE(a.fingerprint(), c.fingerprint());
  // Same names, different shape.
  ExceptionTree d;
  d.declare("e1");
  d.declare("e2", d.find("e1"));
  ExceptionTree e;
  e.declare("e1");
  e.declare("e2");
  EXPECT_NE(d.fingerprint(), e.fingerprint());
}

TEST(HandlerTable, SetHasGet) {
  ExceptionTree tree = shapes::star(3);
  HandlerTable table;
  table.set(tree.find("s1"), [](ExceptionId) {
    return HandlerResult::recovered();
  });
  EXPECT_TRUE(table.has(tree.find("s1")));
  EXPECT_FALSE(table.has(tree.find("s2")));
  EXPECT_EQ(table.get(tree.find("s1"))(tree.find("s1")).outcome,
            HandlerOutcome::kRecovered);
}

TEST(HandlerTable, FillDefaultsCompletes) {
  ExceptionTree tree = shapes::star(5);
  HandlerTable table;
  EXPECT_FALSE(table.is_complete_for(tree));
  table.fill_defaults(tree, [](ExceptionId) {
    return HandlerResult::recovered();
  });
  EXPECT_TRUE(table.is_complete_for(tree));
  EXPECT_EQ(table.size(), tree.size());
}

TEST(HandlerTable, FillDefaultsKeepsSpecificHandlers) {
  ExceptionTree tree = shapes::star(2);
  HandlerTable table;
  table.set(tree.find("s1"), [](ExceptionId) {
    return HandlerResult::signalling(ExceptionId(0));
  });
  table.fill_defaults(tree, [](ExceptionId) {
    return HandlerResult::recovered();
  });
  EXPECT_EQ(table.get(tree.find("s1"))(tree.find("s1")).outcome,
            HandlerOutcome::kSignal);
  EXPECT_EQ(table.get(tree.find("s2"))(tree.find("s2")).outcome,
            HandlerOutcome::kRecovered);
}

TEST(HandlerTable, DefaultHandlerCoversWholeTree) {
  ExceptionTree tree = shapes::star(5);
  HandlerTable table;
  table.set_default([](ExceptionId) { return HandlerResult::recovered(); });
  EXPECT_TRUE(table.is_complete_for(tree));
  EXPECT_TRUE(table.has(tree.find("s3")));
  // Only explicit entries count towards size(); the fallback is one callable.
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.get(tree.find("s2"))(tree.find("s2")).outcome,
            HandlerOutcome::kRecovered);
}

TEST(HandlerTable, ExplicitEntryOverridesDefault) {
  ExceptionTree tree = shapes::star(2);
  HandlerTable table;
  table.set_default([](ExceptionId) { return HandlerResult::recovered(); });
  table.set(tree.find("s1"), [](ExceptionId) {
    return HandlerResult::signalling(ExceptionId(0));
  });
  EXPECT_EQ(table.get(tree.find("s1"))(tree.find("s1")).outcome,
            HandlerOutcome::kSignal);
  EXPECT_EQ(table.get(tree.find("s2"))(tree.find("s2")).outcome,
            HandlerOutcome::kRecovered);
}

TEST(HandlerTable, NearestHandledWalksAncestors) {
  ExceptionTree tree = shapes::chain(4);
  HandlerTable table;
  table.set(tree.find("e2"), [](ExceptionId) {
    return HandlerResult::recovered();
  });
  EXPECT_EQ(table.nearest_handled(tree, tree.find("e4")), tree.find("e2"));
  EXPECT_EQ(table.nearest_handled(tree, tree.find("e2")), tree.find("e2"));
  EXPECT_FALSE(table.nearest_handled(tree, tree.find("e1")).valid());
}

TEST(ExceptionValue, DescribeFormats) {
  ExceptionTree tree = shapes::star(2);
  Exception e{tree.find("s1"), ObjectId(3), ActionInstanceId(1), "boom"};
  const std::string d = describe(e, tree);
  EXPECT_NE(d.find("s1"), std::string::npos);
  EXPECT_NE(d.find("O3"), std::string::npos);
  EXPECT_NE(d.find("boom"), std::string::npos);
}

}  // namespace
}  // namespace caa::ex
