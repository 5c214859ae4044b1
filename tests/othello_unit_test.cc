// Othello rules, search and decomposition properties.
#include <gtest/gtest.h>

#include "apps/othello/othello.h"
#include "common/bytes.h"
#include "dse/threaded_runtime.h"
#include "tests/threaded_nodes.h"

namespace dse::apps::othello {
namespace {

int Square(int row, int col) { return row * 8 + col; }

TEST(Rules, InitialPositionHasFourMoves) {
  const Position pos = InitialPosition();
  EXPECT_EQ(__builtin_popcountll(LegalMoves(pos)), 4);
  EXPECT_EQ(pos.to_move, 0);
}

TEST(Rules, InitialMovesAreTheClassicFour) {
  const std::uint64_t moves = LegalMoves(InitialPosition());
  // Black to move: d3, c4, f5, e6 (row*8+col with row 0 = top).
  EXPECT_TRUE(moves & (1ULL << Square(2, 3)));
  EXPECT_TRUE(moves & (1ULL << Square(3, 2)));
  EXPECT_TRUE(moves & (1ULL << Square(4, 5)));
  EXPECT_TRUE(moves & (1ULL << Square(5, 4)));
}

TEST(Rules, PlayFlipsTheBracketedDisc) {
  const Position pos = InitialPosition();
  const Position next = Play(pos, Square(2, 3));  // d3
  // The white disc at d4 (3,3) flips to black.
  EXPECT_TRUE(next.discs[0] & (1ULL << Square(3, 3)));
  EXPECT_FALSE(next.discs[1] & (1ULL << Square(3, 3)));
  EXPECT_EQ(next.to_move, 1);
  // Disc counts: black 4, white 1.
  EXPECT_EQ(__builtin_popcountll(next.discs[0]), 4);
  EXPECT_EQ(__builtin_popcountll(next.discs[1]), 1);
}

TEST(Rules, DiscsNeverOverlap) {
  Position pos = InitialPosition();
  for (int ply = 0; ply < 20; ++ply) {
    const std::uint64_t moves = LegalMoves(pos);
    if (moves == 0) break;
    pos = Play(pos, __builtin_ctzll(moves));
    EXPECT_EQ(pos.discs[0] & pos.discs[1], 0u);
  }
}

TEST(Rules, TotalDiscsGrowByOnePerMove) {
  Position pos = InitialPosition();
  int discs = 4;
  for (int ply = 0; ply < 10; ++ply) {
    const std::uint64_t moves = LegalMoves(pos);
    ASSERT_NE(moves, 0u);
    pos = Play(pos, __builtin_ctzll(moves));
    ++discs;
    EXPECT_EQ(
        __builtin_popcountll(pos.discs[0]) + __builtin_popcountll(pos.discs[1]),
        discs);
  }
}

TEST(RulesDeathTest, IllegalMoveRejected) {
  EXPECT_DEATH((void)Play(InitialPosition(), 0), "illegal move");
}

TEST(Rules, PassSwitchesSides) {
  const Position pos = InitialPosition();
  EXPECT_EQ(Pass(pos).to_move, 1);
  EXPECT_EQ(Pass(Pass(pos)).to_move, 0);
}

TEST(Eval, SymmetricPositionIsZero) {
  // The initial position is symmetric between the players.
  EXPECT_EQ(Evaluate(InitialPosition()),
            -Evaluate(Pass(InitialPosition())));
}

TEST(Search, DepthZeroIsEvaluate) {
  const Position pos = InitialPosition();
  const SearchResult r = Search(pos, 0);
  EXPECT_EQ(r.value, Evaluate(pos));
  EXPECT_EQ(r.nodes, 1u);
}

TEST(Search, NodeCountGrowsWithDepth) {
  const Position pos = InitialPosition();
  std::uint64_t prev = 0;
  for (int d = 1; d <= 5; ++d) {
    const SearchResult r = Search(pos, d);
    EXPECT_GT(r.nodes, prev);
    prev = r.nodes;
  }
}

TEST(Search, NodeCountsMatchOfficialPerft) {
  // The cumulative node counts of the exhaustive search reproduce the
  // published Othello perft series (positions per ply from the initial
  // position: 4, 12, 56, 244, 1396, 8200) — node(d) = 1 + Σ perft(k).
  const std::uint64_t expected[] = {5, 17, 73, 317, 1713, 9913};
  for (int d = 1; d <= 6; ++d) {
    EXPECT_EQ(Search(InitialPosition(), d).nodes,
              expected[static_cast<size_t>(d - 1)])
        << "depth " << d;
  }
}

TEST(Search, PinnedEvaluationValues) {
  // Regression pins: any change to move generation, evaluation or search
  // order shows up here before it silently shifts every figure.
  EXPECT_EQ(Search(InitialPosition(), 1).value, 12);
  EXPECT_EQ(Search(InitialPosition(), 2).value, -15);
  EXPECT_EQ(Search(InitialPosition(), 4).value, -8);
  EXPECT_EQ(Search(InitialPosition(), 6).value, 3);
}

TEST(Search, DeterministicValue) {
  const SearchResult a = Search(InitialPosition(), 5);
  const SearchResult b = Search(InitialPosition(), 5);
  EXPECT_EQ(a.value, b.value);
  EXPECT_EQ(a.nodes, b.nodes);
}

TEST(Prefixes, AtLeastRequestedWhenTreeAllows) {
  const auto p4 = MakePrefixes(InitialPosition(), 4, 3);
  EXPECT_GE(p4.size(), 4u);
  const auto p20 = MakePrefixes(InitialPosition(), 20, 3);
  EXPECT_GE(p20.size(), 20u);
}

TEST(Prefixes, MinTasksOneIsTheWholeTree) {
  // Already satisfied before any expansion: the single prefix is the root.
  const auto p = MakePrefixes(InitialPosition(), 1, 3);
  ASSERT_EQ(p.size(), 1u);
  EXPECT_TRUE(p[0].path.empty());
  EXPECT_TRUE(p[0].position == InitialPosition());
}

TEST(Prefixes, PathsReplayToPositions) {
  for (const auto& prefix : MakePrefixes(InitialPosition(), 10, 3)) {
    Position pos = InitialPosition();
    for (const int move : prefix.path) {
      pos = move < 0 ? Pass(pos) : Play(pos, move);
    }
    EXPECT_TRUE(pos == prefix.position);
  }
}

// Decomposed search equals the plain whole-tree search value, and the node
// count is decomposition-invariant.
class OthelloDecomposition
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(OthelloDecomposition, ValueMatchesWholeTreeSearch) {
  const auto [depth, min_tasks] = GetParam();
  const Position root = InitialPosition();
  const auto whole = Search(root, depth);
  const auto decomposed = SearchDecomposed(root, depth, min_tasks);
  EXPECT_EQ(decomposed.value, whole.value);
}

INSTANTIATE_TEST_SUITE_P(Sweep, OthelloDecomposition,
                         ::testing::Combine(::testing::Values(2, 3, 4, 5),
                                            ::testing::Values(1, 6, 24)));

TEST(OthelloParallel, WorkerCountInvariant) {
  // Same depth and task count: any worker count returns identical results.
  std::vector<std::vector<std::uint8_t>> results;
  for (const int workers : {1, 2, 4}) {
    Config c{.depth = 5, .workers = workers, .min_tasks = 12};
    ThreadedRuntime rt(ThreadedNodes(std::min(workers, 4)));
    Register(rt.registry());
    results.push_back(rt.RunMain(kMainTask, MakeArg(c)));
  }
  EXPECT_EQ(results[0], results[1]);
  EXPECT_EQ(results[1], results[2]);
}

}  // namespace
}  // namespace dse::apps::othello
