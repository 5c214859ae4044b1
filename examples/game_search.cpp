// Domain example: parallel Othello game-tree search.
//
// Plays the first few moves of a self-play game, choosing each move with
// the DSE-parallel fixed-depth search, and prints the board as it evolves.
//
//   $ ./game_search [depth]
#include <cstdio>
#include <cstdlib>
#include <string>

#include "apps/othello/othello.h"
#include "common/bytes.h"
#include "common/check.h"
#include "dse/threaded_runtime.h"

using namespace dse;
using apps::othello::Position;

namespace {

void PrintBoard(const Position& pos) {
  std::printf("  a b c d e f g h\n");
  for (int r = 0; r < 8; ++r) {
    std::printf("%d ", r + 1);
    for (int c = 0; c < 8; ++c) {
      const std::uint64_t bit = 1ULL << (r * 8 + c);
      char ch = '.';
      if (pos.discs[0] & bit) ch = 'X';
      if (pos.discs[1] & bit) ch = 'O';
      std::printf("%c ", ch);
    }
    std::printf("\n");
  }
}

// Picks the best move at `depth` by searching each legal move's subtree
// with the decomposed parallel search machinery.
int ChooseMove(const Position& pos, int depth) {
  std::uint64_t moves = apps::othello::LegalMoves(pos);
  DSE_CHECK(moves != 0);
  int best_move = -1;
  int best_value = -1000000;
  while (moves != 0) {
    const int square = __builtin_ctzll(moves);
    moves &= moves - 1;
    const auto result =
        apps::othello::Search(apps::othello::Play(pos, square), depth - 1);
    if (-result.value > best_value) {
      best_value = -result.value;
      best_move = square;
    }
  }
  return best_move;
}

}  // namespace

int main(int argc, char** argv) {
  const int depth = argc > 1 ? std::atoi(argv[1]) : 5;

  // First, the cluster-parallel evaluation of the opening position.
  ThreadedOptions options;
  options.num_nodes = 4;
  ThreadedRuntime rt(options);
  apps::othello::Register(rt.registry());
  apps::othello::Config config{.depth = depth, .workers = 4, .min_tasks = 12};
  const auto result =
      rt.RunMain(apps::othello::kMainTask, apps::othello::MakeArg(config));
  ByteReader r(result.data(), result.size());
  std::int64_t value = 0;
  std::uint64_t nodes = 0;
  DSE_CHECK_OK(r.ReadI64(&value));
  DSE_CHECK_OK(r.ReadU64(&nodes));
  std::printf(
      "Cluster search of the opening at depth %d: value %+lld "
      "(%llu nodes, %.1f ms wall on 4 nodes)\n\n",
      depth, static_cast<long long>(value),
      static_cast<unsigned long long>(nodes), rt.last_run_seconds() * 1e3);

  // Then a short self-play demonstration.
  Position pos = apps::othello::InitialPosition();
  for (int ply = 0; ply < 6; ++ply) {
    if (apps::othello::LegalMoves(pos) == 0) {
      pos = apps::othello::Pass(pos);
      if (apps::othello::LegalMoves(pos) == 0) break;  // game over
      continue;
    }
    const int move = ChooseMove(pos, depth);
    std::printf("ply %d: %s plays %c%d\n", ply + 1,
                pos.to_move == 0 ? "X" : "O", 'a' + move % 8, move / 8 + 1);
    pos = apps::othello::Play(pos, move);
  }
  std::printf("\nPosition after 6 plies:\n");
  PrintBoard(pos);
  return 0;
}
