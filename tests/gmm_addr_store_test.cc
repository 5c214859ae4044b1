// Global-memory address layout, access splitting, and the page store.
#include <numeric>
#include <tuple>

#include <gtest/gtest.h>

#include "dse/gmm/addr.h"
#include "dse/gmm/store.h"

namespace dse::gmm {
namespace {

TEST(Addr, LayoutRoundTrip) {
  const GlobalAddr a = MakeAddr(AddrKind::kStriped, 12, 0x123456789ABC);
  EXPECT_EQ(KindOf(a), AddrKind::kStriped);
  EXPECT_EQ(ParamOf(a), 12);
  EXPECT_EQ(OffsetOf(a), 0x123456789ABCULL);
}

TEST(Addr, HomedAddressRoutesToItsNode) {
  const GlobalAddr a = MakeAddr(AddrKind::kNodeHomed, 3, 999);
  EXPECT_EQ(HomeOf(a, 6), 3);
}

TEST(Addr, StripedBlocksRotateAcrossNodes) {
  const int nodes = 4;
  const std::uint8_t log2 = 10;  // 1 KiB stripes
  for (int block = 0; block < 16; ++block) {
    const GlobalAddr a = MakeAddr(AddrKind::kStriped, log2,
                                  static_cast<std::uint64_t>(block) << log2);
    EXPECT_EQ(HomeOf(a, nodes), block % nodes);
  }
}

TEST(Addr, StripeBytes) {
  EXPECT_EQ(StripeBytes(MakeAddr(AddrKind::kStriped, 6, 0)), 64u);
  EXPECT_EQ(StripeBytes(MakeAddr(AddrKind::kStriped, 20, 0)), 1u << 20);
}

TEST(Addr, BlockBaseAndBytes) {
  const GlobalAddr a = MakeAddr(AddrKind::kStriped, 10, 1024 * 3 + 17);
  EXPECT_EQ(BlockBaseOf(a), MakeAddr(AddrKind::kStriped, 10, 1024 * 3));
  EXPECT_EQ(BlockBytesOf(a), 1024u);

  const GlobalAddr h = MakeAddr(AddrKind::kNodeHomed, 2, 5000);
  EXPECT_EQ(BlockBaseOf(h),
            MakeAddr(AddrKind::kNodeHomed, 2, 4 * kHomedBlockBytes));
  EXPECT_EQ(BlockBytesOf(h), kHomedBlockBytes);
}

TEST(Addr, BlockIndexOf) {
  EXPECT_EQ(BlockIndexOf(MakeAddr(AddrKind::kStriped, 10, 2048)), 2u);
  EXPECT_EQ(BlockIndexOf(MakeAddr(AddrKind::kNodeHomed, 0, 3000)), 2u);
}

// Epochs only increase: a duplicated or re-sent admission view (a
// NodeJoinResp) that arrives after a later membership change must not roll
// the joiner's view back.
TEST(HomeMap, InstallViewNeverLowersTheEpoch) {
  HomeMap map(4);
  ASSERT_TRUE(map.Evict(3, 1));
  ASSERT_TRUE(map.Admit(3, 2));
  ASSERT_TRUE(map.Evict(2, 3));
  map.InstallView({1, 1, 1, 1}, 2);  // the epoch-2 admission, re-delivered
  EXPECT_EQ(map.epoch(), 3u);
  EXPECT_FALSE(map.IsAlive(2));
  map.InstallView({1, 1, 1, 0}, 4);
  EXPECT_EQ(map.epoch(), 4u);
  EXPECT_TRUE(map.IsAlive(2));
  EXPECT_FALSE(map.IsAlive(3));
}

TEST(SplitAccess, EmptyAccess) {
  EXPECT_TRUE(SplitAccess(MakeAddr(AddrKind::kStriped, 10, 0), 0, 4).empty());
}

TEST(SplitAccess, HomedIsOneChunk) {
  const GlobalAddr a = MakeAddr(AddrKind::kNodeHomed, 1, 100);
  const auto chunks = SplitAccess(a, 100000, 4);
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0].addr, a);
  EXPECT_EQ(chunks[0].len, 100000u);
  EXPECT_EQ(chunks[0].home, 1);
  EXPECT_EQ(chunks[0].byte_offset, 0u);
}

TEST(SplitAccess, StripedAlignedAccess) {
  const GlobalAddr a = MakeAddr(AddrKind::kStriped, 10, 0);
  const auto chunks = SplitAccess(a, 4096, 4);  // exactly 4 stripes
  ASSERT_EQ(chunks.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(chunks[static_cast<size_t>(i)].len, 1024u);
    EXPECT_EQ(chunks[static_cast<size_t>(i)].home, i);
    EXPECT_EQ(chunks[static_cast<size_t>(i)].byte_offset,
              static_cast<std::uint64_t>(i) * 1024);
  }
}

TEST(SplitAccess, UnalignedStartAndEnd) {
  const GlobalAddr a = MakeAddr(AddrKind::kStriped, 10, 1000);
  const auto chunks = SplitAccess(a, 100, 4);  // crosses one boundary
  ASSERT_EQ(chunks.size(), 2u);
  EXPECT_EQ(chunks[0].len, 24u);   // bytes 1000..1023
  EXPECT_EQ(chunks[1].len, 76u);   // bytes 1024..1099
  EXPECT_EQ(chunks[1].byte_offset, 24u);
}

// Property sweep: chunks tile the access exactly, never cross stripe
// boundaries, and route to the right homes.
class SplitAccessProperty
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(SplitAccessProperty, ChunksTileTheAccess) {
  const auto [nodes, stripe_log2, len] = GetParam();
  const std::uint64_t start = 12345;  // deliberately unaligned
  const GlobalAddr addr =
      MakeAddr(AddrKind::kStriped, static_cast<std::uint8_t>(stripe_log2),
               start);
  const auto chunks = SplitAccess(addr, static_cast<std::uint64_t>(len),
                                  nodes);

  std::uint64_t covered = 0;
  for (const Chunk& c : chunks) {
    EXPECT_EQ(c.byte_offset, covered);
    EXPECT_EQ(OffsetOf(c.addr), start + covered);
    EXPECT_EQ(c.home, HomeOf(c.addr, nodes));
    // No chunk crosses a stripe boundary.
    const std::uint64_t stripe = 1ULL << stripe_log2;
    EXPECT_EQ(OffsetOf(c.addr) / stripe,
              (OffsetOf(c.addr) + c.len - 1) / stripe);
    covered += c.len;
  }
  EXPECT_EQ(covered, static_cast<std::uint64_t>(len));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SplitAccessProperty,
    ::testing::Combine(::testing::Values(1, 3, 6, 12),   // nodes
                       ::testing::Values(6, 10, 16),     // stripe log2
                       ::testing::Values(1, 63, 64, 65, 1000, 65536)));

TEST(PageStore, ZeroFilledOnFirstTouch) {
  PageStore store;
  std::uint8_t buf[16] = {0xFF};
  store.Read(MakeAddr(AddrKind::kStriped, 10, 5000), buf, sizeof(buf));
  for (const auto b : buf) EXPECT_EQ(b, 0);
  EXPECT_EQ(store.page_count(), 0u);  // reads do not materialize pages
}

TEST(PageStore, WriteReadRoundTrip) {
  PageStore store;
  const GlobalAddr a = MakeAddr(AddrKind::kNodeHomed, 0, 100);
  const char msg[] = "global memory";
  store.Write(a, msg, sizeof(msg));
  char out[sizeof(msg)];
  store.Read(a, out, sizeof(out));
  EXPECT_STREQ(out, "global memory");
  EXPECT_EQ(store.page_count(), 1u);
}

TEST(PageStore, CrossPageAccess) {
  PageStore store;
  const GlobalAddr a =
      MakeAddr(AddrKind::kNodeHomed, 0, PageStore::kPageBytes - 8);
  std::vector<std::uint8_t> data(64);
  std::iota(data.begin(), data.end(), 1);
  store.Write(a, data.data(), data.size());
  std::vector<std::uint8_t> out(64);
  store.Read(a, out.data(), out.size());
  EXPECT_EQ(out, data);
  EXPECT_EQ(store.page_count(), 2u);
}

TEST(PageStore, DistinctArenasDoNotCollide) {
  PageStore store;
  const GlobalAddr striped = MakeAddr(AddrKind::kStriped, 10, 0);
  const GlobalAddr homed = MakeAddr(AddrKind::kNodeHomed, 0, 0);
  const std::int64_t a = 111, b = 222;
  store.Write(striped, &a, 8);
  store.Write(homed, &b, 8);
  std::int64_t out = 0;
  store.Read(striped, &out, 8);
  EXPECT_EQ(out, 111);
  store.Read(homed, &out, 8);
  EXPECT_EQ(out, 222);
}

TEST(PageStore, Atomic64Slots) {
  PageStore store;
  const GlobalAddr a = MakeAddr(AddrKind::kNodeHomed, 0, 64);
  EXPECT_EQ(store.Load64(a), 0);
  store.Store64(a, -17);
  EXPECT_EQ(store.Load64(a), -17);
}

TEST(PageStoreDeathTest, MisalignedAtomicRejected) {
  PageStore store;
  EXPECT_DEATH(store.Load64(MakeAddr(AddrKind::kNodeHomed, 0, 3)),
               "8-aligned");
}

TEST(PageStore, PartialPageOverwrite) {
  PageStore store;
  const GlobalAddr a = MakeAddr(AddrKind::kNodeHomed, 0, 0);
  std::vector<std::uint8_t> big(256, 0xAA);
  store.Write(a, big.data(), big.size());
  const std::uint8_t patch[4] = {1, 2, 3, 4};
  store.Write(a + 100, patch, 4);
  std::vector<std::uint8_t> out(256);
  store.Read(a, out.data(), out.size());
  EXPECT_EQ(out[99], 0xAA);
  EXPECT_EQ(out[100], 1);
  EXPECT_EQ(out[103], 4);
  EXPECT_EQ(out[104], 0xAA);
}

}  // namespace
}  // namespace dse::gmm
