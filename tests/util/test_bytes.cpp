#include "util/bytes.hpp"

#include <gtest/gtest.h>

namespace streamlab {
namespace {

TEST(ByteWriter, BigEndianLayout) {
  ByteWriter w;
  w.u8(0xAB);
  w.u16be(0x1234);
  w.u32be(0xDEADBEEF);
  const auto v = w.view();
  ASSERT_EQ(v.size(), 7u);
  EXPECT_EQ(v[0], 0xAB);
  EXPECT_EQ(v[1], 0x12);
  EXPECT_EQ(v[2], 0x34);
  EXPECT_EQ(v[3], 0xDE);
  EXPECT_EQ(v[4], 0xAD);
  EXPECT_EQ(v[5], 0xBE);
  EXPECT_EQ(v[6], 0xEF);
}

TEST(ByteWriter, LittleEndianLayout) {
  ByteWriter w;
  w.u16le(0x1234);
  w.u32le(0xDEADBEEF);
  const auto v = w.view();
  ASSERT_EQ(v.size(), 6u);
  EXPECT_EQ(v[0], 0x34);
  EXPECT_EQ(v[1], 0x12);
  EXPECT_EQ(v[2], 0xEF);
  EXPECT_EQ(v[3], 0xBE);
  EXPECT_EQ(v[4], 0xAD);
  EXPECT_EQ(v[5], 0xDE);
}

TEST(ByteReader, RoundTripsWriter) {
  ByteWriter w;
  w.u8(7);
  w.u16be(300);
  w.u32be(1'000'000);
  w.u16le(300);
  w.u32le(1'000'000);
  const auto buf = w.take();

  ByteReader r(buf);
  EXPECT_EQ(r.u8(), 7);
  EXPECT_EQ(r.u16be(), 300);
  EXPECT_EQ(r.u32be(), 1'000'000u);
  EXPECT_EQ(r.u16le(), 300);
  EXPECT_EQ(r.u32le(), 1'000'000u);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(ByteReader, UnderrunSetsStickyError) {
  const std::uint8_t data[3] = {1, 2, 3};
  ByteReader r(data);
  EXPECT_EQ(r.u16be(), 0x0102);
  EXPECT_EQ(r.u32be(), 0u);  // only 1 byte left
  EXPECT_FALSE(r.ok());
  // Sticky: further reads keep failing even though bytes notionally remain.
  EXPECT_EQ(r.u8(), 0);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(ByteReader, BytesViewAndSkip) {
  const std::uint8_t data[5] = {10, 20, 30, 40, 50};
  ByteReader r(data);
  r.skip(1);
  const auto view = r.bytes(3);
  ASSERT_EQ(view.size(), 3u);
  EXPECT_EQ(view[0], 20);
  EXPECT_EQ(view[2], 40);
  EXPECT_EQ(r.remaining(), 1u);
  EXPECT_TRUE(r.bytes(2).empty());
  EXPECT_FALSE(r.ok());
}

}  // namespace
}  // namespace streamlab
