// Unit tests of the ASCII table / CSV reporters and the binary serializer.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "util/serialize.h"
#include "util/table.h"

namespace ams::util {
namespace {

TEST(FormatDoubleTest, Digits) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(3.0, 0), "3");
  EXPECT_EQ(FormatDouble(-1.5, 3), "-1.500");
}

TEST(AsciiTableTest, AlignsColumnsAndCountsRows) {
  AsciiTable table;
  table.SetHeader({"name", "value"});
  table.AddRow({"short", "1"});
  table.AddRow("longer_label", {2.5}, 1);
  EXPECT_EQ(table.num_rows(), 2u);
  const std::string out = table.ToString();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer_label"), std::string::npos);
  EXPECT_NE(out.find("2.5"), std::string::npos);
  // All lines after the separator have equal or shorter width than header
  // line extended by padding; basic sanity: at least 4 lines.
  int lines = 0;
  for (char c : out) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, 4);  // header, separator, two rows
}

TEST(AsciiTableTest, RowWidthMismatchDies) {
  AsciiTable table;
  table.SetHeader({"a", "b"});
  EXPECT_DEATH(table.AddRow({"only_one"}), "row width mismatch");
}

TEST(CsvTest, WritesHeaderAndRows) {
  const std::string path = ::testing::TempDir() + "/ams_test.csv";
  WriteCsv(path, {"x", "y"}, {{"1", "2"}, {"3", "4"}});
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "x,y");
  std::getline(in, line);
  EXPECT_EQ(line, "1,2");
  std::getline(in, line);
  EXPECT_EQ(line, "3,4");
}

TEST(SerializeTest, RoundTripAllTypes) {
  const float values[] = {1.0f, 2.0f, 3.0f};
  std::stringstream buffer;
  BinaryWriter writer(&buffer);
  writer.WriteU32(0xDEADBEEF);
  writer.WriteI32(-42);
  writer.WriteFloats(values, 3);
  ASSERT_TRUE(writer.ok());

  BinaryReader reader(&buffer);
  EXPECT_EQ(reader.ReadU32(), 0xDEADBEEF);
  EXPECT_EQ(reader.ReadI32(), -42);
  float out[3] = {0.0f, 0.0f, 0.0f};
  EXPECT_TRUE(reader.ReadFloats(out, 3));
  EXPECT_EQ(std::vector<float>(out, out + 3),
            (std::vector<float>{1.0f, 2.0f, 3.0f}));
  EXPECT_TRUE(reader.ok());
  EXPECT_EQ(reader.bytes_left(), 0u);
}

TEST(SerializeTest, TruncatedInputFailsGracefully) {
  // A block of 3 floats cut one byte short: its length prefix is intact,
  // so the short read is the floats'.
  const float values[] = {1.0f, -2.5f, 3.0f};
  std::stringstream full;
  BinaryWriter writer(&full);
  writer.WriteFloats(values, 3);
  std::string bytes = full.str();
  bytes.pop_back();
  std::stringstream buffer(bytes);
  BinaryReader reader(&buffer);
  float out[3] = {7.0f, 7.0f, 7.0f};
  EXPECT_FALSE(reader.ReadFloats(out, 3));
  EXPECT_FALSE(reader.ok());
  EXPECT_EQ(out[0], 7.0f) << "a float was read from a short block";
  // Subsequent reads stay failed and return zero values.
  EXPECT_EQ(reader.ReadU32(), 0u);
  EXPECT_EQ(reader.ReadI32(), 0);
  EXPECT_FALSE(reader.ok());
}

TEST(SerializeTest, ReadFloatsChecksTheDeclaredLength) {
  // ReadFloats reads a block in place only when its length prefix is the
  // one the caller expects.
  const float values[] = {1.0f, -2.5f, 3.0f};
  std::stringstream buffer;
  BinaryWriter writer(&buffer);
  writer.WriteFloats(values, 3);
  ASSERT_TRUE(writer.ok());
  const std::string bytes = buffer.str();
  {
    std::stringstream right_length(bytes);
    BinaryReader reader(&right_length);
    float out[3] = {0.0f, 0.0f, 0.0f};
    EXPECT_TRUE(reader.ReadFloats(out, 3));
    EXPECT_EQ(std::vector<float>(out, out + 3),
              (std::vector<float>{1.0f, -2.5f, 3.0f}));
  }
  {
    std::stringstream wrong_length(bytes);
    BinaryReader reader(&wrong_length);
    float out[4] = {7.0f, 7.0f, 7.0f, 7.0f};
    EXPECT_FALSE(reader.ReadFloats(out, 4));
    EXPECT_EQ(out[0], 7.0f) << "a float was read past a wrong length";
    EXPECT_FALSE(reader.ok());
  }
}

TEST(SerializeTest, EmptyContainers) {
  // A zero-length block round-trips and leaves the reader at the next field.
  const float none[1] = {0.0f};
  std::stringstream buffer;
  BinaryWriter writer(&buffer);
  writer.WriteFloats(none, 0);
  writer.WriteU32(7);
  ASSERT_TRUE(writer.ok());
  BinaryReader reader(&buffer);
  float out[1] = {5.0f};
  EXPECT_TRUE(reader.ReadFloats(out, 0));
  EXPECT_EQ(out[0], 5.0f);
  EXPECT_EQ(reader.ReadU32(), 7u);
  EXPECT_TRUE(reader.ok());
}

}  // namespace
}  // namespace ams::util
