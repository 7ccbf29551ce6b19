#include "data/io.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "data/generator.hpp"

namespace multihit {
namespace {

Dataset sample_dataset() {
  SyntheticSpec spec;
  spec.genes = 30;
  spec.tumor_samples = 20;
  spec.normal_samples = 15;
  spec.hits = 2;
  spec.num_combinations = 3;
  spec.seed = 77;
  Dataset data = generate_dataset(spec);
  data.name = "roundtrip";
  return data;
}

TEST(DatasetIo, RoundTripPreservesEverything) {
  const Dataset original = sample_dataset();
  std::stringstream buffer;
  write_dataset(buffer, original);
  const Dataset loaded = read_dataset(buffer);
  EXPECT_EQ(loaded.name, original.name);
  EXPECT_EQ(loaded.tumor, original.tumor);
  EXPECT_EQ(loaded.normal, original.normal);
  EXPECT_EQ(loaded.planted, original.planted);
}

TEST(DatasetIo, EmptyMatricesRoundTrip) {
  Dataset data;
  data.name = "empty";
  data.tumor = BitMatrix(5, 0);
  data.normal = BitMatrix(5, 0);
  std::stringstream buffer;
  write_dataset(buffer, data);
  const Dataset loaded = read_dataset(buffer);
  EXPECT_EQ(loaded.genes(), 5u);
  EXPECT_EQ(loaded.tumor_samples(), 0u);
}

TEST(DatasetIo, RejectsBadMagic) {
  std::stringstream buffer("not-a-dataset\n");
  EXPECT_THROW(read_dataset(buffer), std::runtime_error);
}

TEST(DatasetIo, RejectsTruncatedHeader) {
  std::stringstream buffer("multihit-dataset v1\nname x\ngenes 3\n");
  EXPECT_THROW(read_dataset(buffer), std::runtime_error);
}

TEST(DatasetIo, RejectsOutOfRangeEntries) {
  std::stringstream buffer(
      "multihit-dataset v1\nname x\ngenes 3\ntumor-samples 2\nnormal-samples 2\n"
      "planted 0\nt 5 0\nend\n");
  EXPECT_THROW(read_dataset(buffer), std::runtime_error);
}

TEST(DatasetIo, RejectsMissingEnd) {
  std::stringstream buffer(
      "multihit-dataset v1\nname x\ngenes 3\ntumor-samples 2\nnormal-samples 2\n"
      "planted 0\nt 1 0\n");
  EXPECT_THROW(read_dataset(buffer), std::runtime_error);
}

std::string header(const std::string& genes, const std::string& tumor) {
  return "multihit-dataset v1\nname x\ngenes " + genes + "\ntumor-samples " + tumor +
         "\nnormal-samples 2\nplanted 0\nend\n";
}

std::string read_error(const std::string& text) {
  std::stringstream buffer(text);
  try {
    (void)read_dataset(buffer);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(DatasetIo, RejectsHeaderCountsAboveU32) {
  // 2^32 + 3 used to truncate to 3 genes through an unchecked cast.
  EXPECT_NE(read_error(header("4294967299", "2")).find("genes 4294967299 exceeds 4294967295"),
            std::string::npos);
  EXPECT_NE(read_error(header("3", "99999999999999999999999")).find("tumor-samples"),
            std::string::npos);
  EXPECT_NE(read_error(header("-1", "2")).find("genes is not a count"), std::string::npos);
  EXPECT_NE(read_error(header("3x", "2")).find("genes is not a count"), std::string::npos);
  EXPECT_NE(read_error(header("", "2")).find("genes is not a count"), std::string::npos);
}

TEST(DatasetIo, RejectsOversizedMatrixBeforeAllocating) {
  // 4294967295 x 4294967295 would ask for ~2^58 words before reading a row.
  EXPECT_NE(read_error(header("4294967295", "4294967295")).find("matrix cap"),
            std::string::npos);
  // One gene past the cap: 16385 genes x 2^14 words per row > 2^28 words.
  EXPECT_NE(read_error(header("16385", "1048576")).find("matrix cap"), std::string::npos);
}

TEST(DatasetIo, FileRoundTrip) {
  const Dataset original = sample_dataset();
  const std::string path = testing::TempDir() + "/multihit_io_test.txt";
  save_dataset(path, original);
  const Dataset loaded = load_dataset(path);
  EXPECT_EQ(loaded.tumor, original.tumor);
  EXPECT_EQ(loaded.normal, original.normal);
}

TEST(DatasetIo, MissingFileThrows) {
  EXPECT_THROW(load_dataset("/nonexistent/path/file.txt"), std::ios_base::failure);
}

}  // namespace
}  // namespace multihit
