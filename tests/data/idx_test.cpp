#include "data/idx.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "data/synthetic_mnist.h"
#include "support/rng.h"

namespace apa::data {
namespace {

class IdxRoundTrip : public ::testing::Test {
 protected:
  void SetUp() override {
    // One directory per test: ctest runs the tests of this fixture in
    // parallel processes, and each TearDown removes its directory.
    dir_ = std::filesystem::temp_directory_path() /
           (std::string("apamm_idx_test_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

TEST_F(IdxRoundTrip, ImagesSurviveWriteRead) {
  Matrix<float> images(7, 28 * 28);
  Rng rng(1);
  fill_random_uniform<float>(images.view(), rng, 0.0f, 1.0f);
  const auto path = (dir_ / "imgs").string();
  write_idx_images(path, images.view().as_const(), 28, 28);
  const Matrix<float> back = read_idx_images(path);
  ASSERT_EQ(back.rows(), 7);
  ASSERT_EQ(back.cols(), 28 * 28);
  // u8 quantization: within 1/255 of half a step.
  EXPECT_LT(max_abs_diff(back.view(), images.view()), 0.5f / 255.0f + 1e-6f);
}

TEST_F(IdxRoundTrip, LabelsSurviveWriteRead) {
  const std::vector<int> labels = {0, 1, 9, 5, 5, 3};
  const auto path = (dir_ / "labels").string();
  write_idx_labels(path, labels);
  EXPECT_EQ(read_idx_labels(path), labels);
}

TEST_F(IdxRoundTrip, WrongMagicRejected) {
  const auto path = (dir_ / "bad").string();
  std::ofstream out(path, std::ios::binary);
  const char garbage[16] = "not an idx file";
  out.write(garbage, sizeof(garbage));
  out.close();
  EXPECT_THROW((void)read_idx_images(path), std::logic_error);
  EXPECT_THROW((void)read_idx_labels(path), std::logic_error);
}

TEST_F(IdxRoundTrip, TruncatedImageDataRejected) {
  Matrix<float> images(4, 4);
  images.set_zero();
  const auto path = (dir_ / "trunc").string();
  write_idx_images(path, images.view().as_const(), 2, 2);
  // Chop the file.
  std::filesystem::resize_file(path, 16 + 4);
  EXPECT_THROW((void)read_idx_images(path), std::logic_error);
}

TEST_F(IdxRoundTrip, MissingFileThrows) {
  EXPECT_THROW((void)read_idx_images((dir_ / "nope").string()), std::logic_error);
}

TEST_F(IdxRoundTrip, TryLoadMnistReturnsNulloptWhenAbsent) {
  EXPECT_FALSE(try_load_mnist(dir_.string()).has_value());
}

TEST_F(IdxRoundTrip, TryLoadMnistLoadsCanonicalFileNames) {
  // Materialize a tiny synthetic split under the canonical names.
  SyntheticMnistOptions opts;
  opts.train_size = 20;
  opts.test_size = 10;
  const auto splits = make_synthetic_mnist(opts);
  write_idx_images((dir_ / "train-images-idx3-ubyte").string(),
                   splits.train.images.view().as_const(), 28, 28);
  write_idx_labels((dir_ / "train-labels-idx1-ubyte").string(), splits.train.labels);
  write_idx_images((dir_ / "t10k-images-idx3-ubyte").string(),
                   splits.test.images.view().as_const(), 28, 28);
  write_idx_labels((dir_ / "t10k-labels-idx1-ubyte").string(), splits.test.labels);

  const auto loaded = try_load_mnist(dir_.string());
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->train.size(), 20);
  EXPECT_EQ(loaded->test.size(), 10);
  EXPECT_EQ(loaded->train.labels, splits.train.labels);
}

}  // namespace
}  // namespace apa::data
