#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "core/sage_model.hpp"
#include "nn/serialize.hpp"

namespace distgnn {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "distgnn_serialize_" + name + ".ckpt";
}

TEST(Serialize, SaveLoadRoundTrip) {
  const std::string path = temp_path("roundtrip");
  SageModel model(8, 16, 4, 2, /*seed=*/3);
  const auto params = model.params();
  std::vector<std::vector<real_t>> original;
  for (const ParamRef& p : params) original.emplace_back(p.value, p.value + p.size);

  save_checkpoint(params, path);

  // Clobber every parameter, then restore from disk.
  SageModel other(8, 16, 4, 2, /*seed=*/99);
  auto other_params = other.params();
  load_checkpoint(other_params, path);
  for (std::size_t i = 0; i < params.size(); ++i)
    for (std::size_t j = 0; j < params[i].size; ++j)
      EXPECT_EQ(other_params[i].value[j], original[i][j]) << "param " << i << " elem " << j;
  std::remove(path.c_str());
}

TEST(Serialize, CheckpointShapeMatchesParams) {
  const std::string path = temp_path("shape");
  SageModel model(8, 16, 4, 2, /*seed=*/3);
  const auto params = model.params();
  save_checkpoint(params, path);

  const std::vector<std::size_t> shape = checkpoint_shape(path);
  ASSERT_EQ(shape.size(), params.size());
  for (std::size_t i = 0; i < params.size(); ++i) EXPECT_EQ(shape[i], params[i].size);
  std::remove(path.c_str());
}

TEST(Serialize, LoadRejectsParameterCountMismatch) {
  const std::string path = temp_path("count");
  SageModel model(8, 16, 4, 2, /*seed=*/3);
  auto params = model.params();
  save_checkpoint(params, path);

  SageModel deeper(8, 16, 4, 3, /*seed=*/3);  // more layers -> more params
  auto deeper_params = deeper.params();
  EXPECT_THROW(load_checkpoint(deeper_params, path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Serialize, LoadRejectsParameterSizeMismatch) {
  const std::string path = temp_path("size");
  SageModel model(8, 16, 4, 2, /*seed=*/3);
  auto params = model.params();
  save_checkpoint(params, path);

  SageModel wider(8, 32, 4, 2, /*seed=*/3);  // same count, different sizes
  auto wider_params = wider.params();
  ASSERT_EQ(wider_params.size(), params.size());
  EXPECT_THROW(load_checkpoint(wider_params, path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Serialize, LoadRejectsTruncatedFile) {
  const std::string path = temp_path("truncated");
  SageModel model(8, 16, 4, 2, /*seed=*/3);
  auto params = model.params();
  save_checkpoint(params, path);

  // Chop off the tail of the last parameter.
  std::ifstream in(path, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GT(bytes.size(), 64u);
  bytes.resize(bytes.size() - 32);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();

  EXPECT_THROW(load_checkpoint(params, path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Serialize, RejectsBadMagic) {
  const std::string path = temp_path("magic");
  {
    std::ofstream out(path, std::ios::binary);
    const std::uint32_t junk[4] = {0xdeadbeef, 1, 0, 0};
    out.write(reinterpret_cast<const char*>(junk), sizeof(junk));
  }
  SageModel model(8, 16, 4, 2, /*seed=*/3);
  auto params = model.params();
  EXPECT_THROW(load_checkpoint(params, path), std::runtime_error);
  EXPECT_THROW(checkpoint_shape(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Serialize, MissingFileThrows) {
  SageModel model(8, 16, 4, 2, /*seed=*/3);
  auto params = model.params();
  EXPECT_THROW(load_checkpoint(params, "/nonexistent/dir/x.ckpt"), std::runtime_error);
  EXPECT_THROW(checkpoint_shape("/nonexistent/dir/x.ckpt"), std::runtime_error);
  EXPECT_THROW(save_checkpoint(params, "/nonexistent/dir/x.ckpt"), std::runtime_error);
}

TEST(Serialize, ShapeRejectsTruncatedHeader) {
  const std::string path = temp_path("header");
  SageModel model(8, 16, 4, 2, /*seed=*/3);
  auto params = model.params();
  save_checkpoint(params, path);

  // Keep the magic/version/count but cut into the first size field's data.
  std::ifstream in(path, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  in.close();
  bytes.resize(20);  // magic(4) + version(4) + count(8) + half a size field
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();

  EXPECT_THROW(checkpoint_shape(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Serialize, ShapeRejectsHostileHeadersWithoutAllocating) {
  const std::string path = temp_path("hostile");
  SageModel model(8, 16, 4, 2, /*seed=*/3);
  save_checkpoint(model.params(), path);
  std::ifstream in(path, std::ios::binary);
  const std::vector<char> valid((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GT(valid.size(), 24u);  // magic(4) + version(4) + count(8) + size(8) + ...
  const auto with_u64 = [&](std::size_t offset, std::uint64_t value) {
    std::vector<char> bytes = valid;
    std::memcpy(bytes.data() + offset, &value, sizeof(value));
    return bytes;
  };
  std::vector<char> wrong_version = valid;
  const std::uint32_t version = 2;
  std::memcpy(wrong_version.data() + 4, &version, sizeof(version));
  const std::vector<std::vector<char>> hostile = {
      with_u64(8, std::uint64_t{1} << 40),   // 2^40 tensors: reserve() would throw length_error
      with_u64(16, std::uint64_t{1} << 40),  // a 2^40-element first tensor
      wrong_version,
      {valid.begin(), valid.end() - 5},  // truncated body
  };
  for (std::size_t i = 0; i < hostile.size(); ++i) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(hostile[i].data(), static_cast<std::streamsize>(hostile[i].size()));
    }
    EXPECT_THROW(checkpoint_shape(path), std::runtime_error) << "case " << i;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace distgnn
