#include "nn/serialize.hpp"

#include <cstdint>
#include <fstream>
#include <stdexcept>

#include "util/binary_io.hpp"

namespace distgnn {

namespace {
constexpr std::uint32_t kMagic = 0x444E4743;  // "CGND"
constexpr std::uint32_t kVersion = 1;
}  // namespace

void save_checkpoint(std::span<const ParamRef> params, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("save_checkpoint: cannot open " + path);
  const std::uint64_t count = params.size();
  out.write(reinterpret_cast<const char*>(&kMagic), sizeof(kMagic));
  out.write(reinterpret_cast<const char*>(&kVersion), sizeof(kVersion));
  out.write(reinterpret_cast<const char*>(&count), sizeof(count));
  for (const ParamRef& p : params) {
    const std::uint64_t size = p.size;
    out.write(reinterpret_cast<const char*>(&size), sizeof(size));
    out.write(reinterpret_cast<const char*>(p.value),
              static_cast<std::streamsize>(p.size * sizeof(real_t)));
  }
  if (!out) throw std::runtime_error("save_checkpoint: write failed for " + path);
}

void load_checkpoint(std::span<const ParamRef> params, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("load_checkpoint: cannot open " + path);
  std::uint32_t magic = 0, version = 0;
  std::uint64_t count = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  in.read(reinterpret_cast<char*>(&version), sizeof(version));
  in.read(reinterpret_cast<char*>(&count), sizeof(count));
  if (!in || magic != kMagic) throw std::runtime_error("load_checkpoint: bad magic in " + path);
  if (version != kVersion) throw std::runtime_error("load_checkpoint: unsupported version");
  if (count != params.size())
    throw std::runtime_error("load_checkpoint: parameter count mismatch");
  for (const ParamRef& p : params) {
    std::uint64_t size = 0;
    in.read(reinterpret_cast<char*>(&size), sizeof(size));
    if (!in || size != p.size) throw std::runtime_error("load_checkpoint: parameter size mismatch");
    in.read(reinterpret_cast<char*>(p.value),
            static_cast<std::streamsize>(p.size * sizeof(real_t)));
  }
  if (!in) throw std::runtime_error("load_checkpoint: truncated file " + path);
}

std::vector<std::size_t> checkpoint_shape(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("checkpoint_shape: cannot open " + path);
  std::uint32_t magic = 0, version = 0;
  std::uint64_t count = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  in.read(reinterpret_cast<char*>(&version), sizeof(version));
  in.read(reinterpret_cast<char*>(&count), sizeof(count));
  if (!in || magic != kMagic) throw std::runtime_error("checkpoint_shape: bad magic in " + path);
  if (version != kVersion) throw std::runtime_error("checkpoint_shape: unsupported version");
  // Every parameter takes at least its 8-byte size field.
  if (count > bytes_left(in) / sizeof(std::uint64_t))
    throw std::runtime_error("checkpoint_shape: parameter count exceeds the file " + path);
  std::vector<std::size_t> shape;
  shape.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t size = 0;
    in.read(reinterpret_cast<char*>(&size), sizeof(size));
    if (!in) throw std::runtime_error("checkpoint_shape: truncated header");
    if (size > bytes_left(in) / sizeof(real_t))
      throw std::runtime_error("checkpoint_shape: truncated parameter data in " + path);
    shape.push_back(static_cast<std::size_t>(size));
    in.seekg(static_cast<std::streamoff>(size * sizeof(real_t)), std::ios::cur);
  }
  return shape;
}

}  // namespace distgnn
