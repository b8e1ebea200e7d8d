// Bounds for header-declared lengths in the binary loaders.
#pragma once

#include <cstdint>
#include <istream>

namespace distgnn {

/// Bytes between `in`'s read position and the end of the stream. A length a
/// file header declares is honest only if the rest of the file can hold it,
/// so loaders check against this before they allocate.
inline std::uint64_t bytes_left(std::istream& in) {
  const std::istream::pos_type here = in.tellg();
  in.seekg(0, std::ios::end);
  const std::istream::pos_type end = in.tellg();
  in.seekg(here);
  if (here < 0 || end < here) return 0;
  return static_cast<std::uint64_t>(end - here);
}

}  // namespace distgnn
