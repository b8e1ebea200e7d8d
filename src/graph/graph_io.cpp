#include "graph/graph_io.hpp"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "util/binary_io.hpp"

namespace distgnn {

namespace {
constexpr std::uint32_t kMagic = 0x444E4E47;  // "GNND" little-endian
constexpr std::uint32_t kVersion = 1;
}  // namespace

void save_edge_list_binary(const EdgeList& el, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("save_edge_list_binary: cannot open " + path);
  const std::uint64_t n = static_cast<std::uint64_t>(el.num_vertices);
  const std::uint64_t m = el.edges.size();
  out.write(reinterpret_cast<const char*>(&kMagic), sizeof(kMagic));
  out.write(reinterpret_cast<const char*>(&kVersion), sizeof(kVersion));
  out.write(reinterpret_cast<const char*>(&n), sizeof(n));
  out.write(reinterpret_cast<const char*>(&m), sizeof(m));
  out.write(reinterpret_cast<const char*>(el.edges.data()),
            static_cast<std::streamsize>(m * sizeof(Edge)));
  if (!out) throw std::runtime_error("save_edge_list_binary: write failed for " + path);
}

EdgeList load_edge_list_binary(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("load_edge_list_binary: cannot open " + path);
  std::uint32_t magic = 0, version = 0;
  std::uint64_t n = 0, m = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  in.read(reinterpret_cast<char*>(&version), sizeof(version));
  if (!in || magic != kMagic) throw std::runtime_error("load_edge_list_binary: bad magic in " + path);
  if (version != kVersion) throw std::runtime_error("load_edge_list_binary: unsupported version");
  in.read(reinterpret_cast<char*>(&n), sizeof(n));
  in.read(reinterpret_cast<char*>(&m), sizeof(m));
  if (!in) throw std::runtime_error("load_edge_list_binary: truncated header in " + path);
  if (n > static_cast<std::uint64_t>(std::numeric_limits<vid_t>::max()))
    throw std::runtime_error("load_edge_list_binary: vertex count overflows vid_t in " + path);
  if (m > bytes_left(in) / sizeof(Edge))
    throw std::runtime_error("load_edge_list_binary: edge count exceeds the file " + path);
  EdgeList el;
  el.num_vertices = static_cast<vid_t>(n);
  el.edges.resize(m);
  in.read(reinterpret_cast<char*>(el.edges.data()), static_cast<std::streamsize>(m * sizeof(Edge)));
  if (!in) throw std::runtime_error("load_edge_list_binary: truncated file " + path);
  return el;
}

EdgeList load_edge_list_text(const std::string& path, vid_t min_num_vertices) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_edge_list_text: cannot open " + path);
  EdgeList el;
  vid_t max_id = -1;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    vid_t u = 0, v = 0;
    if (!(ls >> u >> v)) throw std::runtime_error("load_edge_list_text: malformed line: " + line);
    el.add(u, v);
    max_id = std::max({max_id, u, v});
  }
  el.num_vertices = std::max(min_num_vertices, max_id + 1);
  return el;
}

void save_edge_list_text(const EdgeList& el, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("save_edge_list_text: cannot open " + path);
  out << "# vertices " << el.num_vertices << "\n";
  for (const Edge& e : el.edges) out << e.src << ' ' << e.dst << '\n';
  if (!out) throw std::runtime_error("save_edge_list_text: write failed for " + path);
}

}  // namespace distgnn
