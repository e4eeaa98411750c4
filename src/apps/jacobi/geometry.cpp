#include "apps/jacobi/geometry.hpp"

#include <limits>
#include <stdexcept>
#include <string>

namespace cux::jacobi {

int Decomposition::neighbor(int id, Dir d) const noexcept {
  Vec3 c = coordOf(id);
  switch (d) {
    case Dir::XMinus:
      if (c.x == 0) return -1;
      --c.x;
      break;
    case Dir::XPlus:
      if (c.x == procs.x - 1) return -1;
      ++c.x;
      break;
    case Dir::YMinus:
      if (c.y == 0) return -1;
      --c.y;
      break;
    case Dir::YPlus:
      if (c.y == procs.y - 1) return -1;
      ++c.y;
      break;
    case Dir::ZMinus:
      if (c.z == 0) return -1;
      --c.z;
      break;
    case Dir::ZPlus:
      if (c.z == procs.z - 1) return -1;
      ++c.z;
      break;
  }
  return idOf(c);
}

std::uint64_t Decomposition::faceCells(Dir d) const noexcept {
  switch (d) {
    case Dir::XMinus:
    case Dir::XPlus:
      return static_cast<std::uint64_t>(block.y) * block.z;
    case Dir::YMinus:
    case Dir::YPlus:
      return static_cast<std::uint64_t>(block.x) * block.z;
    case Dir::ZMinus:
    case Dir::ZPlus:
      return static_cast<std::uint64_t>(block.x) * block.y;
  }
  return 0;
}

std::uint64_t Decomposition::surfaceCells() const noexcept {
  return 2 * (faceCells(Dir::XMinus) + faceCells(Dir::YMinus) + faceCells(Dir::ZMinus));
}

namespace {
constexpr std::int64_t ceilDiv(std::int64_t a, std::int64_t b) noexcept {
  return (a + b - 1) / b;
}
}  // namespace

Decomposition decompose(Vec3 grid, int num_blocks) {
  if (num_blocks <= 0) {
    throw std::invalid_argument("decompose: " + std::to_string(num_blocks) + " blocks");
  }
  Decomposition best;
  best.grid = grid;
  std::uint64_t best_surface = std::numeric_limits<std::uint64_t>::max();
  for (int px = 1; px <= num_blocks; ++px) {
    if (num_blocks % px != 0) continue;
    const int rest = num_blocks / px;
    for (int py = 1; py <= rest; ++py) {
      if (rest % py != 0) continue;
      const int pz = rest / py;
      Decomposition d;
      d.grid = grid;
      d.procs = Vec3{px, py, pz};
      d.block = Vec3{ceilDiv(grid.x, px), ceilDiv(grid.y, py), ceilDiv(grid.z, pz)};
      const std::uint64_t surface = d.surfaceCells();
      if (surface < best_surface) {
        best_surface = surface;
        best = d;
      }
    }
  }
  return best;
}

Vec3 weakScaledGrid(Vec3 base, int node_exponent) {
  Vec3 g = base;
  for (int i = 0; i < node_exponent; ++i) {
    switch (i % 3) {
      case 0:
        g.x *= 2;
        break;
      case 1:
        g.y *= 2;
        break;
      default:
        g.z *= 2;
        break;
    }
  }
  return g;
}

}  // namespace cux::jacobi
