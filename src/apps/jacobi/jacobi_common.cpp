#include <stdexcept>

#include "apps/jacobi/jacobi.hpp"

namespace cux::jacobi {

double initialValue(std::int64_t x, std::int64_t y, std::int64_t z) noexcept {
  // Cheap deterministic hash into [0, 1).
  const std::uint64_t h = static_cast<std::uint64_t>(x) * 2654435761u +
                          static_cast<std::uint64_t>(y) * 40503u +
                          static_cast<std::uint64_t>(z) * 961748927u;
  return static_cast<double>(h % 1024) / 1024.0;
}

std::vector<double> referenceJacobi(Vec3 g, int iters) {
  const std::int64_t sx = g.x + 2, sy = g.y + 2, sz = g.z + 2;
  std::vector<double> a(static_cast<std::size_t>(sx * sy * sz), 0.0);
  std::vector<double> b = a;
  auto at = [&](std::vector<double>& v, std::int64_t i, std::int64_t j,
                std::int64_t k) -> double& {
    return v[static_cast<std::size_t>(i + sx * (j + sy * k))];
  };
  for (std::int64_t k = 0; k < g.z; ++k)
    for (std::int64_t j = 0; j < g.y; ++j)
      for (std::int64_t i = 0; i < g.x; ++i) at(a, i + 1, j + 1, k + 1) = initialValue(i, j, k);

  for (int it = 0; it < iters; ++it) {
    for (std::int64_t k = 1; k <= g.z; ++k) {
      for (std::int64_t j = 1; j <= g.y; ++j) {
        for (std::int64_t i = 1; i <= g.x; ++i) {
          at(b, i, j, k) = (at(a, i, j, k) + at(a, i - 1, j, k) + at(a, i + 1, j, k) +
                            at(a, i, j - 1, k) + at(a, i, j + 1, k) + at(a, i, j, k - 1) +
                            at(a, i, j, k + 1)) /
                           7.0;
        }
      }
    }
    std::swap(a, b);
  }

  // Strip the halo.
  std::vector<double> out(static_cast<std::size_t>(g.x * g.y * g.z));
  for (std::int64_t k = 0; k < g.z; ++k)
    for (std::int64_t j = 0; j < g.y; ++j)
      for (std::int64_t i = 0; i < g.x; ++i)
        out[static_cast<std::size_t>(i + g.x * (j + g.y * k))] = at(a, i + 1, j + 1, k + 1);
  return out;
}

JacobiResult runJacobi(const JacobiConfig& cfg) {
  switch (cfg.stack) {
    case Stack::Charm:
      return detail::runCharm(cfg);
    case Stack::Ampi:
    case Stack::Ompi:
      return detail::runMpi(cfg);
    case Stack::Charm4py:
      return detail::runC4p(cfg);
  }
  return {};
}

std::vector<double> runJacobiVerified(const JacobiConfig& cfg) {
  if (!cfg.backed) {
    throw std::invalid_argument("runJacobiVerified: verification needs backed device memory");
  }
  std::vector<double> out(
      static_cast<std::size_t>(cfg.grid.x) * cfg.grid.y * cfg.grid.z, 0.0);
  switch (cfg.stack) {
    case Stack::Charm:
      detail::runCharm(cfg, &out);
      break;
    case Stack::Ampi:
    case Stack::Ompi:
      detail::runMpi(cfg, &out);
      break;
    case Stack::Charm4py:
      detail::runC4p(cfg, &out);
      break;
  }
  return out;
}

}  // namespace cux::jacobi
