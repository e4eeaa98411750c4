#include "apps/jacobi/block.hpp"

#include <cstring>
#include <stdexcept>

namespace cux::jacobi {

namespace {

/// Stencil memory traffic per cell: read 7 + write 1 doubles, but the 6
/// neighbour reads mostly hit cache; model read+write of the cell itself
/// twice over (16 B/cell), scaled by the sustained-efficiency factor.
[[nodiscard]] sim::Duration memBoundKernel(std::uint64_t cells, const hw::MachineConfig& cfg,
                                           double efficiency) {
  const double gbps = cfg.gpu_mem_bandwidth_gbps * efficiency;
  return sim::transferTime(cells * 16, gbps);
}

}  // namespace

void BlockState::init(hw::System& system, const JacobiConfig& cfg, const Decomposition& d,
                      int block_id, int pe_id) {
  sys = &system;
  dec = d;
  id = block_id;
  coord = d.coordOf(block_id);
  pe = pe_id;
  mode = cfg.mode;
  backed = cfg.backed;
  efficiency = cfg.model.costs.stencil_mem_efficiency;
  stream = std::make_unique<cuda::Stream>(system, pe_id);

  nnbr = 0;
  for (int i = 0; i < kNumDirs; ++i) {
    nbr[static_cast<std::size_t>(i)] = d.neighbor(block_id, static_cast<Dir>(i));
    if (nbr[static_cast<std::size_t>(i)] >= 0) ++nnbr;
  }

  const std::uint64_t halo_cells = static_cast<std::uint64_t>(d.block.x + 2) *
                                   (d.block.y + 2) * (d.block.z + 2);
  grid[0] = cuda::deviceAlloc(system, pe_id, halo_cells * 8, backed).ptr;
  grid[1] = cuda::deviceAlloc(system, pe_id, halo_cells * 8, backed).ptr;

  for (int i = 0; i < kNumDirs; ++i) {
    if (nbr[static_cast<std::size_t>(i)] < 0) continue;
    const std::uint64_t bytes = d.faceBytes(static_cast<Dir>(i));
    d_send[i] = cuda::deviceAlloc(system, pe_id, bytes, backed).ptr;
    d_recv[0][i] = cuda::deviceAlloc(system, pe_id, bytes, backed).ptr;
    d_recv[1][i] = cuda::deviceAlloc(system, pe_id, bytes, backed).ptr;
    if (mode == Mode::HostStaging) {
      h_send[i] = cuda::HostBuffer(system, bytes);
      h_recv[0][i] = cuda::HostBuffer(system, bytes);
      h_recv[1][i] = cuda::HostBuffer(system, bytes);
    }
  }

  if (backed) {
    // Deterministic initial condition; halo cells start at zero (fixed
    // boundary).
    auto* g = static_cast<double*>(grid[0]);
    std::memset(g, 0, halo_cells * 8);
    std::memset(grid[1], 0, halo_cells * 8);
    for (std::int64_t k = 0; k < dec.block.z; ++k) {
      for (std::int64_t j = 0; j < dec.block.y; ++j) {
        for (std::int64_t i = 0; i < dec.block.x; ++i) {
          const std::int64_t gx = coord.x * dec.block.x + i;
          const std::int64_t gy = coord.y * dec.block.y + j;
          const std::int64_t gz = coord.z * dec.block.z + k;
          if (gx >= dec.grid.x || gy >= dec.grid.y || gz >= dec.grid.z) continue;
          g[haloIdx(i + 1, j + 1, k + 1)] = initialValue(gx, gy, gz);
        }
      }
    }
  }
}

BlockState::~BlockState() {
  if (sys == nullptr) return;
  for (void* p : grid) {
    if (p != nullptr) cuda::deviceFree(*sys, p);
  }
  for (int i = 0; i < kNumDirs; ++i) {
    if (d_send[i] != nullptr) cuda::deviceFree(*sys, d_send[i]);
    for (int p = 0; p < 2; ++p) {
      if (d_recv[p][i] != nullptr) cuda::deviceFree(*sys, d_recv[p][i]);
    }
  }
}

std::size_t BlockState::haloIdx(std::int64_t i, std::int64_t j, std::int64_t k) const {
  const std::int64_t sx = dec.block.x + 2;
  const std::int64_t sy = dec.block.y + 2;
  return static_cast<std::size_t>(i + sx * (j + sy * k));
}

sim::Duration BlockState::stencilCost() const {
  return memBoundKernel(dec.blockCells(), sys->config, efficiency);
}

sim::Duration BlockState::packCost() const {
  std::uint64_t cells = 0;
  for (int i = 0; i < kNumDirs; ++i) {
    if (nbr[static_cast<std::size_t>(i)] >= 0) cells += dec.faceCells(static_cast<Dir>(i));
  }
  return memBoundKernel(cells, sys->config, efficiency);
}

sim::Duration BlockState::unpackCost() const { return packCost(); }

std::function<void()> BlockState::stencilBody() {
  if (!backed) {
    cur ^= 1;  // still swap so the driver logic is identical
    return {};
  }
  return [this] {
    const auto* in = static_cast<const double*>(grid[cur]);
    auto* out = static_cast<double*>(grid[cur ^ 1]);
    const std::int64_t bx = dec.block.x, by = dec.block.y, bz = dec.block.z;
    const std::int64_t sx = bx + 2, sy = by + 2;
    for (std::int64_t k = 1; k <= bz; ++k) {
      for (std::int64_t j = 1; j <= by; ++j) {
        for (std::int64_t i = 1; i <= bx; ++i) {
          const std::size_t c = static_cast<std::size_t>(i + sx * (j + sy * k));
          out[c] = (in[c] + in[c - 1] + in[c + 1] + in[c - static_cast<std::size_t>(sx)] +
                    in[c + static_cast<std::size_t>(sx)] +
                    in[c - static_cast<std::size_t>(sx * sy)] +
                    in[c + static_cast<std::size_t>(sx * sy)]) /
                   7.0;
        }
      }
    }
    cur ^= 1;
  };
}

std::function<void()> BlockState::packBody() {
  if (!backed) return {};
  return [this] {
    const auto* g = static_cast<const double*>(grid[cur]);
    const std::int64_t bx = dec.block.x, by = dec.block.y, bz = dec.block.z;
    const std::int64_t sx = bx + 2, sy = by + 2;
    auto cell = [&](std::int64_t i, std::int64_t j, std::int64_t k) {
      return g[static_cast<std::size_t>(i + sx * (j + sy * k))];
    };
    for (int di = 0; di < kNumDirs; ++di) {
      if (nbr[static_cast<std::size_t>(di)] < 0) continue;
      auto* out = static_cast<double*>(d_send[di]);
      std::size_t n = 0;
      switch (static_cast<Dir>(di)) {
        case Dir::XMinus:
          for (std::int64_t k = 1; k <= bz; ++k)
            for (std::int64_t j = 1; j <= by; ++j) out[n++] = cell(1, j, k);
          break;
        case Dir::XPlus:
          for (std::int64_t k = 1; k <= bz; ++k)
            for (std::int64_t j = 1; j <= by; ++j) out[n++] = cell(bx, j, k);
          break;
        case Dir::YMinus:
          for (std::int64_t k = 1; k <= bz; ++k)
            for (std::int64_t i = 1; i <= bx; ++i) out[n++] = cell(i, 1, k);
          break;
        case Dir::YPlus:
          for (std::int64_t k = 1; k <= bz; ++k)
            for (std::int64_t i = 1; i <= bx; ++i) out[n++] = cell(i, by, k);
          break;
        case Dir::ZMinus:
          for (std::int64_t j = 1; j <= by; ++j)
            for (std::int64_t i = 1; i <= bx; ++i) out[n++] = cell(i, j, 1);
          break;
        case Dir::ZPlus:
          for (std::int64_t j = 1; j <= by; ++j)
            for (std::int64_t i = 1; i <= bx; ++i) out[n++] = cell(i, j, bz);
          break;
      }
    }
  };
}

std::function<void()> BlockState::unpackBody(int parity) {
  if (!backed) return {};
  return [this, parity] {
    auto* g = static_cast<double*>(grid[cur]);
    const std::int64_t bx = dec.block.x, by = dec.block.y, bz = dec.block.z;
    const std::int64_t sx = bx + 2, sy = by + 2;
    auto set = [&](std::int64_t i, std::int64_t j, std::int64_t k, double v) {
      g[static_cast<std::size_t>(i + sx * (j + sy * k))] = v;
    };
    for (int di = 0; di < kNumDirs; ++di) {
      if (nbr[static_cast<std::size_t>(di)] < 0) continue;
      const auto* in = static_cast<const double*>(d_recv[parity][di]);
      std::size_t n = 0;
      switch (static_cast<Dir>(di)) {
        case Dir::XMinus:
          for (std::int64_t k = 1; k <= bz; ++k)
            for (std::int64_t j = 1; j <= by; ++j) set(0, j, k, in[n++]);
          break;
        case Dir::XPlus:
          for (std::int64_t k = 1; k <= bz; ++k)
            for (std::int64_t j = 1; j <= by; ++j) set(bx + 1, j, k, in[n++]);
          break;
        case Dir::YMinus:
          for (std::int64_t k = 1; k <= bz; ++k)
            for (std::int64_t i = 1; i <= bx; ++i) set(i, 0, k, in[n++]);
          break;
        case Dir::YPlus:
          for (std::int64_t k = 1; k <= bz; ++k)
            for (std::int64_t i = 1; i <= bx; ++i) set(i, by + 1, k, in[n++]);
          break;
        case Dir::ZMinus:
          for (std::int64_t j = 1; j <= by; ++j)
            for (std::int64_t i = 1; i <= bx; ++i) set(i, j, 0, in[n++]);
          break;
        case Dir::ZPlus:
          for (std::int64_t j = 1; j <= by; ++j)
            for (std::int64_t i = 1; i <= bx; ++i) set(i, j, bz + 1, in[n++]);
          break;
      }
    }
  };
}

void BlockState::stageSendFaces() {
  for (int i = 0; i < kNumDirs; ++i) {
    if (nbr[static_cast<std::size_t>(i)] < 0) continue;
    stream->memcpyAsync(h_send[i].ref(), deviceRef(d_send[i]),
                        dec.faceBytes(static_cast<Dir>(i)), cuda::MemcpyKind::DeviceToHost);
  }
}

void BlockState::stageRecvFaces(int parity) {
  for (int i = 0; i < kNumDirs; ++i) {
    if (nbr[static_cast<std::size_t>(i)] < 0) continue;
    stream->memcpyAsync(deviceRef(d_recv[parity][i]), h_recv[parity][i].ref(),
                        dec.faceBytes(static_cast<Dir>(i)), cuda::MemcpyKind::HostToDevice);
  }
}

void BlockState::extractInterior(std::vector<double>& out) const {
  if (!backed) throw std::invalid_argument("extractInterior: the block's memory is not backed");
  const auto* g = static_cast<const double*>(grid[cur]);
  const std::int64_t sx = dec.block.x + 2, sy = dec.block.y + 2;
  for (std::int64_t k = 0; k < dec.block.z; ++k) {
    for (std::int64_t j = 0; j < dec.block.y; ++j) {
      for (std::int64_t i = 0; i < dec.block.x; ++i) {
        const std::int64_t gx = coord.x * dec.block.x + i;
        const std::int64_t gy = coord.y * dec.block.y + j;
        const std::int64_t gz = coord.z * dec.block.z + k;
        if (gx >= dec.grid.x || gy >= dec.grid.y || gz >= dec.grid.z) continue;
        out[static_cast<std::size_t>(gx + dec.grid.x * (gy + dec.grid.y * gz))] =
            g[static_cast<std::size_t>((i + 1) + sx * ((j + 1) + sy * (k + 1)))];
      }
    }
  }
}

}  // namespace cux::jacobi
