#include "registration/image3d.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"
#include "util/stats.hpp"

namespace moteur::registration {

Image3D::Image3D(std::size_t nx, std::size_t ny, std::size_t nz, double spacing)
    : nx_(nx), ny_(ny), nz_(nz), spacing_(spacing), voxels_(nx * ny * nz, 0.0f) {
  MOTEUR_REQUIRE(nx >= 2 && ny >= 2 && nz >= 2, InternalError,
                 "Image3D: each dimension must be >= 2");
  MOTEUR_REQUIRE(spacing > 0.0, InternalError, "Image3D: spacing must be > 0");
}

float& Image3D::at(std::size_t i, std::size_t j, std::size_t k) {
  return voxels_[index(i, j, k)];
}

float Image3D::at(std::size_t i, std::size_t j, std::size_t k) const {
  return voxels_[index(i, j, k)];
}

Vec3 Image3D::position(std::size_t i, std::size_t j, std::size_t k) const {
  return Vec3{static_cast<double>(i) * spacing_, static_cast<double>(j) * spacing_,
              static_cast<double>(k) * spacing_};
}

Vec3 Image3D::extent() const {
  return Vec3{static_cast<double>(nx_ - 1) * spacing_,
              static_cast<double>(ny_ - 1) * spacing_,
              static_cast<double>(nz_ - 1) * spacing_};
}

double Image3D::sample(const Vec3& world) const {
  const double fx = world.x / spacing_;
  const double fy = world.y / spacing_;
  const double fz = world.z / spacing_;
  if (fx < 0.0 || fy < 0.0 || fz < 0.0) return 0.0;
  if (fx > static_cast<double>(nx_ - 1) || fy > static_cast<double>(ny_ - 1) ||
      fz > static_cast<double>(nz_ - 1)) {
    return 0.0;
  }
  // Clamp the base cell so positions exactly on the upper faces interpolate
  // within the last cell instead of reading as outside.
  const auto i0 = std::min(static_cast<std::size_t>(fx), nx_ - 2);
  const auto j0 = std::min(static_cast<std::size_t>(fy), ny_ - 2);
  const auto k0 = std::min(static_cast<std::size_t>(fz), nz_ - 2);
  const double dx = fx - static_cast<double>(i0);
  const double dy = fy - static_cast<double>(j0);
  const double dz = fz - static_cast<double>(k0);

  const auto v = [&](std::size_t di, std::size_t dj, std::size_t dk) {
    return static_cast<double>(at(i0 + di, j0 + dj, k0 + dk));
  };
  const double c00 = v(0, 0, 0) * (1 - dx) + v(1, 0, 0) * dx;
  const double c10 = v(0, 1, 0) * (1 - dx) + v(1, 1, 0) * dx;
  const double c01 = v(0, 0, 1) * (1 - dx) + v(1, 0, 1) * dx;
  const double c11 = v(0, 1, 1) * (1 - dx) + v(1, 1, 1) * dx;
  const double c0 = c00 * (1 - dy) + c10 * dy;
  const double c1 = c01 * (1 - dy) + c11 * dy;
  return c0 * (1 - dz) + c1 * dz;
}

Vec3 Image3D::gradient(std::size_t i, std::size_t j, std::size_t k) const {
  const auto axis = [&](std::size_t coord, std::size_t n, auto value) -> double {
    if (coord == 0) return (value(1) - value(0)) / spacing_;
    if (coord + 1 >= n) return (value(coord) - value(coord - 1)) / spacing_;
    return (value(coord + 1) - value(coord - 1)) / (2.0 * spacing_);
  };
  return Vec3{
      axis(i, nx_, [&](std::size_t a) { return static_cast<double>(at(a, j, k)); }),
      axis(j, ny_, [&](std::size_t a) { return static_cast<double>(at(i, a, k)); }),
      axis(k, nz_, [&](std::size_t a) { return static_cast<double>(at(i, j, a)); })};
}

Image3D Image3D::resampled(const RigidTransform& transform) const {
  Image3D out(nx_, ny_, nz_, spacing_);
  const RigidTransform inverse = transform.inverse();
  for (std::size_t k = 0; k < nz_; ++k) {
    for (std::size_t j = 0; j < ny_; ++j) {
      for (std::size_t i = 0; i < nx_; ++i) {
        out.at(i, j, k) = static_cast<float>(sample(inverse.apply(position(i, j, k))));
      }
    }
  }
  return out;
}

Image3D Image3D::downsampled() const {
  const std::size_t hx = std::max<std::size_t>(2, nx_ / 2);
  const std::size_t hy = std::max<std::size_t>(2, ny_ / 2);
  const std::size_t hz = std::max<std::size_t>(2, nz_ / 2);
  Image3D out(hx, hy, hz, spacing_ * 2.0);
  for (std::size_t k = 0; k < hz; ++k) {
    for (std::size_t j = 0; j < hy; ++j) {
      for (std::size_t i = 0; i < hx; ++i) {
        double sum = 0.0;
        int count = 0;
        for (std::size_t dk = 0; dk < 2; ++dk) {
          for (std::size_t dj = 0; dj < 2; ++dj) {
            for (std::size_t di = 0; di < 2; ++di) {
              const std::size_t si = 2 * i + di, sj = 2 * j + dj, sk = 2 * k + dk;
              if (si < nx_ && sj < ny_ && sk < nz_) {
                sum += static_cast<double>(at(si, sj, sk));
                ++count;
              }
            }
          }
        }
        out.at(i, j, k) = static_cast<float>(sum / std::max(count, 1));
      }
    }
  }
  return out;
}

double Image3D::mean_value() const {
  double sum = 0.0;
  for (float v : voxels_) sum += static_cast<double>(v);
  return sum / static_cast<double>(voxels_.size());
}

double normalized_cross_correlation(const Image3D& a, const Image3D& b) {
  MOTEUR_REQUIRE(a.voxel_count() == b.voxel_count(), InternalError,
                 "NCC: image shapes differ");
  const double ma = a.mean_value();
  const double mb = b.mean_value();
  double num = 0.0, da = 0.0, db = 0.0;
  const auto& va = a.voxels();
  const auto& vb = b.voxels();
  for (std::size_t i = 0; i < va.size(); ++i) {
    const double xa = static_cast<double>(va[i]) - ma;
    const double xb = static_cast<double>(vb[i]) - mb;
    num += xa * xb;
    da += xa * xa;
    db += xb * xb;
  }
  if (da <= 0.0 || db <= 0.0) return 0.0;
  return num / std::sqrt(da * db);
}

}  // namespace moteur::registration
