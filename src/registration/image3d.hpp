#pragma once

#include <cstddef>
#include <vector>

#include "registration/geometry.hpp"

namespace moteur::registration {

/// A scalar 3-D volume, the stand-in for the paper's 256x256x60 16-bit T1
/// MRIs (we use smaller float volumes; the workflow and algorithms are
/// unchanged). Voxel (i, j, k) sits at world position (i, j, k) * spacing.
class Image3D {
 public:
  Image3D(std::size_t nx, std::size_t ny, std::size_t nz, double spacing = 1.0);

  std::size_t nx() const { return nx_; }
  std::size_t ny() const { return ny_; }
  std::size_t nz() const { return nz_; }
  double spacing() const { return spacing_; }
  std::size_t voxel_count() const { return voxels_.size(); }

  float& at(std::size_t i, std::size_t j, std::size_t k);
  float at(std::size_t i, std::size_t j, std::size_t k) const;

  /// Trilinear interpolation at a world position; 0 outside the volume.
  double sample(const Vec3& world) const;

  /// Central-difference gradient at a voxel (one-sided at the borders).
  Vec3 gradient(std::size_t i, std::size_t j, std::size_t k) const;

  /// World position of a voxel center.
  Vec3 position(std::size_t i, std::size_t j, std::size_t k) const;

  /// World-space bounding box extent.
  Vec3 extent() const;

  /// Resample this image under a rigid transform: output(v) =
  /// this(transform^-1(v)) — how a moved acquisition of the same subject is
  /// synthesized.
  Image3D resampled(const RigidTransform& transform) const;

  /// 2x downsampling by 2x2x2 block averaging; spacing doubles, so world
  /// coordinates are preserved (the basis of coarse-to-fine registration).
  Image3D downsampled() const;

  double mean_value() const;

  const std::vector<float>& voxels() const { return voxels_; }
  std::vector<float>& voxels() { return voxels_; }

 private:
  std::size_t index(std::size_t i, std::size_t j, std::size_t k) const {
    return (k * ny_ + j) * nx_ + i;
  }

  std::size_t nx_, ny_, nz_;
  double spacing_;
  std::vector<float> voxels_;
};

/// Normalized cross-correlation of two same-shape images (registration
/// similarity measure); in [-1, 1].
double normalized_cross_correlation(const Image3D& a, const Image3D& b);

}  // namespace moteur::registration
