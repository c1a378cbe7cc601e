// Floorplan geometry: tile placement in an R x C grid with per-channel
// spacing (steps 1, 3 and 4 of the paper's model, Fig. 5a/c/d).
//
// Coordinate system: x grows to the right (columns), y grows downward
// (rows), all in millimeters. The chip alternates channels and tiles in
// both directions:
//   vertical:   hchannel[0], tile row 0, hchannel[1], ..., hchannel[R]
//   horizontal: vchannel[0], tile col 0, vchannel[1], ..., vchannel[C]
// hchannel[i] lies above tile row i (hchannel[R] below the last row);
// vchannel[j] lies left of tile column j.
#pragma once

#include <vector>

#include "shg/common/error.hpp"
#include "shg/common/geometry.hpp"

namespace shg::phys {

/// Extent of the chip across one axis: the channel spacings interleaved
/// with spacing.size() - 1 tiles of `tile` mm, added in stacking order
/// (channel 0, tile 0, channel 1, ..., the last channel). When `starts` is
/// given, starts[i] receives the offset of channel i. The Floorplan and
/// product-form screening both take their chip extents from this one sum,
/// so they agree bit for bit.
double stacked_extent(const std::vector<double>& spacing, double tile,
                      double* starts = nullptr);

class Floorplan {
 public:
  /// Builds a floorplan from tile dimensions, channel spacings
  /// (h_spacing.size() == rows+1, v_spacing.size() == cols+1) and the unit
  /// cell dimensions of step 4 (cell_w = W_C, cell_h = H_C).
  Floorplan(int rows, int cols, double tile_w, double tile_h,
            std::vector<double> h_spacing, std::vector<double> v_spacing,
            double cell_w, double cell_h);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  double tile_w() const { return tile_w_; }
  double tile_h() const { return tile_h_; }
  double cell_w() const { return cell_w_; }
  double cell_h() const { return cell_h_; }

  /// Top y of the horizontal channel above tile row i (i in [0, rows]).
  double chan_h_top(int i) const;
  /// Left x of the vertical channel left of tile column j (j in [0, cols]).
  double chan_v_left(int j) const;

  /// Top y of tile row r.
  double row_top(int r) const;
  /// Left x of tile column c.
  double col_left(int c) const;

  /// Center of the tile (local router location) at (r, c).
  PointMM tile_center(int r, int c) const;

  double chip_width() const { return chip_width_; }
  double chip_height() const { return chip_height_; }

  /// Unit-cell area A_C = H_C * W_C (step 4).
  double cell_area_mm2() const { return cell_w_ * cell_h_; }

 private:
  int rows_;
  int cols_;
  double tile_w_;
  double tile_h_;
  std::vector<double> h_spacing_;
  std::vector<double> v_spacing_;
  double cell_w_;
  double cell_h_;
  // Prefix sums: chan_h_top_[i] for i in [0, rows], etc.
  std::vector<double> chan_h_top_;
  std::vector<double> chan_v_left_;
  double chip_width_ = 0.0;
  double chip_height_ = 0.0;
};

}  // namespace shg::phys
