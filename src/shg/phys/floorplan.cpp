#include "shg/phys/floorplan.hpp"

namespace shg::phys {

double stacked_extent(const std::vector<double>& spacing, double tile,
                      double* starts) {
  double y = 0.0;
  for (std::size_t i = 0; i < spacing.size(); ++i) {
    if (starts != nullptr) starts[i] = y;
    y += spacing[i];
    if (i + 1 < spacing.size()) y += tile;
  }
  return y;
}

Floorplan::Floorplan(int rows, int cols, double tile_w, double tile_h,
                     std::vector<double> h_spacing,
                     std::vector<double> v_spacing, double cell_w,
                     double cell_h)
    : rows_(rows),
      cols_(cols),
      tile_w_(tile_w),
      tile_h_(tile_h),
      h_spacing_(std::move(h_spacing)),
      v_spacing_(std::move(v_spacing)),
      cell_w_(cell_w),
      cell_h_(cell_h) {
  SHG_REQUIRE(rows_ >= 1 && cols_ >= 1, "grid must be non-empty");
  SHG_REQUIRE(tile_w_ > 0.0 && tile_h_ > 0.0, "tile dims must be positive");
  SHG_REQUIRE(cell_w_ > 0.0 && cell_h_ > 0.0, "cell dims must be positive");
  SHG_REQUIRE(static_cast<int>(h_spacing_.size()) == rows_ + 1,
              "need rows+1 horizontal channel spacings");
  SHG_REQUIRE(static_cast<int>(v_spacing_.size()) == cols_ + 1,
              "need cols+1 vertical channel spacings");
  for (double s : h_spacing_) SHG_REQUIRE(s >= 0.0, "spacing must be >= 0");
  for (double s : v_spacing_) SHG_REQUIRE(s >= 0.0, "spacing must be >= 0");

  chan_h_top_.resize(h_spacing_.size());
  chip_height_ = stacked_extent(h_spacing_, tile_h_, chan_h_top_.data());
  chan_v_left_.resize(v_spacing_.size());
  chip_width_ = stacked_extent(v_spacing_, tile_w_, chan_v_left_.data());
}

double Floorplan::chan_h_top(int i) const {
  SHG_REQUIRE(i >= 0 && i <= rows_, "horizontal channel index out of range");
  return chan_h_top_[static_cast<std::size_t>(i)];
}

double Floorplan::chan_v_left(int j) const {
  SHG_REQUIRE(j >= 0 && j <= cols_, "vertical channel index out of range");
  return chan_v_left_[static_cast<std::size_t>(j)];
}

double Floorplan::row_top(int r) const {
  SHG_REQUIRE(r >= 0 && r < rows_, "row out of range");
  return chan_h_top(r) + h_spacing_[static_cast<std::size_t>(r)];
}

double Floorplan::col_left(int c) const {
  SHG_REQUIRE(c >= 0 && c < cols_, "column out of range");
  return chan_v_left(c) + v_spacing_[static_cast<std::size_t>(c)];
}

PointMM Floorplan::tile_center(int r, int c) const {
  return PointMM{col_left(c) + tile_w_ / 2.0, row_top(r) + tile_h_ / 2.0};
}

}  // namespace shg::phys
