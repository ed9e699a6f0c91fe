#include "cells/gds.hpp"

#include <cmath>
#include <cstdio>
#include <cstring>

namespace m3d::cells {
namespace {

// GDSII record types.
constexpr uint8_t kHeader = 0x00, kBgnLib = 0x01, kLibName = 0x02,
                  kUnits = 0x03, kEndLib = 0x04, kBgnStr = 0x05,
                  kStrName = 0x06, kEndStr = 0x07, kBoundary = 0x08,
                  kLayer = 0x0D, kDatatype = 0x0E, kXy = 0x10, kEndEl = 0x11;
// Data types.
constexpr uint8_t kNoData = 0x00, kInt16 = 0x02, kInt32 = 0x03, kReal8 = 0x05,
                  kAscii = 0x06;

constexpr double kDbuUm = 0.0005;  // database unit: 0.5 nm

/// GDSII 8-byte real: sign bit, excess-64 base-16 exponent, 7-byte mantissa.
void push_real8(std::vector<uint8_t>* out, double v) {
  uint8_t bytes[8] = {};
  if (v != 0.0) {
    const bool neg = v < 0;
    double mag = std::abs(v);
    int exp16 = 0;
    while (mag >= 1.0) {
      mag /= 16.0;
      ++exp16;
    }
    while (mag < 1.0 / 16.0) {
      mag *= 16.0;
      --exp16;
    }
    bytes[0] = static_cast<uint8_t>((neg ? 0x80 : 0x00) | ((exp16 + 64) & 0x7F));
    for (int i = 1; i < 8; ++i) {
      mag *= 256.0;
      const int b = static_cast<int>(mag);
      bytes[i] = static_cast<uint8_t>(b);
      mag -= b;
    }
  }
  out->insert(out->end(), bytes, bytes + 8);
}

void push_i16(std::vector<uint8_t>* out, int16_t v) {
  out->push_back(static_cast<uint8_t>((v >> 8) & 0xFF));
  out->push_back(static_cast<uint8_t>(v & 0xFF));
}

void push_i32(std::vector<uint8_t>* out, int32_t v) {
  out->push_back(static_cast<uint8_t>((v >> 24) & 0xFF));
  out->push_back(static_cast<uint8_t>((v >> 16) & 0xFF));
  out->push_back(static_cast<uint8_t>((v >> 8) & 0xFF));
  out->push_back(static_cast<uint8_t>(v & 0xFF));
}

}  // namespace

GdsWriter::GdsWriter(const std::string& libname) {
  record_i16(kHeader, {600});
  // BGNLIB: modification + access timestamps (fixed for reproducibility).
  record_i16(kBgnLib, {2013, 5, 29, 0, 0, 0, 2013, 5, 29, 0, 0, 0});
  record_str(kLibName, libname);
  // UNITS: user units per dbu, meters per dbu.
  std::vector<uint8_t> units;
  push_real8(&units, kDbuUm / 1.0);       // 1 user unit = 1 um
  push_real8(&units, kDbuUm * 1e-6);      // dbu in meters
  record(kUnits, kReal8, units);
}

void GdsWriter::record(uint8_t rectype, uint8_t datatype,
                       const std::vector<uint8_t>& payload) {
  const uint16_t len = static_cast<uint16_t>(4 + payload.size());
  body_.push_back(static_cast<uint8_t>((len >> 8) & 0xFF));
  body_.push_back(static_cast<uint8_t>(len & 0xFF));
  body_.push_back(rectype);
  body_.push_back(datatype);
  body_.insert(body_.end(), payload.begin(), payload.end());
}

void GdsWriter::record_i16(uint8_t rectype, const std::vector<int16_t>& values) {
  std::vector<uint8_t> payload;
  for (int16_t v : values) push_i16(&payload, v);
  record(rectype, kInt16, payload);
}

void GdsWriter::record_i32(uint8_t rectype, const std::vector<int32_t>& values) {
  std::vector<uint8_t> payload;
  for (int32_t v : values) push_i32(&payload, v);
  record(rectype, kInt32, payload);
}

void GdsWriter::record_str(uint8_t rectype, const std::string& s) {
  std::vector<uint8_t> payload(s.begin(), s.end());
  if (payload.size() % 2) payload.push_back(0);  // pad to even length
  record(rectype, kAscii, payload);
}

void GdsWriter::rect(int layer, double x, double y, double w, double h) {
  record(kBoundary, kNoData);
  record_i16(kLayer, {static_cast<int16_t>(layer)});
  record_i16(kDatatype, {0});
  auto dbu = [](double um) { return static_cast<int32_t>(std::lround(um / kDbuUm)); };
  record_i32(kXy, {dbu(x), dbu(y), dbu(x + w), dbu(y), dbu(x + w), dbu(y + h),
                   dbu(x), dbu(y + h), dbu(x), dbu(y)});
  record(kEndEl, kNoData);
}

void GdsWriter::add_cell(const CellSpec& spec, const CellLayout& layout) {
  record_i16(kBgnStr, {2013, 5, 29, 0, 0, 0, 2013, 5, 29, 0, 0, 0});
  record_str(kStrName, spec.name + (layout.folded ? "_TMI" : "_2D"));

  const double h = layout.height_um;
  const double gate_w = 0.05 * (h / 1.4);  // drawn gate length, node-scaled
  for (const auto& d : layout.devices) {
    // Diffusion strip + poly gate columns, positioned by row/tier.
    const double diff_h = std::min(0.4 * h, d.w_um / 2.0);
    double y;
    if (!layout.folded) {
      y = d.pmos ? 0.62 * h : 0.18 * h;
    } else {
      y = d.pmos ? 0.58 * h : 0.12 * h;
    }
    const int diff_layer = (!layout.folded || d.pmos) ? 1 : 2;
    const int poly_layer = (!layout.folded || d.pmos) ? 10 : 11;
    const double dw = 0.14 * d.fingers * (h / 1.4);
    rect(diff_layer, d.x_um - dw / 2, y, dw, diff_h);
    for (int f = 0; f < d.fingers; ++f) {
      rect(poly_layer, d.x_um - dw / 2 + (f + 0.5) * dw / d.fingers - gate_w / 2,
           y - 0.05 * h, gate_w, diff_h + 0.1 * h);
    }
  }
  // Rails: MB1 (folded) or M1 strips.
  const double rail_h = 0.05 * h;
  rect(layout.folded ? 30 : 31, 0, h - rail_h, layout.width_um, rail_h);
  rect(31, 0, 0, layout.width_um, rail_h);
  // MIVs.
  const double miv = 0.07 * (h / 1.4);
  for (const auto& m : layout.mivs) {
    rect(40, m.x_um - miv / 2, h / 2 - miv / 2, miv, miv);
  }
  record(kEndStr, kNoData);
  ++num_cells_;
}

std::vector<uint8_t> GdsWriter::finish() const {
  std::vector<uint8_t> out = body_;
  // ENDLIB.
  out.push_back(0);
  out.push_back(4);
  out.push_back(kEndLib);
  out.push_back(kNoData);
  return out;
}

bool GdsWriter::save(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const auto data = finish();
  const size_t n = std::fwrite(data.data(), 1, data.size(), f);
  std::fclose(f);
  return n == data.size();
}

bool write_library_gds(const std::string& path, const tech::Tech& tech) {
  GdsWriter gds;
  auto emit = [&](Func f, int d) {
    const CellSpec spec = make_spec(f, d);
    const CellLayout layout =
        tech::cell_style(tech.style()) == tech::Style::k2D
            ? layout_2d(spec, tech)
            : fold_tmi(spec, tech);
    gds.add_cell(spec, layout);
  };
  for (Func f : all_comb_funcs()) {
    for (int d : drive_options(f)) emit(f, d);
  }
  for (int d : drive_options(Func::kDff)) emit(Func::kDff, d);
  return gds.save(path);
}

}  // namespace m3d::cells
