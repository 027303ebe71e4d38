#include "util/table_writer.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "util/macros.h"

namespace rne {

TableWriter::TableWriter(std::vector<std::string> header)
    : header_(std::move(header)) {
  RNE_CHECK(!header_.empty());
}

void TableWriter::AddRow(std::vector<std::string> row) {
  RNE_CHECK_MSG(row.size() == header_.size(),
                "row width must match header width");
  rows_.push_back(std::move(row));
}

std::string TableWriter::Fmt(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

std::string TableWriter::FmtSci(double value) {
  char buf[64];
  if (value != 0.0 && (value < 0.001 || value >= 1e7)) {
    std::snprintf(buf, sizeof(buf), "%.3e", value);
  } else {
    std::snprintf(buf, sizeof(buf), "%.4f", value);
  }
  return buf;
}

std::string TableWriter::ToString() const {
  std::vector<size_t> widths(header_.size());
  for (size_t i = 0; i < header_.size(); ++i) widths[i] = header_[i].size();
  for (const auto& row : rows_) {
    for (size_t i = 0; i < row.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  }
  auto render_row = [&](const std::vector<std::string>& row) {
    std::string line = "|";
    for (size_t i = 0; i < row.size(); ++i) {
      line += " " + row[i] + std::string(widths[i] - row[i].size(), ' ') + " |";
    }
    return line + "\n";
  };
  std::string out = render_row(header_);
  std::string sep = "|";
  for (size_t w : widths) sep += std::string(w + 2, '-') + "|";
  out += sep + "\n";
  for (const auto& row : rows_) out += render_row(row);
  return out;
}

void TableWriter::Print(const std::string& title) const {
  std::printf("\n== %s ==\n%s", title.c_str(), ToString().c_str());
  std::fflush(stdout);
}

Status TableWriter::WriteCsv(const std::string& path) const {
  std::error_code ec;
  const auto parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) {
    std::filesystem::create_directories(parent, ec);
    if (ec) {
      return Status::IoError("cannot create directory " + parent.string());
    }
  }
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open " + path);
  auto write_row = [&out](const std::vector<std::string>& row) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i) out << ',';
      // Quote cells containing commas.
      if (row[i].find(',') != std::string::npos) {
        out << '"' << row[i] << '"';
      } else {
        out << row[i];
      }
    }
    out << '\n';
  };
  write_row(header_);
  for (const auto& row : rows_) write_row(row);
  if (!out) return Status::IoError("write failed for " + path);
  return Status::Ok();
}

}  // namespace rne
