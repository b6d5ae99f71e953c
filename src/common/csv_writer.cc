#include "common/csv_writer.h"

namespace mars {

CsvWriter::CsvWriter(const std::string& path) : out_(path) {}

void CsvWriter::WriteRow(const std::vector<std::string>& fields) {
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out_ << ",";
    out_ << fields[i];
  }
  out_ << "\n";
}

void CsvWriter::Flush() { out_.flush(); }

}  // namespace mars
