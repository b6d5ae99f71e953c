// Streaming CSV writer for experiment result dumps (Fig. 7 scatter data,
// sweep curves, metric logs).
#ifndef MARS_COMMON_CSV_WRITER_H_
#define MARS_COMMON_CSV_WRITER_H_

#include <fstream>
#include <string>
#include <vector>

namespace mars {

/// Writes rows of comma-separated values to a file.
class CsvWriter {
 public:
  /// Opens `path` for writing (truncates). Check ok() before use.
  explicit CsvWriter(const std::string& path);

  /// True when the underlying file opened successfully.
  bool ok() const { return out_.is_open(); }

  /// Writes one row; fields are written verbatim (caller quotes if needed).
  void WriteRow(const std::vector<std::string>& fields);

  /// Flushes buffered output.
  void Flush();

 private:
  std::ofstream out_;
};

}  // namespace mars

#endif  // MARS_COMMON_CSV_WRITER_H_
