#include "common/binary_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>

#include "common/logging.h"

namespace mars {

bool WriteFileAtomic(const std::string& path, const char* who,
                     const std::function<void(std::ostream&)>& write) {
  const std::string tmp = path + ".tmp";
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  if (!out.is_open()) {
    MARS_LOG(ERROR) << who << ": cannot open " << tmp;
    return false;
  }
  write(out);
  out.close();
  bool ok = !out.fail();
  if (ok) {
    const int fd = ::open(tmp.c_str(), O_WRONLY | O_CLOEXEC);
    ok = fd >= 0 && ::fsync(fd) == 0;
    if (fd >= 0 && ::close(fd) != 0) ok = false;
  }
  if (ok) ok = std::rename(tmp.c_str(), path.c_str()) == 0;
  if (!ok) {
    MARS_LOG(ERROR) << who << ": write failed for " << path;
    ::unlink(tmp.c_str());
  }
  return ok;
}

}  // namespace mars
