#include "common/mapped_file.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/logging.h"

namespace mars {

std::shared_ptr<MappedFile> MappedFile::Open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    MARS_LOG(ERROR) << "MappedFile: cannot open " << path << ": "
                    << std::strerror(errno);
    return nullptr;
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    MARS_LOG(ERROR) << "MappedFile: cannot stat " << path << ": "
                    << std::strerror(errno);
    ::close(fd);
    return nullptr;
  }
  const size_t size = static_cast<size_t>(st.st_size);
  const uint8_t* data = nullptr;
  if (size > 0) {
    void* mapping = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    if (mapping == MAP_FAILED) {
      MARS_LOG(ERROR) << "MappedFile: mmap of " << path << " failed: "
                      << std::strerror(errno);
      ::close(fd);
      return nullptr;
    }
    data = static_cast<const uint8_t*>(mapping);
  }
  // The mapping outlives the descriptor (POSIX keeps the pages referenced),
  // so close now instead of carrying the fd around.
  ::close(fd);
  return std::shared_ptr<MappedFile>(new MappedFile(data, size));
}

MappedFile::~MappedFile() {
  if (data_ != nullptr) {
    ::munmap(const_cast<uint8_t*>(data_), size_);
  }
}

}  // namespace mars
