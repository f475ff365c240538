#include "common/durable_fs.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/fault_injection.h"

namespace tip::fs {

Status FsyncDir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return Status::NotFound("cannot open directory '" + dir +
                            "': " + std::strerror(errno));
  }
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) {
    return Status::Internal("fsync of directory '" + dir +
                            "' failed: " + std::strerror(errno));
  }
  return Status::OK();
}

std::string ParentDir(std::string_view path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string_view::npos) return ".";
  if (slash == 0) return "/";
  return std::string(path.substr(0, slash));
}

Status EnsureDir(const std::string& dir) {
  struct stat st;
  if (::stat(dir.c_str(), &st) == 0) {
    if (S_ISDIR(st.st_mode)) return Status::OK();
    return Status::InvalidArgument("'" + dir + "' exists and is not a "
                                   "directory");
  }
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::Internal("mkdir '" + dir +
                            "' failed: " + std::strerror(errno));
  }
  return FsyncDir(ParentDir(dir));
}

Result<std::string> ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    // Only a genuinely absent file is NotFound. Callers on the recovery
    // path treat NotFound as "fresh state, create it" — mapping EACCES,
    // EMFILE or EIO there would overwrite durable data we merely failed
    // to open.
    if (errno == ENOENT) {
      return Status::NotFound("'" + path + "' does not exist");
    }
    return Status::Internal("cannot open '" + path +
                            "': " + std::strerror(errno));
  }
  std::string bytes;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) bytes.append(buf, n);
  // A mid-read I/O error truncates the loop exactly like EOF does; only
  // ferror tells them apart, and a caller handed the short prefix would
  // mistake it for a torn file.
  const bool failed = std::ferror(f) != 0;
  std::fclose(f);
  if (failed) {
    return Status::Internal("I/O error while reading '" + path + "'");
  }
  return bytes;
}

Status AtomicWriteFile(const std::string& path, std::string_view bytes,
                       const std::string& fault_prefix) {
  return AtomicWriteFile(path, std::vector<std::string_view>{bytes},
                         fault_prefix);
}

Status AtomicWriteFile(const std::string& path,
                       const std::vector<std::string_view>& pieces,
                       const std::string& fault_prefix) {
  const std::string tmp = path + ".tmp";
  Status inject = fault::MaybeFail((fault_prefix + ".open").c_str());
  std::FILE* f = inject.ok() ? std::fopen(tmp.c_str(), "wb") : nullptr;
  if (f == nullptr) {
    if (!inject.ok()) return inject;
    return Status::InvalidArgument("cannot open '" + tmp + "' for writing");
  }
  inject = fault::MaybeFail((fault_prefix + ".write").c_str());
  bool complete = inject.ok();
  for (size_t i = 0; complete && i < pieces.size(); ++i) {
    complete = std::fwrite(pieces[i].data(), 1, pieces[i].size(), f) ==
               pieces[i].size();
  }
  if (!complete) {
    std::fclose(f);
    std::remove(tmp.c_str());
    if (!inject.ok()) return inject;
    return Status::Internal("short write to '" + tmp + "'");
  }
  inject = fault::MaybeFail((fault_prefix + ".fsync").c_str());
  const bool synced =
      inject.ok() && std::fflush(f) == 0 && ::fsync(fileno(f)) == 0;
  if (!synced) {
    std::fclose(f);
    std::remove(tmp.c_str());
    if (!inject.ok()) return inject;
    return Status::Internal("fsync of '" + tmp + "' failed");
  }
  inject = fault::MaybeFail((fault_prefix + ".close").c_str());
  if (!inject.ok() || std::fclose(f) != 0) {
    if (inject.ok()) f = nullptr;  // fclose already released it
    if (f != nullptr) std::fclose(f);
    std::remove(tmp.c_str());
    if (!inject.ok()) return inject;
    return Status::Internal("close of '" + tmp + "' failed");
  }
  inject = fault::MaybeFail((fault_prefix + ".rename").c_str());
  if (!inject.ok() || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    if (!inject.ok()) return inject;
    return Status::Internal("rename of '" + tmp + "' over '" + path +
                            "' failed");
  }
  // The rename is not durable until the directory entry is on disk.
  TIP_RETURN_IF_ERROR(fault::MaybeFail((fault_prefix + ".dirsync").c_str()));
  return FsyncDir(ParentDir(path));
}

}  // namespace tip::fs
